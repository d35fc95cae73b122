import re
from math import comb

import pytest
from hypothesis import given, strategies as st

from refmon import oracles, primitive, wild
from refmon.graphs import parse_graph
from refmon.presentation import parse_presentation
from refmon.words import (
    GeneratorSet,
    ParseError,
    Word,
    checked_refinement,
    compositions,
    directives,
    parse_term,
)

GENS = GeneratorSet(("a", "b", "c"))


def words(max_exp=5):
    return st.builds(
        lambda e: Word.of([(i, x) for i, x in enumerate(e)]),
        st.lists(st.integers(0, max_exp), min_size=3, max_size=3),
    )


def test_of_merges_and_drops_zeros():
    w = Word.of([(0, 1), (0, 2), (2, 0)])
    assert w.exps == ((0, 3),)
    assert Word.of([]).is_zero()


def test_degree_and_exponent():
    w = Word.of([(0, 2), (1, 1)])
    assert w.degree() == 3
    assert w.exps == ((0, 2), (1, 1))


def test_contains_sub_roundtrip():
    big = Word.of([(0, 3), (1, 1)])
    small = Word.of([(0, 1)])
    assert big.contains(small)
    assert big.sub(small).add(small) == big
    with pytest.raises(ValueError):
        small.sub(big)


# The word kernels as they were written first, through Word.of and a dict:
# add, contains and sub must agree with them on every pair of words.
def _add_by_of(u, v):
    return Word.of(list(u.exps) + list(v.exps))


def _contains_by_dict(u, v):
    mine = dict(u.exps)
    return all(mine.get(i, 0) >= e for i, e in v.exps)


def _sub_by_dict(u, v):
    mine = dict(u.exps)
    for i, e in v.exps:
        mine[i] = mine.get(i, 0) - e
        if mine[i] < 0:
            raise ValueError("word subtraction underflow")
    return Word(tuple(sorted((i, e) for i, e in mine.items() if e)))


# sparse words over eight generators, the empty word among them
_SPARSE = st.dictionaries(st.integers(0, 7), st.integers(0, 4), max_size=8).map(lambda d: Word.of(d.items()))


def _canonical(w):
    idxs = [i for i, _ in w.exps]
    return idxs == sorted(set(idxs)) and all(e > 0 for _, e in w.exps)


@given(_SPARSE, _SPARSE)
def test_kernels_match_the_word_of_round_trip(u, v):
    total = u.add(v)
    assert total == _add_by_of(u, v) and _canonical(total)
    assert u.contains(v) == _contains_by_dict(u, v)
    assert total.contains(u) and total.contains(v)
    for big, small in ((u, v), (total, u), (total, v)):
        if _contains_by_dict(big, small):
            diff = big.sub(small)
            assert diff == _sub_by_dict(big, small) and _canonical(diff)
            assert diff.add(small) == big
        else:
            with pytest.raises(ValueError, match="^word subtraction underflow$"):
                big.sub(small)


@given(_SPARSE)
def test_kernels_on_the_empty_word(w):
    zero = Word()
    # an empty operand gives the other one back, itself
    assert w.add(zero) is w and zero.add(w) is (zero if w.is_zero() else w)
    assert w.sub(zero) is w and w.sub(w) == zero
    assert w.contains(zero) and zero.contains(w) == w.is_zero()


def test_meet_and_subwords():
    u = Word.of([(0, 2), (1, 1)])
    v = Word.of([(0, 1), (2, 4)])
    assert u.meet(v) == Word.of([(0, 1)])
    subs = list(Word.of([(0, 1), (1, 1)]).subwords())
    assert len(subs) == 4
    assert Word() in subs


def test_subwords_in_lexicographic_order():
    subs = list(Word.of([(0, 1), (2, 2)]).subwords())
    assert [w.exps for w in subs] == [
        (), ((2, 1),), ((2, 2),), ((0, 1),), ((0, 1), (2, 1)), ((0, 1), (2, 2)),
    ]


@pytest.mark.parametrize("n, d", [(0, 0), (0, 5), (1, 4), (2, 3), (3, 0), (3, 3), (5, 2)])
def test_compositions_count_order_and_sums(n, d):
    got = list(compositions(n, d))
    assert len(got) == comb(n + d, d)  # so n = 0 yields exactly ()
    assert got == sorted(got) and len(set(got)) == len(got)
    assert all(len(t) == n and all(c >= 0 for c in t) and sum(t) <= d for t in got)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Word.of([(0, -1)])
    with pytest.raises(ValueError):
        Word.of([(0, 1)]).scale(-1)


def test_parse_term():
    w = parse_term("2*a + b", GENS)
    assert w == Word.of([(0, 2), (1, 1)])
    assert parse_term("0", GENS).is_zero()
    assert parse_term("a + a", GENS) == Word.of([(0, 2)])


def test_parse_term_errors():
    with pytest.raises(ParseError, match=r"^unknown generator 'd'$"):
        parse_term("2*d", GENS)
    with pytest.raises(ParseError, match=r"^empty summand in term$"):
        parse_term("a + + b", GENS)
    with pytest.raises(ParseError, match=r"^bad coefficient 'a'$"):
        parse_term("a*b", GENS)
    with pytest.raises(ParseError, match=r"^negative coefficient$"):
        parse_term("-1*a", GENS)
    with pytest.raises(ParseError, match=r"^line 4: unknown generator '2x'$") as err:
        parse_term("a + 2x", GENS, 4)
    assert err.value.line == 4


def _parse_by_split(text, gens, line=None):
    """Reference: the two-pass parser that scanned `gens.names` for each
    summand, collected (index, coefficient) pairs and merged them with
    Word.of."""
    text = text.strip()
    if text == "0" or text == "":
        return Word()
    pairs = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty summand in term", line)
        if "*" in chunk:
            coeff_s, _, name = chunk.partition("*")
            try:
                coeff = int(coeff_s.strip())
            except ValueError:
                raise ParseError(f"bad coefficient {coeff_s.strip()!r}", line) from None
            if coeff < 0:
                raise ParseError("negative coefficient", line)
            name = name.strip()
        else:
            m = re.match(r"^(\d+)\s+(\S+)$", chunk)
            if m:
                coeff, name = int(m.group(1)), m.group(2)
            else:
                coeff, name = 1, chunk
        if name not in gens.names:
            raise ParseError(f"unknown generator {name!r}", line)
        pairs.append((gens.names.index(name), coeff))
    return Word.of(pairs)


_WS = st.text(" \t", max_size=2)
_NAMES = st.sampled_from(GENS.names)
_COEFFS = st.integers(0, 12).map(str)


def _spaced(*parts):
    """Join the strategies' texts with random spaces and tabs around each."""
    return st.tuples(*(x for part in parts for x in (_WS, part)), _WS).map("".join)


_SUMMANDS = st.one_of(
    _spaced(_NAMES),
    _spaced(_COEFFS, st.just("*"), _NAMES),
    _spaced(st.just("0*"), _NAMES),
    st.tuples(_WS, _COEFFS, st.text(" \t", min_size=1, max_size=2), _NAMES, _WS).map("".join),
)
_BAD_SUMMANDS = st.one_of(
    _WS,  # an empty summand
    st.just("2x"),
    _spaced(st.just("-1*"), _NAMES),
    _spaced(st.sampled_from(["a", "", "1.5"]), st.just("*"), _NAMES),  # a*b: a bad coefficient
    _spaced(st.sampled_from(["d", "x0", "A", "3 d", "2*e", "1 a b"])),
)
_TERMS = st.one_of(
    st.lists(_SUMMANDS, min_size=1, max_size=5).map("+".join),
    st.lists(st.one_of(_SUMMANDS, _BAD_SUMMANDS), min_size=1, max_size=5).map("+".join),
    _spaced(st.sampled_from(["0", ""])),
)


@given(_TERMS, st.none() | st.integers(1, 50))
def test_parse_term_matches_the_split_parser(text, line):
    try:
        want = _parse_by_split(text, GENS, line)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_term(text, GENS, line)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        assert parse_term(text, GENS, line) == want


def test_generator_set_validation():
    with pytest.raises(ParseError):
        GeneratorSet(("x", "x"))
    with pytest.raises(ParseError):
        GeneratorSet(("1bad",))


def test_generator_set_lookups_and_identity():
    assert [GENS.index(n) for n in ("a", "b", "c")] == [0, 1, 2]
    assert "b" in GENS and "d" not in GENS
    with pytest.raises(ParseError, match=r"^unknown generator 'd'$"):
        GENS.index("d")
    # the name table is not part of equality, hashing or repr
    same = GeneratorSet(("a", "b", "c"))
    assert same == GENS and hash(same) == hash(GENS)
    assert repr(GENS) == "GeneratorSet(names=('a', 'b', 'c'))"


def test_format_roundtrip():
    w = Word.of([(0, 2), (2, 1)])
    assert parse_term(w.format(GENS), GENS) == w
    assert Word().format(GENS) == "0"


@given(words(), words())
def test_add_commutes(u, v):
    assert u.add(v) == v.add(u)


@given(words(), words(), words())
def test_add_associates(u, v, w):
    assert u.add(v).add(w) == u.add(v.add(w))


@given(words(), words())
def test_sum_contains_parts(u, v):
    s = u.add(v)
    assert s.contains(u) and s.sub(u) == v


# -- the shared refinement check and directive reader

# a + b = c + d under max: 1 + 1 = 1 + 0, refined by ((1, 0), (1, 0)); max is
# not cancellative, so each of the four sums can fail alone
_BAD_MATRICES = [
    (((0, 0), (1, 0)), "row 1 does not verify: 0 != 1"),
    (((1, 0), (0, 0)), "row 2 does not verify: 0 != 1"),
    (((0, 1), (0, 1)), "column 1 does not verify: 0 != 1"),
    (((1, 0), (1, 1)), "column 2 does not verify: 1 != 0"),
]


@pytest.mark.parametrize("matrix, message", _BAD_MATRICES, ids=[m.split(" does")[0] for _, m in _BAD_MATRICES])
def test_checked_refinement_names_the_sum_that_fails(matrix, message):
    with pytest.raises(AssertionError, match=f"^refinement {message}$"):
        checked_refinement(max, lambda *_: matrix, 1, 1, 1, 0)


def test_checked_refinement_returns_a_verified_matrix():
    good = ((1, 0), (1, 0))
    assert checked_refinement(max, lambda *_: good, 1, 1, 1, 0) is good
    solved = []
    with pytest.raises(ValueError, match=r"^precondition a \+ b = c \+ d does not hold$"):
        checked_refinement(max, lambda *e: solved.append(e), 1, 1, 0, 0)
    assert not solved  # the solver never sees a failed precondition


_CHAIN = primitive.validate_poset(["p", "q"], [("p", "p"), ("p", "q")])
_P, _Q = (primitive.normalize(_CHAIN, {x: 1}) for x in "pq")


@pytest.mark.parametrize(
    "refine, a, b, c, d",
    [
        (wild.ladder_refine, wild.LadderElem.x(0), wild.LadderElem.x(0), wild.LadderElem.y(0), wild.LadderElem.y(0)),
        (wild.bar_refine, wild.BarElem.ybar(), wild.BarElem.ybar(), wild.BarElem.zbar(), wild.BarElem.zbar()),
        (primitive.prim_refine, _P, _P, _Q, _Q),
    ],
    ids=["ladder", "bar", "primitive"],
)
def test_every_exact_calculator_rejects_a_failed_precondition(refine, a, b, c, d):
    with pytest.raises(ValueError, match=r"^precondition a \+ b = c \+ d does not hold$"):
        refine(a, b, c, d)


def test_free_oracle_verifies_its_matrix(monkeypatch):
    monkeypatch.setattr(primitive, "free_refine", lambda a, b, c, d: (a, b, c, d))
    o = oracles.free_oracle(2)
    e = {str(x): x for x in o.elements(1)}
    with pytest.raises(AssertionError, match=r"^refinement row 1 does not verify: e0 \+ e1 != e0$"):
        o.refine(e["e0"], e["e1"], e["e1"], e["e0"])


def test_directives_skip_comments_and_blanks():
    text = "monoid  M # name\n\n   # indented\n\tkey\nrelation a = b#c\n"
    assert list(directives(text)) == [(1, "monoid", "M"), (4, "key", ""), (5, "relation", "a = b")]


@pytest.mark.parametrize(
    "parse, head",
    [
        (parse_presentation, "monoid M\ngenerators a\n"),
        (primitive.parse_poset, "poset P\nprimes a\n"),
        (parse_graph, "graph G\nvertices a\n"),
    ],
    ids=["presentation", "poset", "graph"],
)
def test_parsers_count_comment_and_blank_lines(parse, head):
    text = "# a comment\n\n   # an indented comment\n" + head + "\n\t\nfrob x  # trailing\n"
    with pytest.raises(ParseError, match=r"^line 8: unknown directive 'frob'$") as err:
        parse(text)
    assert err.value.line == 8
