from math import comb

import pytest
from hypothesis import given, strategies as st

from refmon.words import GeneratorSet, ParseError, Word, compositions, parse_term

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
    with pytest.raises(ParseError):
        parse_term("2*d", GENS)
    with pytest.raises(ParseError):
        parse_term("a + + b", GENS)
    with pytest.raises(ParseError):
        parse_term("-1*a", GENS)


def test_generator_set_validation():
    with pytest.raises(ParseError):
        GeneratorSet(("x", "x"))
    with pytest.raises(ParseError):
        GeneratorSet(("1bad",))


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
