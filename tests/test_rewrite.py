import pytest
from hypothesis import given, settings, strategies as st

from refmon import rewrite
from refmon.decisions import SearchBound
from refmon.presentation import parse_presentation
from refmon.rewrite import (
    ClassCache,
    decide_equal,
    decide_leq,
    enumerate_class,
    find_refinement,
    verify_refinement,
)
from refmon.targets import NonnegIntegers, build_certificate
from refmon.wild import m0_presentation, standard_certificates, truncation_presentation
from refmon.words import Word

B = SearchBound(max_degree=6)

FREE = parse_presentation("monoid F\ngenerators a b\n")
ABSORB = parse_presentation("monoid A\ngenerators e f\nrelation e + f = f\n")
M0 = m0_presentation()
# one class a = b = c = d = e, reached along a chain of single moves
CHAIN = parse_presentation(
    "monoid C\ngenerators a b c d e\n"
    "relation a = b\nrelation b = c\nrelation c = d\nrelation d = e\n"
)


def test_free_class_is_singleton():
    res = enumerate_class(FREE, FREE.word("2*a + b"), B)
    assert res.words == {FREE.word("2*a + b")}
    assert res.exhausted


def test_class_enumeration_absorbing():
    res = enumerate_class(ABSORB, ABSORB.word("e + f"), B)
    # e+f = f = 2e+f = ... capped by degree
    assert ABSORB.word("f") in res.words
    assert ABSORB.word("4*e + f") in res.words
    assert not res.exhausted  # 6*e + f exceeds the degree cap


def test_class_above_degree_255():
    # exponents above 255 do not fit the search's byte vectors
    b = SearchBound(max_degree=300)
    res = enumerate_class(ABSORB, ABSORB.word("f"), b)
    assert len(res.words) == 300 and ABSORB.word("299*e + f") in res.words
    assert not res.exhausted
    dec = decide_equal(ABSORB, ABSORB.word("f"), ABSORB.word("299*e + f"), b)
    assert dec.is_holds and len(dec.witness) == 300


def test_decide_equal_path_witness():
    dec = decide_equal(M0, M0.word("x0 + y0"), M0.word("x0 + z0"), B)
    assert dec.is_holds
    path = dec.witness
    assert path[0] == M0.word("x0 + y0") and path[-1] == M0.word("x0 + z0")


def test_decide_equal_fails_exhausted():
    dec = decide_equal(M0, M0.word("y0"), M0.word("z0"), B)
    assert dec.is_fails


def test_decide_equal_unknown_above_degree_cap():
    small = SearchBound(max_degree=2)
    dec = decide_equal(ABSORB, ABSORB.word("e + f"), ABSORB.word("2*e + f"), small)
    assert dec.is_unknown


def test_decide_equal_certificate_separation():
    # counting b's is invariant in the free monoid
    cert = build_certificate(FREE, NonnegIntegers(), {"a": 0, "b": 1}, "bcount")
    dec = decide_equal(FREE, FREE.word("a"), FREE.word("b"), B, certs=[cert])
    assert dec.is_fails
    assert dec.counterexample["certificate"] == "bcount"


def test_certificate_wrong_presentation_rejected():
    cert = build_certificate(FREE, NonnegIntegers(), {"a": 0, "b": 1}, "bcount")
    with pytest.raises(ValueError):
        decide_equal(M0, M0.word("x0"), M0.word("y0"), B, certs=[cert])


@pytest.mark.parametrize(
    "ask",
    [
        lambda p, u, v, certs: decide_equal(p, u, v, B, certs),
        lambda p, u, v, certs: find_refinement(p, u, p.word("0"), v, p.word("0"), B, certs),
    ],
    ids=["decide_equal", "find_refinement"],
)
def test_certificate_over_other_relations_rejected(ask):
    """A certificate must come from the presentation itself, not from one
    with the same generator names: the level-1 ladder certificates do not
    respect y0 = z0, and yz_split would separate what the relation joins."""
    certs = tuple(standard_certificates(1).values())
    p2 = parse_presentation(truncation_presentation(1).format() + "relation y0 = z0\n")
    assert ask(p2, p2.word("y0"), p2.word("z0"), ()).is_holds
    with pytest.raises(ValueError, match="^certificate over wrong presentation$"):
        ask(p2, p2.word("y0"), p2.word("z0"), certs)
    # an equal presentation built anew is the same presentation
    p1 = parse_presentation(truncation_presentation(1).format())
    assert p1 is not truncation_presentation(1)
    dec = decide_equal(p1, p1.word("y0"), p1.word("z0"), B, certs)
    assert dec.counterexample["certificate"] == "yz_split"


def test_decision_not_boolean():
    dec = decide_equal(M0, M0.word("x0"), M0.word("x0"), B)
    with pytest.raises(TypeError):
        bool(dec)


def test_decide_leq():
    dec = decide_leq(M0, M0.word("y0"), M0.word("x0 + z0"), B)
    assert dec.is_holds
    assert dec.witness == M0.word("x0")  # x0+z0 rewrites to x0+y0
    assert decide_leq(M0, M0.word("2*y0"), M0.word("y0"), B).is_fails


def test_leq_zero_always_holds():
    for w in ("0", "x0", "2*z0"):
        assert decide_leq(M0, M0.word("0"), M0.word(w), B).is_holds


def test_find_refinement_free_case():
    dec = find_refinement(FREE, FREE.word("a"), FREE.word("b"), FREE.word("b"), FREE.word("a"), B)
    assert dec.is_holds
    (z11, z12), (z21, z22) = dec.witness
    assert z11.is_zero() and z22.is_zero()


def test_find_refinement_m0_failure():
    dec = find_refinement(M0, M0.word("x0"), M0.word("y0"), M0.word("x0"), M0.word("z0"), SearchBound(max_degree=4))
    assert dec.is_fails


def test_find_refinement_precondition():
    with pytest.raises(ValueError):
        find_refinement(M0, M0.word("x0"), M0.word("0"), M0.word("y0"), M0.word("0"), B)


def test_verify_refinement_rejects_bad_matrix():
    matrix = ((FREE.word("a"), FREE.word("0")), (FREE.word("0"), FREE.word("a")))
    dec = verify_refinement(FREE, matrix, FREE.word("a"), FREE.word("a"), FREE.word("a"), FREE.word("b"), B)
    assert dec.is_fails


def test_cache_reuse():
    cache = ClassCache(M0, B)
    r1 = cache.get(M0.word("x0 + y0"))
    r2 = cache.get(M0.word("x0 + y0"))
    assert r1 is r2


def assert_rewrite_path(p, path, u, v):
    """path runs from u to v, and each step replaces one side of one relation
    by the other side."""
    assert path[0] == u and path[-1] == v
    moves = [(r.lhs, r.rhs) for r in p.relations] + [(r.rhs, r.lhs) for r in p.relations]
    for x, y in zip(path, path[1:]):
        assert any(x.contains(src) and x.sub(src).add(dst) == y for src, dst in moves), (x, y)


PRESENTATIONS = {
    "m0": M0,
    "ladder:2": truncation_presentation(2, "ladder"),
    "bar:2": truncation_presentation(2, "bar"),
    "free:2": FREE,
}


@st.composite
def words_and_bounds(draw):
    p = PRESENTATIONS[draw(st.sampled_from(sorted(PRESENTATIONS)))]
    max_degree = draw(st.integers(2, 5))
    # relation sides make words that some move applies to; a few words lie
    # above the degree bound
    sides = [s for r in p.relations for s in (r.lhs, r.rhs)] + [Word.of([(i, 1)]) for i in range(len(p.gens))]
    w = Word()
    for s in draw(st.lists(st.sampled_from(sides), min_size=1, max_size=3)):
        w = w.add(s)
    return p, w, SearchBound(max_degree=max_degree)


@settings(max_examples=100, deadline=None)
@given(words_and_bounds())
def test_uncapped_class_is_the_same_from_every_member(case):
    p, w, b = case
    res = enumerate_class(p, w, b)
    assert len(res.words) < b.max_class_size  # the size cap did not fire
    for x in res.words:
        again = enumerate_class(p, x, b)
        assert again.words == res.words and again.exhausted == res.exhausted
        assert_rewrite_path(p, rewrite._path_to(res, x), w, x)


def counting_enumerations(monkeypatch):
    calls = []
    real = rewrite.enumerate_class

    def counted(p, w, b):
        calls.append(w)
        return real(p, w, b)

    monkeypatch.setattr(rewrite, "enumerate_class", counted)
    return calls


def test_cache_shares_an_uncapped_class_among_its_members(monkeypatch):
    calls = counting_enumerations(monkeypatch)
    p = PRESENTATIONS["ladder:2"]
    cache = ClassCache(p, B)
    res = cache.get(p.word("x0 + y0"))
    assert 1 < len(res.words) < B.max_class_size
    assert all(cache.get(x) is res for x in res.words)
    assert len(calls) == 1


def test_cache_does_not_share_a_capped_class(monkeypatch):
    calls = counting_enumerations(monkeypatch)
    cache = ClassCache(CHAIN, SearchBound(max_class_size=3))
    res = cache.get(CHAIN.word("a"))
    assert res.words == {CHAIN.word("a"), CHAIN.word("b"), CHAIN.word("c")}
    assert not res.exhausted
    other = cache.get(CHAIN.word("b"))
    assert other is not res and other.root == CHAIN.word("b")
    assert cache.get(CHAIN.word("a")) is res
    assert len(calls) == 2


def test_capped_class_keeps_the_first_words_in_sort_key_order():
    # from c the search finds b before a, but the round that overflows the
    # cap runs its frontier in Word.sort_key order, so a's move to x is kept
    p = parse_presentation(
        "monoid S\ngenerators a b c x y\n"
        "relation c = b\nrelation c = a\nrelation b = y\nrelation a = x\n"
    )
    res = enumerate_class(p, p.word("c"), SearchBound(max_class_size=4))
    assert res.words == {p.word(t) for t in "cbax"}
    assert not res.exhausted


def test_path_between_members_that_are_not_the_root():
    p = PRESENTATIONS["ladder:2"]
    cache = ClassCache(p, B)
    root = p.word("x0 + y0")
    res = cache.get(root)
    far = [x for x in sorted(res.words, key=Word.sort_key) if len(rewrite._path_to(res, x)) > 2]
    u, v = far[0], far[-1]
    assert root not in (u, v)
    dec = decide_equal(p, u, v, B, cache=cache)
    assert dec.is_holds and dec.note == "rewrite path"
    assert_rewrite_path(p, dec.witness, u, v)
    assert cache.get(u) is res  # no new enumeration rooted at u


def test_path_via_common_word_when_the_cap_fires():
    b = SearchBound(max_class_size=3)
    u, v = CHAIN.word("a"), CHAIN.word("e")
    dec = decide_equal(CHAIN, u, v, b)
    assert dec.is_holds and dec.note == "rewrite path via common word"
    assert_rewrite_path(CHAIN, dec.witness, u, v)
    assert dec.witness == [CHAIN.word(t) for t in "abcde"]
