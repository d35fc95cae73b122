"""Prime-generated monoids with absorption relations."""
import random
from itertools import product

import pytest

from refmon.decisions import SearchBound
from refmon.primitive import (
    PrimePoset,
    elem_word,
    enumerate_elements,
    enumerate_posets,
    normalize,
    parse_poset,
    presentation_of,
    prim_add,
    prim_leq,
    prim_refine,
    prime_certificates,
    validate_poset,
)
from refmon.rewrite import ClassCache, decide_equal
from refmon.words import ParseError, Word, compositions

# p idempotent below q; r incomparable
CHAIN = validate_poset(["p", "q", "r"], [("p", "p"), ("p", "q")])


# -- validation


def test_poset_validation_errors():
    with pytest.raises(ValueError, match="duplicate prime"):
        validate_poset(["p", "p"], [])
    with pytest.raises(ValueError, match="unknown prime"):
        validate_poset(["p"], [("p", "q")])
    with pytest.raises(ValueError, match="antisymmetry violated by pair"):
        validate_poset(["p", "q"], [("p", "q"), ("q", "p")])
    with pytest.raises(ValueError, match="transitivity violated by triple"):
        validate_poset(["p", "q", "r"], [("p", "q"), ("q", "r")])


def test_poset_accessors():
    assert CHAIN.lt("p", "q")
    assert not CHAIN.lt("q", "p")
    assert CHAIN.idempotent("p")
    assert not CHAIN.idempotent("q")
    # the constructor's tables, outside the tuple
    assert CHAIN.above == {"p": frozenset({"q"})}
    assert CHAIN.idempotents == frozenset({"p"})
    assert tuple(CHAIN) == (CHAIN.primes, CHAIN.below)
    assert validate_poset(["p", "q"], []).above == {}


# -- canonical forms


def test_normalize_drops_absorbed_and_caps_idempotents():
    e = normalize(CHAIN, {"p": 3, "q": 2})
    assert e.coeffs == (("q", 2),)
    e2 = normalize(CHAIN, {"p": 5})
    assert e2.coeffs == (("p", 1),)
    e3 = normalize(CHAIN, {"r": 2, "p": 1})
    assert e3.coeffs == (("p", 1), ("r", 2))


def test_add_and_equal():
    p1 = normalize(CHAIN, {"p": 1})
    q1 = normalize(CHAIN, {"q": 1})
    assert prim_add(p1, q1) == q1
    assert prim_add(p1, p1) == p1
    other = validate_poset(["p"], [])
    with pytest.raises(ValueError, match="poset mismatch"):
        prim_add(p1, normalize(other, {"p": 1}))


def test_normalize_agrees_with_oracle_exhaustively():
    """Every canonical-form identification is confirmed by the rewriting
    oracle on the exported presentation, and distinct canonical forms are
    separated by it (exhaustive at small degree)."""
    p = presentation_of(CHAIN)
    b = SearchBound(max_degree=8)
    cache = ClassCache(p, b)
    certs = tuple(prime_certificates(CHAIN).values())
    E = enumerate_elements(CHAIN, 3)
    raws = []
    for cp in range(3):
        for cq in range(3):
            for cr in range(3):
                raws.append({"p": cp, "q": cq, "r": cr})
    gi = {nm: ix for ix, nm in enumerate(CHAIN.primes)}
    for raw in raws:
        e = normalize(CHAIN, raw)
        w_raw = Word.of([(gi[nm], c) for nm, c in raw.items()])
        dec = decide_equal(p, w_raw, elem_word(e), b, certs, cache)
        assert dec.is_holds, raw
    for e1 in E:
        for e2 in E:
            dec = decide_equal(p, elem_word(e1), elem_word(e2), b, certs, cache)
            assert not dec.is_unknown
            assert dec.is_holds == (e1 == e2), (e1, e2)


def test_order_antisymmetric_on_samples():
    rng = random.Random(53)
    E = enumerate_elements(CHAIN, 4)
    for _ in range(150):
        e1, e2 = rng.choice(E), rng.choice(E)
        if prim_leq(e1, e2) is not None and prim_leq(e2, e1) is not None:
            assert e1 == e2, (e1, e2)


def test_leq_witness_adds_up():
    rng = random.Random(59)
    E = enumerate_elements(CHAIN, 4)
    for _ in range(150):
        e1, e2 = rng.choice(E), rng.choice(E)
        c = prim_leq(e1, e2)
        if c is not None:
            assert prim_add(e1, c) == e2
        assert prim_leq(e1, prim_add(e1, e2)) is not None


def test_leq_examples():
    p1 = normalize(CHAIN, {"p": 1})
    q1 = normalize(CHAIN, {"q": 1})
    r1 = normalize(CHAIN, {"r": 1})
    assert prim_leq(p1, q1) is not None  # p + q = q
    assert prim_leq(q1, p1) is None
    assert prim_leq(r1, q1) is None  # incomparable primes never absorb


# -- closed-form refinement


def test_refine_every_equation_on_every_small_poset():
    """prim_refine answers, and verifies, every equation a + b = c + d among
    the elements of degree <= 2 over every poset of one to three primes."""
    equations = 0
    for names in (["p"], ["p", "q"], ["p", "q", "r"]):
        for poset in enumerate_posets(names):
            E = enumerate_elements(poset, 2)
            by_sum = {}
            for a in E:
                for b in E:
                    by_sum.setdefault(prim_add(a, b).coeffs, []).append((a, b))
            for pairs in by_sum.values():
                for a, b in pairs:
                    for c, d in pairs:
                        prim_refine(a, b, c, d)  # raises unless all four sums verify
                equations += len(pairs) ** 2
    assert equations == 42025
    # in the chain p < q < r, q + 2p = q + 0 refines only as ((q, 0), (2p, 0)):
    # z21 = 2p is not the complement 0 of z11 = q <= q
    chain = validate_poset(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")])
    p, q, zero = (normalize(chain, raw) for raw in ({"p": 1}, {"q": 1}, {}))
    two_p = prim_add(p, p)
    assert prim_refine(q, two_p, q, zero) == ((q, zero), (two_p, zero))


def test_refine_precondition():
    p, q = (normalize(CHAIN, {name: 1}) for name in "pq")
    with pytest.raises(ValueError, match="precondition"):
        prim_refine(p, p, q, q)


# -- the closed-form order against the complement search it replaced


def _leq_by_search(e1, e2):
    """Reference: the first raw complement in lexicographic order over the
    primes, with every coefficient at most max(c2) + 1."""
    poset = e1.poset
    cap = max([c for _, c in e2.coeffs], default=0) + 1
    for cs in product(range(cap + 1), repeat=len(poset.primes)):
        cand = normalize(poset, zip(poset.primes, cs))
        if prim_add(e1, cand) == e2:
            return cand
    return None


def _assert_same_complement(e1, e2):
    got, want = prim_leq(e1, e2), _leq_by_search(e1, e2)
    assert (got is None) == (want is None), (e1, e2, got, want)
    if want is not None:
        assert got.coeffs == want.coeffs, (e1, e2, got, want)


def test_leq_matches_search_on_every_small_poset():
    pairs = 0
    for names in (["p"], ["p", "q"], ["p", "q", "r"]):
        for poset in enumerate_posets(names):
            E = enumerate_elements(poset, 2)
            for e1 in E:
                for e2 in E:
                    _assert_same_complement(e1, e2)
            pairs += len(E) ** 2
    assert pairs == 7119


def test_leq_matches_search_on_large_coefficients():
    """Coefficients up to 8, so the search's cap of max(c2) + 1 matters;
    every other pair is ordered by construction."""
    rng = random.Random(67)
    posets = enumerate_posets(["p", "q", "r"])

    def draw(poset):
        return normalize(poset, {x: rng.randint(0, 8) for x in poset.primes if rng.random() < 0.6})

    for k in range(200):
        poset = rng.choice(posets)
        e1 = draw(poset)
        e2 = prim_add(e1, draw(poset)) if k % 2 else draw(poset)
        _assert_same_complement(e1, e2)


def test_leq_complement_skips_idempotents_already_present():
    """p idempotent below q, r free (CHAIN): an idempotent prime that e1
    already has is left out of the complement; one it lacks is added once."""
    e = lambda **cs: normalize(CHAIN, cs)  # noqa: E731
    cases = [
        (e(p=1), e(p=1), e()),
        (e(p=1), e(p=1, r=1), e(r=1)),
        (e(p=1, r=1), e(p=1, r=3), e(r=2)),
        (e(r=1), e(p=1, r=1), e(p=1)),
        (e(p=1), e(q=2), e(q=2)),
        (e(p=1, r=1), e(q=1, r=1), e(q=1)),
        (e(q=1), e(p=1), None),
        (e(p=1, r=1), e(q=1), None),
        (e(r=2), e(p=1, r=1), None),
    ]
    # q idempotent too, with p below it: q absorbs p, and e1 = q needs nothing
    both = validate_poset(["p", "q"], [("p", "p"), ("q", "q"), ("p", "q")])
    f = lambda **cs: normalize(both, cs)  # noqa: E731
    cases += [
        (f(q=1), f(q=1), f()),
        (f(p=1), f(q=1), f(q=1)),
        (f(p=1), f(p=1), f()),
        (f(q=1), f(p=1), None),
    ]
    for e1, e2, want in cases:
        got = prim_leq(e1, e2)
        assert (None if got is None else got.coeffs) == (None if want is None else want.coeffs), (e1, e2)
        _assert_same_complement(e1, e2)


# -- the table-driven kernels against the pairwise kernels they replaced


def _normalize_pairwise(poset, raw):
    """The coefficients of `normalize` as first written: one `poset.lt` test
    per ordered pair of supported primes."""
    raw = dict(raw)
    support = {p for p, c in raw.items() if c}
    kept = {}
    for p in support:
        if any(q != p and poset.lt(p, q) for q in support):
            continue
        kept[p] = 1 if poset.idempotent(p) else raw[p]
    return tuple(sorted(kept.items()))


def _leq_pairwise(e1, e2):
    """The coefficients of `prim_leq` as first written, testing membership
    in `below` pair by pair; None when e1 is not below e2."""
    below = e1.poset.below
    c1, top = dict(e1.coeffs), dict(e2.coeffs)
    for p in c1:
        if p not in top and not any((p, q) in below for q in top):
            return None
    comp = []
    for q, c in e2.coeffs:
        if (q, q) in below:
            if q not in c1:
                comp.append((q, 1))
        else:
            d = c - c1.get(q, 0)
            if d < 0:
                return None
            if d:
                comp.append((q, d))
    return tuple(comp)


def test_table_kernels_match_the_pairwise_kernels():
    """normalize on every raw vector of degree <= 3, and prim_add and
    prim_leq on every pair of elements of degree <= 2, over every poset on
    at most three primes."""
    pairs = 0
    for names in ([], ["p"], ["p", "q"], ["p", "q", "r"]):
        for poset in enumerate_posets(names):
            for t in compositions(len(names), 3):
                raw = dict(zip(names, t))
                assert normalize(poset, raw).coeffs == _normalize_pairwise(poset, raw), (poset, raw)
            E = enumerate_elements(poset, 2)
            for e1 in E:
                for e2 in E:
                    raw = {p: dict(e1.coeffs).get(p, 0) + dict(e2.coeffs).get(p, 0) for p in names}
                    assert prim_add(e1, e2).coeffs == _normalize_pairwise(poset, raw), (e1, e2)
                    got = prim_leq(e1, e2)
                    assert (None if got is None else got.coeffs) == _leq_pairwise(e1, e2), (e1, e2)
            pairs += len(E) ** 2
    assert pairs == 7120


# -- certificates


def test_prime_certificates_separate():
    certs = prime_certificates(CHAIN)
    assert set(certs) == {"count_p", "count_q", "count_r"}
    p = presentation_of(CHAIN)
    E = enumerate_elements(CHAIN, 4)
    keys = {}
    for e in E:
        key = tuple(repr(h.apply(elem_word(e))) for h in certs.values())
        assert key not in keys or keys[key] == e
        keys[key] = e
    assert len(keys) == len(E)


def test_certificate_values():
    certs = prime_certificates(CHAIN)
    from refmon.targets import INF

    w = elem_word(normalize(CHAIN, {"q": 2}))
    assert certs["count_q"].apply(w) == 2
    assert certs["count_p"].apply(w) is INF  # q absorbs p
    assert certs["count_r"].apply(w) == 0
    wp = elem_word(normalize(CHAIN, {"p": 1}))
    assert certs["count_p"].apply(wp) is INF  # p idempotent


# -- enumeration


def test_enumerate_elements_small():
    flat = validate_poset(["a", "b"], [])
    E = enumerate_elements(flat, 2)
    # free commutative monoid on two generators: degree <= 2 gives 6 elements
    assert len(E) == 6


def test_enumerate_posets_count():
    # 19 partial-order-like relations on 3 labels times 2^3 idempotent choices
    assert len(enumerate_posets(["a", "b", "c"])) == 152
    assert len(enumerate_posets(["a"])) == 2


# -- file format


POSET_TEXT = """\
# a chain with an idempotent bottom
poset P
primes p q r
below p p
below p q
"""


def test_parse_format_roundtrip():
    poset = parse_poset(POSET_TEXT)
    assert poset == CHAIN
    # the poset written back in the file format, with no comment or name line
    text = "primes " + " ".join(poset.primes) + "\n" + "".join(f"below {e} {f}\n" for e, f in sorted(poset.below))
    assert parse_poset(text) == poset


def test_parse_poset_errors():
    with pytest.raises(ParseError, match="no primes"):
        parse_poset("poset P\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_poset("poset P\nprimes p\nbelow p\n")
    with pytest.raises(ParseError, match="^line 1: missing poset name$"):
        parse_poset("poset\nprimes p\n")
    with pytest.raises(ParseError, match="^line 3: duplicate poset line$"):
        parse_poset("poset P\nprimes p\nposet Q\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_poset("primes p\nfrobnicate\n")
    with pytest.raises(ParseError, match="antisymmetry"):
        parse_poset("primes p q\nbelow p q\nbelow q p\n")
