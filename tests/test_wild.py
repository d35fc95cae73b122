"""Exact ladder-monoid arithmetic, validated against the rewriting oracle."""
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from refmon import wild
from refmon.decisions import SearchBound
from refmon.rewrite import ClassCache, decide_equal, decide_leq
from refmon.wild import BarElem, Ideal, LadderElem

X0, Y0, Z0 = LadderElem.x(0), LadderElem.y(0), LadderElem.z(0)
U = LadderElem.unit()


def ladder_elems(max_level=2, max_coeff=3):
    def build(n, m, i, j, ks):
        return LadderElem.make(n, m, i, j, tuple(ks[:n]))

    return st.builds(
        build,
        st.integers(0, max_level),
        st.integers(0, max_coeff),
        st.integers(0, max_coeff),
        st.integers(0, max_coeff),
        st.lists(st.integers(0, max_coeff), min_size=max_level, max_size=max_level),
    )


# -- canonical forms and raising


def test_constructors_and_zero():
    assert LadderElem.zero().is_zero()
    assert LadderElem.a(1).degree() == 1
    with pytest.raises(ValueError):
        LadderElem.a(0)
    with pytest.raises(ValueError):
        LadderElem(1, 0, 0, 0, ())  # rung length mismatch


def test_canonical_lowers_raised_forms():
    # x1 + y1 is x0's one-step raise, so it must normalize back to level 0
    assert LadderElem.make(1, 1, 1, 0, (0,)) == X0
    assert LadderElem.make(1, 0, 1, 0, (1,)) == Y0
    assert LadderElem.make(1, 0, 0, 1, (1,)) == Z0


def test_canonical_folds_j_when_x_present():
    e = LadderElem.make(0, 1, 0, 1)
    assert (e.m, e.i, e.j) == (1, 1, 0)
    assert e.equal(LadderElem.make(0, 1, 1, 0))


def test_raising_closed_form_examples():
    # y0 at level 2 is y2 + a1 + a2; x0 at level 2 is x2 + 2*y2 + a2
    assert Y0.raised(2) == (0, 1, 0, (1, 1))
    assert X0.raised(2) == (1, 2, 0, (0, 1))
    assert X0.raised(0) == (1, 0, 0, ())
    with pytest.raises(ValueError):
        LadderElem.a(2).raised(1)


@given(ladder_elems())
def test_raised_at_own_level_is_the_stored_form(e):
    assert e.raised(e.level) == (e.m, e.i, e.j, e.rungs)
    m, i, j, rungs = e.raised(e.level + 1)
    assert (m, i, j, rungs) == (e.m, e.m + e.i, e.j, e.rungs + (e.i + e.j,))
    if e.level:
        with pytest.raises(ValueError, match="below stored level"):
            e.raised(e.level - 1)


def test_order_unit_representation():
    # u = x_n + (n+1) y_n + sum l*a_l
    for n in range(5):
        m, i, j, k = U.raised(n)
        assert (m, i + j) == (1, n + 1)
        assert k == tuple(range(1, n + 1))
    assert U.equal(wild.parse_elem("x2 + 3*y2 + a1 + 2*a2"))


def test_equality_law():
    assert X0.add(Y0).equal(X0.add(Z0))
    assert not Y0.equal(Z0)
    assert not X0.add(Y0).equal(X0.add(Y0).add(Y0))


@given(ladder_elems())
def test_canonical_form_is_stable(e):
    again = LadderElem.make(e.level, e.m, e.i, e.j, e.rungs)
    assert again == e


@given(ladder_elems(), st.integers(0, 3))
def test_level_invariance(e, extra):
    m, i, j, k = e.raised(e.level + extra)
    assert LadderElem.make(e.level + extra, m, i, j, k) == e


@given(ladder_elems(), ladder_elems())
def test_equal_iff_identical_canonical(e1, e2):
    assert e1.equal(e2) == (e1 == e2)


@given(ladder_elems(), ladder_elems(), ladder_elems())
def test_add_monoid_laws(e1, e2, e3):
    assert e1.add(e2) == e2.add(e1)
    assert e1.add(e2).add(e3) == e1.add(e2.add(e3))
    assert e1.add(LadderElem.zero()) == e1


@given(ladder_elems(), st.integers(0, 4))
def test_scale_is_iterated_add(e, c):
    acc = LadderElem.zero()
    for _ in range(c):
        acc = acc.add(e)
    assert e.scale(c) == acc


# -- order


def test_order_unit_bounds_each_rung():
    for n in range(1, 11):
        an = LadderElem.a(n)
        assert an.scale(n).leq(U) is not None
        assert an.scale(n + 1).leq(U) is None


def test_every_nonzero_element_dominates_a_deep_rung():
    b = wild.parse_elem("x3 + y3")
    assert LadderElem.a(5).leq(b) is not None


@given(ladder_elems(), ladder_elems())
def test_leq_witness_adds_up(e1, e2):
    c = e1.leq(e2)
    if c is not None:
        assert e1.add(c).equal(e2)


@given(ladder_elems(), ladder_elems())
def test_leq_consistent_with_add(e1, e2):
    assert e1.leq(e1.add(e2)) is not None


@given(ladder_elems(), ladder_elems(), ladder_elems())
def test_leq_transitive(e1, e2, e3):
    if e1.leq(e2) is not None and e2.leq(e3) is not None:
        assert e1.leq(e3) is not None


def test_leq_complete_against_complement_search():
    """Sampled no-instances of the derived order criterion are confirmed by
    brute complement search over a generous pool."""
    rng = random.Random(7)
    E = wild.enumerate_ladder(2, 3)
    # a complement, when one exists, appears at the common level 2; raising
    # e2 there can reach degree 12 (e.g. 3*x0), so the pool must go that far
    pool = wild.enumerate_ladder(2, 12)
    for _ in range(120):
        e1, e2 = rng.choice(E), rng.choice(E)
        has = e1.leq(e2) is not None
        found = any(e1.add(c).equal(e2) for c in pool)
        assert has == found, (e1, e2)


def _ref_raised(e, target):
    """Raising as first written: a list of rungs grown one level at a time."""
    m, i, j = e.m, e.i, e.j
    rungs = list(e.rungs)
    for _ in range(target - e.level):
        rungs.append(i + j)
        i = m + i
    return m, i, j, tuple(rungs)


def _ref_add(e1, e2):
    n = max(e1.level, e2.level)
    m1, i1, j1, k1 = _ref_raised(e1, n)
    m2, i2, j2, k2 = _ref_raised(e2, n)
    return LadderElem.make(n, m1 + m2, i1 + i2, j1 + j2, tuple(p + q for p, q in zip(k1, k2)))


def _ref_leq(e1, e2):
    """The order criterion as first written: raise both sides, then compare."""
    n = max(e1.level, e2.level)
    m1, i1, j1, k1 = _ref_raised(e1, n)
    m2, i2, j2, k2 = _ref_raised(e2, n)
    if any(p > q for p, q in zip(k1, k2)):
        return None
    dk = tuple(q - p for p, q in zip(k1, k2))
    if m2 == 0:
        if m1 == 0 and i1 <= i2 and j1 <= j2:
            return LadderElem.make(n, 0, i2 - i1, j2 - j1, dk)
        return None
    if m1 <= m2 and i1 + j1 <= i2 + j2:
        return LadderElem.make(n, m2 - m1, i2 + j2 - i1 - j1, 0, dk)
    return None


@pytest.mark.parametrize("c", [1, 2, 3])
def test_leq_and_add_match_reference_on_every_pair(c):
    """Every pair of enumerate_ladder(2, 4), and of its c-fold multiples (the
    pairs the unperforated sweep sends), gets the reference's verdict and
    complement, and the reference's sum."""
    E = [e.scale(c) for e in wild.enumerate_ladder(2, 4)]
    for e1 in E:
        for e2 in E:
            assert e1.leq(e2) == _ref_leq(e1, e2), (e1, e2)
            assert e1.add(e2) == _ref_add(e1, e2), (e1, e2)


def _ref_equal(e1, e2):
    """Equality as first written: raise both sides, then compare."""
    n = max(e1.level, e2.level)
    m1, i1, j1, k1 = _ref_raised(e1, n)
    m2, i2, j2, k2 = _ref_raised(e2, n)
    if m1 != m2 or k1 != k2:
        return False
    if m1 == 0:
        return i1 == i2 and j1 == j2
    return i1 + j1 == i2 + j2


@pytest.mark.parametrize("c", [1, 2, 3])
def test_kernels_match_reference_with_raw_operands(c):
    """The c-fold multiples of enumerate_ladder(3, 4), each given by its raw
    fields at level 4, construct to their canonical forms, at levels 0 to 3.
    Every pair of them gets the reference's equality, order and sum, so `==`
    is checked against raise-and-compare and the raising of either operand
    is exercised."""
    canonical = [e.scale(c) for e in wild.enumerate_ladder(3, 4)]
    E = [LadderElem(4, *e.raised(4)) for e in canonical]
    assert E == canonical and {e.level for e in E} == {0, 1, 2, 3}
    for e1 in E:
        for e2 in E:
            assert e1.equal(e2) == _ref_equal(e1, e2), (e1, e2)
            assert e1.leq(e2) == _ref_leq(e1, e2), (e1, e2)
            assert e1.add(e2) == _ref_add(e1, e2), (e1, e2)


# -- refinement


def test_refine_mixing_equation():
    m = wild.ladder_refine(X0, Y0, X0, Z0)
    assert m == ((LadderElem.x(1), LadderElem.z(1)), (LadderElem.y(1), LadderElem.a(1)))


def test_refine_diagonal_and_split():
    a1 = LadderElem.a(1)
    m = wild.ladder_refine(U, a1, U, a1)
    assert m == ((U, LadderElem.zero()), (LadderElem.zero(), a1))
    m2 = wild.ladder_refine(U, LadderElem.zero(), X0, Y0)
    assert m2 == ((X0, Y0), (LadderElem.zero(), LadderElem.zero()))


def test_refine_precondition():
    with pytest.raises(ValueError):
        wild.ladder_refine(X0, X0, Y0, Y0)


def _ref_ladder_refine(a, b, c, d):
    """ladder_refine as first written, before the shared refinement scheme."""
    if not a.add(b).equal(c.add(d)):
        raise ValueError("precondition a + b = c + d does not hold")
    zero = LadderElem.zero()
    if a.equal(c) and b.equal(d):
        return ((a, zero), (zero, b))
    if a.equal(d) and b.equal(c):
        return ((zero, a), (b, zero))
    n = max(e.level for e in (a, b, c, d))
    while True:
        raws = [e.raised(n) for e in (a, b, c, d)]
        triples = [(m, i, j) if m == 0 else (m, i + j, 0) for m, i, j, _ in raws]
        extra, mat = wild._refine_triples(*triples)
        if extra == 0:
            break
        n += extra
    kvecs = [r[3] for r in raws]
    kmat = [[None, None], [None, None]]
    for l in range(n):
        u1, u2, v1 = kvecs[0][l], kvecs[1][l], kvecs[2][l]
        z11 = min(u1, v1)
        z12, z21, z22 = u1 - z11, v1 - z11, u2 - (v1 - z11)
        for slot, val in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (z11, z12, z21, z22)):
            row, col = slot
            cur = kmat[row][col] or ()
            kmat[row][col] = cur + (val,)
    entries = []
    for s in range(4):
        row, col = divmod(s, 2)
        m, i, j = mat[s]
        entries.append(LadderElem.make(n, m, i, j, kmat[row][col] or (0,) * n))
    matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
    return matrix


def _ref_bar_refine(a, b, c, d):
    """bar_refine as first written, before the shared refinement scheme."""
    if not a.add(b).equal(c.add(d)):
        raise ValueError("precondition a + b = c + d does not hold")
    zero = BarElem.zero()
    if a.equal(c) and b.equal(d):
        return ((a, zero), (zero, b))
    if a.equal(d) and b.equal(c):
        return ((zero, a), (b, zero))
    n = max(e.level for e in (a, b, c, d))
    while True:
        raised = [e.raised(n) for e in (a, b, c, d)]
        triples = [(k, i, j) if k == 0 else (k, i + j, 0) for i, j, k in raised]
        extra, mat = wild._refine_triples(*triples)
        if extra == 0:
            break
        n += extra
    entries = [BarElem(n, i, j, k) for k, i, j in mat]
    matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
    return matrix


@pytest.mark.parametrize(
    "E, refine, reference",
    [
        (wild.enumerate_ladder(2, 4), wild.ladder_refine, _ref_ladder_refine),
        (wild.enumerate_bar(3, 5), wild.bar_refine, _ref_bar_refine),
    ],
    ids=["ladder", "bar"],
)
def test_refine_matches_reference_on_seeded_equations(E, refine, reference):
    """Seeded equations a + b = c + d, with d the complement of c <= a + b,
    get the reference's matrix."""
    rng = random.Random(29)
    checked = 0
    while checked < 1500:
        a, b, c = rng.choice(E), rng.choice(E), rng.choice(E)
        d = c.leq(a.add(b))
        if d is None:
            continue
        checked += 1
        assert refine(a, b, c, d) == reference(a, b, c, d), (a, b, c, d)


def test_refine_random_totality():
    rng = random.Random(11)
    E = wild.enumerate_ladder(2, 4)
    for _ in range(400):
        a, b = rng.choice(E), rng.choice(E)
        s = a.add(b)
        # random componentwise split of a representation of the sum
        m, i, j, k = s.raised(s.level)
        cm = rng.randint(0, m)
        ci = rng.randint(0, i)
        cj = rng.randint(0, j)
        ck = tuple(rng.randint(0, x) for x in k)
        c = LadderElem.make(s.level, cm, ci, cj, ck)
        d = LadderElem.make(s.level, m - cm, i - ci, j - cj, tuple(x - y for x, y in zip(k, ck)))
        wild.ladder_refine(a, b, c, d)  # verifies all four sums internally


# -- quotient map and ideals


def test_qmap_on_generators():
    assert wild.to_bar(LadderElem.a(7)).is_zero()
    assert wild.to_bar(LadderElem.y(3)) == BarElem.ybar()
    assert wild.to_bar(LadderElem.x(2)) == BarElem.xbar(2)
    assert wild.to_bar(U).equal(BarElem.xbar(0).add(BarElem.ybar()))


@given(ladder_elems(), ladder_elems())
def test_qmap_is_homomorphism(e1, e2):
    assert wild.to_bar(e1.add(e2)) == wild.to_bar(e1).add(wild.to_bar(e2))


def test_ideal_membership():
    assert wild.ideal_member(LadderElem.a(1).add(LadderElem.a(4).scale(5)), Ideal.RUNGS)
    assert not wild.ideal_member(Y0, Ideal.RUNGS)
    assert wild.ideal_member(Y0, Ideal.XFREE)
    assert not wild.ideal_member(X0, Ideal.XFREE)
    with pytest.raises(TypeError):
        wild.ideal_member(Y0, Ideal.XFREE_BAR)


def test_ideal_is_order_hereditary():
    rng = random.Random(3)
    E = wild.enumerate_ladder(2, 4)
    for ideal in (Ideal.RUNGS, Ideal.XFREE):
        members = [e for e in E if wild.ideal_member(e, ideal)]
        for _ in range(200):
            big = rng.choice(members)
            small = rng.choice(E)
            if small.leq(big) is not None:
                assert wild.ideal_member(small, ideal)


def test_cong_mod_rungs_examples():
    y5 = LadderElem.y(5)
    assert wild.cong_mod_ideal(Y0, y5, Ideal.RUNGS)
    assert not wild.cong_mod_ideal(Y0, Z0, Ideal.RUNGS)


def test_cong_closed_forms_match_shift_search():
    """The congruence-mod-ideal closed forms agree with bounded search for
    ideal shifts e1 + a = e2 + b."""
    rng = random.Random(13)
    E = wild.enumerate_ladder(1, 3)
    rung_pool = [e for e in wild.enumerate_ladder(3, 6) if wild.ideal_member(e, Ideal.RUNGS)]
    xfree_pool = [e for e in wild.enumerate_ladder(2, 8) if wild.ideal_member(e, Ideal.XFREE)]
    pools = {Ideal.RUNGS: rung_pool, Ideal.XFREE: xfree_pool}
    for ideal, pool in pools.items():
        for _ in range(40):
            e1, e2 = rng.choice(E), rng.choice(E)
            closed = wild.cong_mod_ideal(e1, e2, ideal)
            # canonical forms are unique, so set membership decides equality
            shifted = {e1.add(a) for a in pool}
            searched = any(e2.add(b) in shifted for b in pool)
            assert closed == searched, (ideal, e1, e2)


# -- truncation presentations and the oracle


def test_truncation_shapes():
    p = wild.truncation_presentation(1, "ladder")
    assert len(p.gens) == 7
    assert len(p.relations) == 5
    pb = wild.truncation_presentation(1, "bar")
    assert pb.gens.names == ("xbar0", "ybar0", "zbar0", "xbar1")
    assert len(pb.relations) == 3
    with pytest.raises(ValueError):
        wild.truncation_presentation(0)


def test_word_element_roundtrip():
    for e in wild.enumerate_ladder(2, 3):
        w = wild.ladder_word(e, 2)
        assert wild.ladder_from_word(w, 2).equal(e)


def test_exact_equality_matches_oracle():
    """Exhaustive cross-check at a small bound: exact equality against the
    bounded rewriting oracle, using the standard certificates for Fails."""
    n, deg = 2, 4
    p = wild.truncation_presentation(n, "ladder")
    b = SearchBound(max_degree=2 * deg + 2)
    cache = ClassCache(p, b)
    certs = tuple(wild.standard_certificates(n, "ladder").values())
    E = wild.enumerate_ladder(n, deg)
    rng = random.Random(17)
    unknown = mismatch = total = 0
    for _ in range(250):
        e1, e2 = rng.choice(E), rng.choice(E)
        w1, w2 = wild.ladder_word(e1, n), wild.ladder_word(e2, n)
        dec = decide_equal(p, w1, w2, b, certs, cache)
        total += 1
        if dec.is_unknown:
            unknown += 1
            continue
        if dec.is_holds != e1.equal(e2):
            mismatch += 1
    assert mismatch == 0
    assert unknown < total * 0.2


def test_exact_leq_matches_oracle():
    n, deg = 1, 3
    p = wild.truncation_presentation(n, "ladder")
    b = SearchBound(max_degree=8)
    cache = ClassCache(p, b)
    E = wild.enumerate_ladder(n, deg)
    rng = random.Random(19)
    for _ in range(150):
        e1, e2 = rng.choice(E), rng.choice(E)
        dec = decide_leq(p, wild.ladder_word(e1, n), wild.ladder_word(e2, n), b, cache)
        if dec.is_unknown:
            continue
        assert dec.is_holds == (e1.leq(e2) is not None), (e1, e2)


# -- certificates


def test_state_certificate_values():
    certs = wild.standard_certificates(2, "ladder")
    p = wild.truncation_presentation(2, "ladder")
    s = certs["state"]
    assert s.apply(p.word("x0 + y0")) == 2
    assert s.apply(p.word("x1")) == Fraction(1, 2)
    assert s.apply(p.word("a2")) == Fraction(1, 4)


def test_xmix_certificate_formula():
    certs = wild.standard_certificates(2, "ladder")
    p = wild.truncation_presentation(2, "ladder")
    h = certs["xmix"]
    assert h.apply(p.word("x2")) == (("a1", -2), ("a2", -1), ("b", -2))


def test_certificates_separate_unequal_elements():
    """The three equality-law certificates jointly separate all unequal
    elements of the truncation (the basis of the oracle's fast Fails path)."""
    n = 2
    certs = wild.standard_certificates(n, "ladder")
    seps = [certs["xcount"], certs["yz_split"], certs["xmix"], certs["rung_basis"], certs["state"]]
    E = wild.enumerate_ladder(n, 4)
    keys = {}
    for e in E:
        w = wild.ladder_word(e, n)
        key = tuple(repr(h.apply(w)) for h in seps)
        if key in keys:
            assert keys[key].equal(e), (keys[key], e)
        else:
            keys[key] = e
    assert len(keys) == len(E)


# -- parsing and formatting


def test_parse_format_roundtrip():
    for e in wild.enumerate_ladder(2, 3):
        assert wild.parse_elem(e.format()) == e


@pytest.mark.parametrize(
    "text, message",
    [
        ("3x", "bad term '3x'"),
        ("x + y0", "generator 'x' needs a level index"),
        ("ybar1", "ybar only exists at index 0"),
        ("zbar2", "zbar only exists at index 0"),
        ("a0", "rungs start at 1"),
        ("q1", "unknown generator 'q1'"),
        ("u1", "unknown generator 'u1'"),
        ("x0 + xbar1", "cannot mix ladder and bar generators in one term"),
    ],
)
def test_parse_elem_error_messages(text, message):
    with pytest.raises(ValueError) as exc:
        wild.parse_elem(text)
    assert str(exc.value) == message


def test_parse_elem_errors():
    with pytest.raises(ValueError):
        wild.parse_elem("x0 + ybar0")
    with pytest.raises(ValueError):
        wild.parse_elem("w3")
    with pytest.raises(ValueError):
        wild.parse_elem("x")
    assert wild.parse_elem("0").is_zero()
    assert wild.parse_elem("u") == U


# -- every element is its canonical form: built by a kernel or a constructor


def _assert_canonical_and_hashed(elems):
    """Each element passes the validating constructor, is its own canonical
    form, and equals, with the same hash, every element that raise-and-compare
    finds equal to it."""
    for e in elems:
        assert LadderElem(*e) == e
        assert LadderElem.make(*e) == e
    for e1 in elems:
        for e2 in elems:
            if _ref_equal(e1, e2):
                assert e1 == e2 and hash(e1) == hash(e2), (e1, e2)


@given(ladder_elems(), st.integers(0, 2))
def test_construction_from_raised_fields_is_canonical(e, k):
    assert LadderElem(e.level + k, *e.raised(e.level + k)) == e


@given(ladder_elems(), ladder_elems(), st.integers(0, 4))
def test_kernel_results_are_canonical(e1, e2, c):
    """Sums, complements and multiples of operands at mixed levels."""
    results = [e1.add(e2), e1.leq(e1.add(e2)), e1.scale(c), e2.scale(c)]
    results += [x for x in (e1.leq(e2), e2.leq(e1)) if x is not None]
    _assert_canonical_and_hashed(results + [e1, e2])


@given(ladder_elems(), ladder_elems(), ladder_elems(), ladder_elems())
def test_refine_entries_are_canonical(p, q, r, s):
    (z11, z12), (z21, z22) = wild.ladder_refine(p.add(q), r.add(s), p.add(r), q.add(s))
    _assert_canonical_and_hashed([z11, z12, z21, z22, p, q, r, s])


@pytest.mark.parametrize(
    "fields",
    [
        (-1, 0, 0, 0, ()),
        (0, -1, 0, 0, ()),
        (0, 0, -1, 0, ()),
        (0, 0, 0, -1, ()),
        (1, 0, 0, 0, (-1,)),
        (2, 1, 0, 0, (-2, 0)),
    ],
)
def test_negative_coefficients_rejected(fields):
    for build in (LadderElem, LadderElem.make):
        with pytest.raises(ValueError, match="negative coefficient"):
            build(*fields)


@pytest.mark.parametrize("fields", [(1, 0, 0, 0, ()), (0, 0, 0, 0, (1,)), (1, 0, 1, 0, (0, 0))])
def test_wrong_rung_length_rejected(fields):
    builds = (LadderElem, LadderElem.make) if len(fields[4]) > fields[0] else (LadderElem,)
    for build in builds:  # make pads missing top rungs with zeros
        with pytest.raises(ValueError, match="rung vector length must equal level"):
            build(*fields)


def test_elements_are_tuples_with_named_fields():
    e = wild.parse_elem("x2 + 3*y2 + a1")
    assert tuple(e) == (e.level, e.m, e.i, e.j, e.rungs) == (2, 1, 3, 0, (1, 0))
    assert hash(e) == hash((2, 1, 3, 0, (1, 0)))
    assert repr(e) == "LadderElem(level=2, m=1, i=3, j=0, rungs=(1, 0))"
    assert pickle.loads(pickle.dumps(e)) == e and type(copy.copy(e)) is LadderElem
    with pytest.raises(AttributeError):
        e.m = 0
