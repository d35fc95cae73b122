"""Exact arithmetic in the collapsed (bar) monoid."""
import random

import pytest
from hypothesis import given, strategies as st

from refmon import wild
from refmon.decisions import SearchBound
from refmon.rewrite import ClassCache, decide_equal, decide_leq
from refmon.wild import BarElem, Ideal

XB0, YB, ZB = BarElem.xbar(0), BarElem.ybar(), BarElem.zbar()


def bar_elems(max_level=3, max_coeff=3):
    return st.builds(
        BarElem,
        st.integers(0, max_level),
        st.integers(0, max_coeff),
        st.integers(0, max_coeff),
        st.integers(0, max_coeff),
    )


# -- canonical forms


def test_canonical_lowers_and_folds():
    # xbar1 + ybar0 is xbar0; with an xbar present, zbar folds into ybar
    assert BarElem(1, 1, 0, 1) == XB0
    assert BarElem(1, 0, 1, 1) == XB0
    assert BarElem(2, 1, 1, 1) == XB0
    e = BarElem(1, 0, 2, 1)
    assert (e.i, e.j) == (1, 0) and e.level == 0


def test_no_folding_without_xbar():
    assert not YB.equal(ZB)
    assert YB.add(ZB) == BarElem(0, 1, 1, 0)


def test_relation_instances():
    assert XB0.equal(BarElem.xbar(1).add(YB))
    assert XB0.equal(BarElem.xbar(1).add(ZB))
    assert XB0.equal(BarElem.xbar(2).add(YB).add(ZB))


@given(bar_elems())
def test_canonical_form_is_stable(e):
    assert BarElem(e.level, e.i, e.j, e.k) == e


@given(bar_elems(), st.integers(0, 3))
def test_level_invariance(e, extra):
    i, j, k = e.raised(e.level + extra)
    assert BarElem(e.level + extra, i, j, k) == e


@given(bar_elems(), bar_elems())
def test_equal_iff_identical_canonical(e1, e2):
    assert e1.equal(e2) == (e1 == e2)


@given(bar_elems(), bar_elems(), bar_elems())
def test_add_monoid_laws(e1, e2, e3):
    assert e1.add(e2) == e2.add(e1)
    assert e1.add(e2).add(e3) == e1.add(e2.add(e3))


@given(bar_elems(), st.integers(0, 4))
def test_scale_is_iterated_add(e, c):
    acc = BarElem.zero()
    for _ in range(c):
        acc = acc.add(e)
    assert e.scale(c) == acc


# -- order


def test_yz_combinations_sit_below_xbar():
    # arbitrarily large multiples of ybar0 and zbar0 stay below one xbar0
    big = YB.scale(50).add(ZB.scale(50))
    c = big.leq(XB0)
    assert c is not None
    assert big.add(c).equal(XB0)
    assert XB0.leq(big) is None


def test_leq_needs_matching_yz_split_when_no_xbar():
    assert YB.leq(ZB.scale(4)) is None
    assert YB.leq(YB.add(ZB)) is not None


@given(bar_elems(), bar_elems())
def test_leq_witness_adds_up(e1, e2):
    c = e1.leq(e2)
    if c is not None:
        assert e1.add(c).equal(e2)


@given(bar_elems(), bar_elems())
def test_leq_consistent_with_add(e1, e2):
    assert e1.leq(e1.add(e2)) is not None


@given(bar_elems(), bar_elems(), bar_elems())
def test_leq_transitive(e1, e2, e3):
    if e1.leq(e2) is not None and e2.leq(e3) is not None:
        assert e1.leq(e3) is not None


def test_leq_complete_against_complement_search():
    rng = random.Random(7)
    E = wild.enumerate_bar(2, 3)
    # complements for this sample range live at level at most 2 + 3 = 5 (the
    # always-holds branch raises by at most the y/z gap) and degree at most 15
    pool = wild.enumerate_bar(5, 15)
    for _ in range(150):
        e1, e2 = rng.choice(E), rng.choice(E)
        has = e1.leq(e2) is not None
        shifted = {e1.add(c) for c in pool}
        assert has == (e2 in shifted), (e1, e2)


def _ref_leq(e1, e2):
    """The order criterion as first written: raise both sides, then compare k."""
    n = max(e1.level, e2.level)
    i1, j1, k1 = e1.raised(n)
    i2, j2, k2 = e2.raised(n)
    if k1 > k2:
        return None
    if k2 == 0:
        if i1 <= i2 and j1 <= j2:
            return BarElem(0, i2 - i1, j2 - j1, 0)
        return None
    if k1 == k2:
        if i1 + j1 <= i2 + j2:
            return BarElem(n, i2 + j2 - i1 - j1, 0, 0)
        return None
    gap = (i1 + j1) - (i2 + j2)
    t = 0 if gap <= 0 else -(-gap // (k2 - k1))
    i1t, j1t, _ = e1.raised(n + t)
    i2t, j2t, _ = e2.raised(n + t)
    return BarElem(n + t, (i2t + j2t) - (i1t + j1t), 0, k2 - k1)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_leq_matches_reference_on_every_pair(c):
    """Every pair of enumerate_bar(3, 5), and of its c-fold multiples, gets the
    reference's verdict and complement."""
    E = [e.scale(c) for e in wild.enumerate_bar(3, 5)]
    for e1 in E:
        for e2 in E:
            assert e1.leq(e2) == _ref_leq(e1, e2), (e1, e2)


def _ref_equal(e1, e2):
    """Equality as first written: raise both sides, then compare."""
    n = max(e1.level, e2.level)
    i1, j1, k1 = e1.raised(n)
    i2, j2, k2 = e2.raised(n)
    if k1 != k2:
        return False
    if k1 == 0:
        return i1 == i2 and j1 == j2
    return i1 + j1 == i2 + j2


def _ref_add(e1, e2):
    n = max(e1.level, e2.level)
    i1, j1, k1 = e1.raised(n)
    i2, j2, k2 = e2.raised(n)
    return BarElem(n, i1 + i2, j1 + j2, k1 + k2)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_kernels_match_reference_with_raw_operands(c):
    """The c-fold multiples of enumerate_bar(4, 6), each given by its raw
    fields at level 5, construct to their canonical forms, at levels 0 to 4.
    Every pair of them gets the reference's equality, order and sum, so `==`
    is checked against raise-and-compare and the raising of either operand
    is exercised."""
    canonical = [e.scale(c) for e in wild.enumerate_bar(4, 6)]
    E = [BarElem(5, *e.raised(5)) for e in canonical]
    assert E == canonical and {e.level for e in E} == {0, 1, 2, 3, 4}
    for e1 in E:
        for e2 in E:
            assert e1.equal(e2) == _ref_equal(e1, e2), (e1, e2)
            assert e1.leq(e2) == _ref_leq(e1, e2), (e1, e2)
            assert e1.add(e2) == _ref_add(e1, e2), (e1, e2)


# -- refinement


def test_bar_refine_diagonal_and_general():
    zero = BarElem.zero()
    assert wild.bar_refine(XB0, YB, XB0, YB) == ((XB0, zero), (zero, YB))
    m = wild.bar_refine(XB0, YB, XB0, ZB)
    (r11, r12), (r21, r22) = m
    assert r11.add(r12).equal(XB0) and r21.add(r22).equal(YB)
    assert r11.add(r21).equal(XB0) and r12.add(r22).equal(ZB)


def test_bar_refine_precondition():
    with pytest.raises(ValueError):
        wild.bar_refine(YB, YB, ZB, ZB)


def test_bar_refine_random_totality():
    rng = random.Random(5)
    E = wild.enumerate_bar(2, 4)
    for _ in range(300):
        a, b = rng.choice(E), rng.choice(E)
        s = a.add(b)
        i, j, k = s.raised(s.level)
        ci, cj, ck = rng.randint(0, i), rng.randint(0, j), rng.randint(0, k)
        c = BarElem(s.level, ci, cj, ck)
        d = BarElem(s.level, i - ci, j - cj, k - ck)
        wild.bar_refine(a, b, c, d)


# -- quotient map from the ladder


def test_to_bar_collapses_levels_and_rungs():
    from refmon.wild import LadderElem

    u = LadderElem.unit()
    assert wild.to_bar(u).equal(XB0.add(YB))
    assert wild.to_bar(LadderElem.y(4)) == YB
    assert wild.to_bar(LadderElem.z(2)) == ZB
    assert wild.to_bar(LadderElem.a(3)).is_zero()


def test_to_bar_preserves_order():
    rng = random.Random(23)
    E = wild.enumerate_ladder(2, 4)
    for _ in range(200):
        e1, e2 = rng.choice(E), rng.choice(E)
        if e1.leq(e2) is not None:
            assert wild.to_bar(e1).leq(wild.to_bar(e2)) is not None


# -- ideals


def test_bar_ideal_membership():
    assert wild.ideal_member(YB.add(ZB.scale(3)), Ideal.XFREE_BAR)
    assert not wild.ideal_member(XB0, Ideal.XFREE_BAR)
    assert wild.ideal_member(ZB.scale(2), Ideal.ZBAR_ONLY)
    assert not wild.ideal_member(YB, Ideal.ZBAR_ONLY)
    with pytest.raises(TypeError):
        wild.ideal_member(YB, Ideal.RUNGS)


def test_cong_mod_zbar_collapses_y_above_xbar():
    # modulo the zbar ideal, adding ybar0 to something containing xbar is
    # absorbed, but ybar0 and zbar0 alone stay distinct from zero
    assert wild.cong_mod_ideal(XB0.add(YB), XB0, Ideal.ZBAR_ONLY)
    assert not wild.cong_mod_ideal(YB, BarElem.zero(), Ideal.ZBAR_ONLY)
    assert wild.cong_mod_ideal(ZB, BarElem.zero(), Ideal.ZBAR_ONLY)


def test_cong_closed_forms_match_shift_search():
    rng = random.Random(29)
    E = wild.enumerate_bar(1, 3)
    for ideal in (Ideal.XFREE_BAR, Ideal.ZBAR_ONLY):
        pool = [e for e in wild.enumerate_bar(0, 10) if wild.ideal_member(e, ideal)]
        for _ in range(60):
            e1, e2 = rng.choice(E), rng.choice(E)
            closed = wild.cong_mod_ideal(e1, e2, ideal)
            shifted = {e1.add(a) for a in pool}
            searched = any(e2.add(b) in shifted for b in pool)
            assert closed == searched, (ideal, e1, e2)


# -- truncation presentation and the oracle


def test_truncation_shape():
    p = wild.truncation_presentation(2, "bar")
    assert p.gens.names == ("xbar0", "ybar0", "zbar0", "xbar1", "xbar2")
    assert len(p.relations) == 5  # the mixing relation plus two per level


def test_word_element_roundtrip():
    for e in wild.enumerate_bar(2, 3):
        w = wild.bar_word(e, 2)
        assert wild.bar_from_word(w, 2).equal(e)


def test_exact_equality_matches_oracle():
    n, deg = 2, 4
    p = wild.truncation_presentation(n, "bar")
    b = SearchBound(max_degree=2 * deg + 2)
    cache = ClassCache(p, b)
    certs = tuple(wild.standard_certificates(n, "bar").values())
    E = wild.enumerate_bar(n, deg)
    rng = random.Random(31)
    unknown = mismatch = total = 0
    for _ in range(250):
        e1, e2 = rng.choice(E), rng.choice(E)
        dec = decide_equal(p, wild.bar_word(e1, n), wild.bar_word(e2, n), b, certs, cache)
        total += 1
        if dec.is_unknown:
            unknown += 1
            continue
        if dec.is_holds != e1.equal(e2):
            mismatch += 1
    assert mismatch == 0
    assert unknown < total * 0.2


def test_exact_leq_agrees_with_oracle():
    """Order in the truncation implies order in the full monoid, and exact
    witnesses that fit inside the truncation are never refuted by it.  (Full
    two-way agreement cannot hold: the full monoid has witnesses at deeper
    levels than any fixed truncation, e.g. 2*ybar0 + zbar0 <= xbar1 via xbar4.)
    """
    n = 1
    p = wild.truncation_presentation(n, "bar")
    b = SearchBound(max_degree=8)
    cache = ClassCache(p, b)
    E = wild.enumerate_bar(n, 3)
    rng = random.Random(37)
    for _ in range(150):
        e1, e2 = rng.choice(E), rng.choice(E)
        dec = decide_leq(p, wild.bar_word(e1, n), wild.bar_word(e2, n), b, cache)
        c = e1.leq(e2)
        if dec.is_holds:
            assert c is not None, (e1, e2)
        if c is not None and c.level <= n and dec.is_fails:
            raise AssertionError((e1, e2, c))


# -- certificates


def test_pair_state_values():
    certs = wild.standard_certificates(3, "bar")
    p = wild.truncation_presentation(3, "bar")
    t = certs["pair_state"]
    assert t.apply(p.word("ybar0")) == (1, 0)
    assert t.apply(p.word("xbar3")) == (-2, 1)
    assert t.apply(p.word("xbar0 + ybar0")) == (2, 1)


def test_certificates_separate_unequal_elements():
    n = 2
    certs = wild.standard_certificates(n, "bar")
    seps = list(certs.values())
    E = wild.enumerate_bar(n, 4)
    keys = {}
    for e in E:
        w = wild.bar_word(e, n)
        key = tuple(repr(h.apply(w)) for h in seps)
        if key in keys:
            assert keys[key].equal(e), (keys[key], e)
        else:
            keys[key] = e
    assert len(keys) == len(E)


# -- parsing and formatting


def test_parse_format_roundtrip():
    for e in wild.enumerate_bar(2, 3):
        if e.is_zero():
            continue  # "0" carries no family marker and parses as the ladder zero
        assert wild.parse_elem(e.format()) == e


def test_parse_mixed_families_rejected():
    with pytest.raises(ValueError):
        wild.parse_elem("xbar0 + y0")


# -- every element is its canonical form: built by a kernel or a constructor


def _assert_canonical_and_hashed(elems):
    """Each element passes the validating constructor, is its own canonical
    form, and equals, with the same hash, every element that raise-and-compare
    finds equal to it."""
    for e in elems:
        assert BarElem(*e) == e
        assert BarElem(*e) == e
    for e1 in elems:
        for e2 in elems:
            if _ref_equal(e1, e2):
                assert e1 == e2 and hash(e1) == hash(e2), (e1, e2)


@given(bar_elems(), st.integers(0, 2))
def test_construction_from_raised_fields_is_canonical(e, k):
    assert BarElem(e.level + k, *e.raised(e.level + k)) == e


@given(bar_elems(), bar_elems(), st.integers(0, 4))
def test_kernel_results_are_canonical(e1, e2, c):
    """Sums, complements and multiples of operands at mixed levels."""
    results = [e1.add(e2), e1.leq(e1.add(e2)), e1.scale(c), e2.scale(c)]
    results += [x for x in (e1.leq(e2), e2.leq(e1)) if x is not None]
    _assert_canonical_and_hashed(results + [e1, e2])


@given(bar_elems(), bar_elems(), bar_elems(), bar_elems())
def test_refine_entries_are_canonical(p, q, r, s):
    (z11, z12), (z21, z22) = wild.bar_refine(p.add(q), r.add(s), p.add(r), q.add(s))
    _assert_canonical_and_hashed([z11, z12, z21, z22, p, q, r, s])


@pytest.mark.parametrize("fields", [(0, -1, 0, 0), (0, 0, -1, 0), (1, 0, 0, -1), (-1, 0, 0, 1), (2, -5, 0, 1), (-1, 0, 2, 0)])
def test_negative_coefficients_rejected(fields):
    with pytest.raises(ValueError, match="negative coefficient"):
        BarElem(*fields)


def test_elements_are_tuples_with_named_fields():
    e = wild.parse_elem("2*xbar2 + zbar0")
    assert tuple(e) == (e.level, e.i, e.j, e.k) == (2, 1, 0, 2)
    assert hash(e) == hash((2, 1, 0, 2))
    assert repr(e) == "BarElem(level=2, i=1, j=0, k=2)"
