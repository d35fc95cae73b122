"""Acceptance gate: one test per workbench-level claim, each printing a
single PASS line with its pinned tolerance when it succeeds.

Tolerances are stated inline and in the assert messages; every "exhaustive"
sweep states its degree and multiplier bounds explicitly.
"""
import random

from refmon import graphs, lab, primitive, wild
from refmon.decisions import SearchBound
from refmon.oracles import bar_oracle, ladder_oracle
from refmon.presentation import parse_presentation
from refmon.rewrite import ClassCache, decide_equal, decide_leq, find_refinement
from refmon.wild import BarElem, Ideal, LadderElem
from refmon.words import Word, compositions


def _report(num: int, desc: str, **stats) -> None:
    extra = "".join(f", {k}={v}" for k, v in stats.items())
    print(f"ACCEPTANCE {num:02d} PASS: {desc}{extra}")


# -- 1, 2: wildness of the two monoids


def test_criterion_01_ladder_wildness():
    """Exact: mixing equation holds, its summands differ, the positive state
    validates, and the wildness certificate is Holds.  No tolerance."""
    x0, y0, z0 = LadderElem.x(0), LadderElem.y(0), LadderElem.z(0)
    assert x0.add(y0).equal(x0.add(z0))
    assert not y0.equal(z0)
    certs = wild.standard_certificates(2, "ladder")
    s = certs["state"]  # construction validates it against every relation
    p = wild.truncation_presentation(2, "ladder")
    for g in p.gens.names:
        assert s.apply(p.word(g)) > 0, f"state not positive on {g}"
    rep = lab.wildness_certificate(ladder_oracle(2), SearchBound(max_degree=3), samples=60)
    assert rep.verdict.is_holds
    assert "not cancellative" in rep.verdict.note
    _report(1, "ladder monoid wild (noncancellation + positive state)", evidence=rep.verdict.note)


def test_criterion_02_bar_wildness():
    xb, yb, zb = BarElem.xbar(0), BarElem.ybar(), BarElem.zbar()
    assert xb.add(yb).equal(xb.add(zb))
    assert not yb.equal(zb)
    certs = wild.standard_certificates(2, "bar")
    t = certs["pair_state"]
    p = wild.truncation_presentation(2, "bar")
    assert t.apply(p.word("ybar0")) == (1, 0)
    rep = lab.wildness_certificate(bar_oracle(2), SearchBound(max_degree=3), samples=60)
    assert rep.verdict.is_holds
    _report(2, "bar monoid wild (noncancellation + pair certificate)", evidence=rep.verdict.note)


# -- 3, 4: exact equality vs the rewriting oracle, exhaustive on tuples


def _equality_sweep(kind: str, from_word, max_n: int, deg: int):
    """Exhaustive partition comparison: every coefficient tuple of degree <=
    deg is linked to its canonical-class representative through decideEqual,
    and distinct class representatives are mutually refuted.  Transitivity of
    both relations then gives agreement on every pair of tuples."""
    mismatches = 0
    unknown = 0
    total = 0
    for n in range(1, max_n + 1):
        p = wild.truncation_presentation(n, kind)
        b = SearchBound()  # default bounds, as pinned
        cache = ClassCache(p, b)
        certs = tuple(wild.standard_certificates(n, kind).values())
        classes: dict = {}
        for t in compositions(len(p.gens.names), deg):
            w = Word.of([(i, c) for i, c in enumerate(t) if c])
            e = from_word(w, n)
            if e in classes:
                total += 1
                dec = decide_equal(p, w, classes[e][0], b, certs, cache)
                if dec.is_fails:
                    mismatches += 1
                elif dec.is_unknown:
                    unknown += 1
            else:
                classes[e] = (w, tuple(repr(h.apply(w)) for h in certs))
        by_key: dict = {}
        for e, (w, key) in classes.items():
            if key in by_key:
                # certificates failed to separate: ask the oracle directly
                total += 1
                dec = decide_equal(p, w, by_key[key], b, certs, cache)
                if dec.is_holds:
                    mismatches += 1
                elif dec.is_unknown:
                    unknown += 1
            else:
                by_key[key] = w
        # distinct certificate keys are exactly the oracle's refutation path
        total += len(classes) * (len(classes) - 1) // 2
    return mismatches, unknown, total


def test_criterion_03_ladder_equality_oracle_equivalence():
    """Zero mismatches; Unknown verdicts counted and < 20% of checked pairs."""
    mism, unk, total = _equality_sweep("ladder", wild.ladder_from_word, 3, 6)
    assert mism == 0, f"{mism} mismatches"
    assert unk < 0.2 * total, f"{unk}/{total} unknown"
    _report(3, "ladder equality = oracle on all tuples (deg<=6, N<=3)", pairs=total, unknown=unk)


def test_criterion_04_bar_equality_oracle_equivalence():
    mism, unk, total = _equality_sweep("bar", wild.bar_from_word, 3, 6)
    assert mism == 0, f"{mism} mismatches"
    assert unk < 0.2 * total, f"{unk}/{total} unknown"
    _report(4, "bar equality = oracle on all tuples (deg<=6, N<=3)", pairs=total, unknown=unk)


# -- 5, 6: exact order facts


def test_criterion_05_order_unit_bounds():
    u = LadderElem.unit()
    for n in range(1, 11):
        an = LadderElem.a(n)
        assert an.scale(n).leq(u) is not None, f"{n}*a{n} <= u expected"
        assert an.scale(n + 1).leq(u) is None, f"{n+1}*a{n} <= u unexpected"
    _report(5, "n*a_n <= u < (n+1)*a_n for n = 1..10", checks=20)


def test_criterion_06_non_archimedean_family():
    xb = BarElem.xbar(0)
    step = BarElem.ybar().add(BarElem.zbar())
    for n in range(1, 51):
        c = step.scale(n).leq(xb)
        assert c is not None, f"{n}*(ybar0+zbar0) <= xbar0 expected"
        assert step.scale(n).add(c).equal(xb)
    _report(6, "n*(ybar0+zbar0) <= xbar0 for n = 1..50", checks=50)


# -- 7: refinement totality


def test_criterion_07_refinement_totality():
    """1000 random valid equations of degree <= 8; 100% refined and all four
    sums re-verified externally."""
    rng = random.Random(20260823)
    E = wild.enumerate_ladder(2, 4)
    done = 0
    for _ in range(1000):
        a, b = rng.choice(E), rng.choice(E)
        s = a.add(b)
        m, i, j, k = s.raised(s.level)
        cm, ci, cj = rng.randint(0, m), rng.randint(0, i), rng.randint(0, j)
        ck = tuple(rng.randint(0, x) for x in k)
        c = LadderElem.make(s.level, cm, ci, cj, ck)
        d = LadderElem.make(s.level, m - cm, i - ci, j - cj, tuple(x - y for x, y in zip(k, ck)))
        (z11, z12), (z21, z22) = wild.ladder_refine(a, b, c, d)
        assert z11.add(z12).equal(a) and z21.add(z22).equal(b)
        assert z11.add(z21).equal(c) and z12.add(z22).equal(d)
        done += 1
    assert done == 1000
    _report(7, "1000/1000 random equations (deg<=8) refined and re-verified")


# -- 8: the level-0 monoid has no refinement


def test_criterion_08_level0_refinement_failure():
    p = wild.m0_presentation()
    for deg in (4, 6):
        dec = find_refinement(
            p, p.word("x0"), p.word("y0"), p.word("x0"), p.word("z0"), SearchBound(max_degree=deg)
        )
        assert dec.is_fails, f"expected Fails at max_degree={deg}"
    _report(8, "mixing equation unrefinable in the level-0 monoid", degrees="4,6")


# -- 9: the rung quotient is the bar monoid


def test_criterion_09_quotient_isomorphism():
    """500 random pairs of degree <= 6: congruence mod the rung ideal agrees
    with equality of images, zero mismatches; cross-validated against an
    independent bounded shift search on 40 small pairs."""
    rng = random.Random(9)
    E = wild.enumerate_ladder(3, 6)
    for _ in range(500):
        e1, e2 = rng.choice(E), rng.choice(E)
        lhs = wild.cong_mod_ideal(e1, e2, Ideal.RUNGS)
        rhs = wild.to_bar(e1).equal(wild.to_bar(e2))
        assert lhs == rhs, (e1, e2)
    small = wild.enumerate_ladder(1, 3)
    pool = [e for e in wild.enumerate_ladder(3, 6) if wild.ideal_member(e, Ideal.RUNGS)]
    for _ in range(40):
        e1, e2 = rng.choice(small), rng.choice(small)
        shifted = {e1.add(a) for a in pool}
        searched = any(e2.add(b) in shifted for b in pool)
        assert wild.cong_mod_ideal(e1, e2, Ideal.RUNGS) == searched, (e1, e2)
    _report(9, "rung-quotient congruence = bar-image equality", pairs=500, search_checks=40)


# -- 10: separativity and unperforation


def _sep_unperf_sweep(E, add, scale, equal, leq, key):
    """Exhaustive: multipliers 2..5 over every ordered pair of E."""
    groups: dict = {}
    for x in E:
        groups.setdefault(key(scale(x, 2)), []).append(x)
    for members in groups.values():
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                if key(add(x, y)) == key(scale(x, 2)):
                    assert equal(x, y), f"separativity fails at {x}, {y}"
    scaled = {m: [scale(x, m) for x in E] for m in range(2, 6)}
    checked = 0
    for ix, x in enumerate(E):
        for iy, y in enumerate(E):
            if leq(x, y):
                continue
            for m in range(2, 6):
                checked += 1
                assert not leq(scaled[m][ix], scaled[m][iy]), f"perforation at {x}, {y}, m={m}"
    return checked


def test_criterion_10_separative_and_unperforated():
    lad = wild.enumerate_ladder(3, 6)
    n1 = _sep_unperf_sweep(
        lad,
        add=lambda a, b: a.add(b),
        scale=lambda a, c: a.scale(c),
        equal=lambda a, b: a.equal(b),
        leq=lambda a, b: a.leq(b) is not None,
        key=lambda e: e,
    )
    bar = wild.enumerate_bar(3, 6)
    n2 = _sep_unperf_sweep(
        bar,
        add=lambda a, b: a.add(b),
        scale=lambda a, c: a.scale(c),
        equal=lambda a, b: a.equal(b),
        leq=lambda a, b: a.leq(b) is not None,
        key=lambda e: e,
    )
    # strong separativity, the lab's coordinate certificate, over every
    # ordered pair: ladder(3) one degree lower keeps the E^2 sweep to about
    # half a second
    lad5 = wild.enumerate_ladder(3, 5)
    for E in (lad5, bar):
        for x in E:
            xx = x.add(x)
            for y in E:
                if x.add(y).equal(xx):
                    assert x.equal(y), f"strong separativity fails at {x}, {y}"
    _report(
        10,
        "separative + unperforated, exhaustive (deg<=6, multipliers<=5); strongly separative (ladder deg<=5)",
        ladder_elems=len(lad),
        bar_elems=len(bar),
        perforation_checks=n1 + n2,
        strongly_separative_ladder_elems=len(lad5),
    )


# -- 11: pedestal identification


def test_criterion_11_pedestal():
    b = SearchBound(max_degree=6)
    for n in (2, 3):
        found, unknown = lab.irreducibles(ladder_oracle(n), b)
        assert not unknown
        assert set(found) == {LadderElem.a(l) for l in range(1, n + 1)}, found
    found_bar, unknown_bar = lab.irreducibles(bar_oracle(2), b)
    assert not unknown_bar
    assert set(found_bar) == {BarElem.ybar(), BarElem.zbar()}
    _report(11, "irreducibles = rungs (ladder, N=2,3) and {ybar0, zbar0} (bar)", degree=6)


# -- 12: the quotient tower


def test_criterion_12_quotient_structure():
    """Class keys at degree <= 6: the rung ideal is a free monoid of rank N,
    the next layer is free of rank 2 via (i, j), and both top quotients are
    copies of the nonnegative integers.  Spot-checked against the lab's
    independent bounded quotient search."""
    n = 3
    E = wild.enumerate_ladder(n, 6)
    # J1 = rung ideal: canonical forms are exactly the rung vectors
    rungs = [e for e in E if wild.ideal_member(e, Ideal.RUNGS)]
    seen = set()
    for e in rungs:
        _, _, _, k = e.raised(n)
        assert k not in seen  # injective
        seen.add(k)
        for f in rungs:
            ks = e.add(f).raised(n)[3]
            assert ks == tuple(a + b for a, b in zip(k, f.raised(n)[3]))  # additive
    assert seen == set(compositions(n, 6))  # surjective at the degree bound
    # J2/J1 ~ (Z+)^2 via (i, j) on the x-free layer
    xfree = [e for e in E if wild.ideal_member(e, Ideal.XFREE)]
    for e in xfree:
        for f in xfree:
            same = wild.cong_mod_ideal(e, f, Ideal.RUNGS)
            assert same == ((e.i, e.j) == (f.i, f.j)), (e, f)
    assert {(e.i, e.j) for e in xfree} == set(compositions(2, 6))
    # M/J2 ~ Z+ via m; Mbar/J2bar ~ Z+ via k
    for e in E[:300]:
        for f in E[:300:7]:
            assert wild.cong_mod_ideal(e, f, Ideal.XFREE) == (e.m == f.m)
    assert {e.m for e in E} == set(range(7))
    Eb = wild.enumerate_bar(3, 6)
    for e in Eb[:300]:
        for f in Eb[:300:7]:
            assert wild.cong_mod_ideal(e, f, Ideal.XFREE_BAR) == (e.k == f.k)
    assert {e.k for e in Eb} == set(range(7))
    # independent spot checks through the lab's bounded search
    o = ladder_oracle(2)
    b = SearchBound(max_degree=3, max_coefficient=4)
    member = lab.o_ideal_closure(o, [LadderElem.y(0), LadderElem.z(0)], b)
    assert lab.quotient_equal(o, member, LadderElem.x(0), LadderElem.x(1), b).is_holds
    assert lab.quotient_equal(o, member, LadderElem.x(0), LadderElem.x(0).scale(2), b).is_fails
    _report(12, "quotient tower: (Z+)^3, (Z+)^2, Z+, Z+ realized at deg<=6")


# -- 13: a non-stably-finite quotient of a stably finite monoid


def test_criterion_13_non_stably_finite_quotient():
    o = bar_oracle(2)
    b = SearchBound(max_degree=3, max_coefficient=4)
    member = lab.o_ideal_closure(o, [BarElem.zbar()], b)
    xb, yb = BarElem.xbar(0), BarElem.ybar()
    dec = lab.quotient_equal(o, member, xb.add(yb), xb, b)
    assert dec.is_holds
    sf = lab.check_property(o, lab.STABLY_FINITE, b)
    assert (sf.verdict.verdict, sf.verdict.note) == ("holds", "pair state certificate")
    sf = lab.check_property(o.replace(certified={}), lab.STABLY_FINITE, b)
    assert (sf.verdict.verdict, sf.verdict.note) == ("holds", "exhaustive at bound")
    _report(13, "bar mod z-ideal absorbs ybar0 while bar itself is stably finite")


# -- 14: the emitter-chain construction


def test_criterion_14_tilde_equivalence():
    g = graphs.DirectedGraph(
        ("v", "z"), (("e1", "v", "z"), ("e2", "v", "z"), ("e3", "v", "z")), "fan"
    )
    t = graphs.tilde_construction(g, {"v": ["e1", "e2", "e3"]}, depth=2)
    # row-finite by construction: the emitter and its chain emit <= 2 arrows each
    assert all(len(t.out_arrows(v)) <= 2 for v in ("v", "w_v_1", "w_v_2"))
    p_tilde = graphs.present_finitely_separated(graphs.unseparation(t))
    p_q = parse_presentation(
        "monoid fanq\n"
        "generators v z w_v_1 w_v_2\n"
        "relation v = z + w_v_1\n"
        "relation w_v_1 = z + w_v_2\n"
    )
    # same generators after the renaming, same relation set
    assert set(p_tilde.gens.names) == set(p_q.gens.names)
    # oracle equivalence: identical congruence classes for every word of
    # degree <= 5 (exhaustive over the 4 generators); the class bound must
    # accommodate rewriting v all the way down to sinks, hence degree 16
    b = SearchBound(max_degree=16)
    order = p_q.gens.names
    remap = [p_tilde.gens.names.index(nm) for nm in order]
    c1, c2 = ClassCache(p_q, b), ClassCache(p_tilde, b)
    words = [Word.of([(i, c) for i, c in enumerate(t_) if c]) for t_ in compositions(4, 5)]
    unknown = 0
    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            d1 = decide_equal(p_q, w1, w2, b, cache=c1)
            m1 = Word.of([(remap[g_], c) for g_, c in w1.exps])
            m2 = Word.of([(remap[g_], c) for g_, c in w2.exps])
            d2 = decide_equal(p_tilde, m1, m2, b, cache=c2)
            if d1.is_unknown or d2.is_unknown:
                unknown += 1
                continue
            assert d1.is_holds == d2.is_holds, (str(w1), str(w2))
    total = len(words) * (len(words) - 1) // 2
    assert unknown == 0, f"{unknown}/{total} unknown"
    _report(14, "tilde graph monoid = chain presentation (deg<=5, all words)", pairs=total, unknown=unknown)


# -- 15: path order in graph monoids


def test_criterion_15_path_order():
    b = SearchBound()
    holds = fails = total = 0
    for sg in (
        graphs.builtin_graph("e0c0"),
        graphs.builtin_graph("ec", 1),
        graphs.builtin_graph("ec", 2),
        graphs.builtin_graph("ebar", 1),
        graphs.builtin_graph("ebar", 2),
    ):
        p = graphs.present_finitely_separated(sg)
        cache = ClassCache(p, b)
        for _, src, rng_v in sg.graph.arrows:
            dec = decide_leq(p, p.word(rng_v), p.word(src), b, cache)
            total += 1
            holds += dec.is_holds
            fails += dec.is_fails
    assert fails == 0, f"{fails} Fails verdicts"
    assert holds >= 0.9 * total, f"only {holds}/{total} Holds"
    _report(15, "range(e) <= source(e) for every builtin arrow", arrows=total, holds=holds)


# -- 16: primitive normal form vs congruence closure


def _absorption_classes(poset, deg):
    """Union-find congruence closure on coefficient tuples of degree <= deg.
    Every defining relation e + f = f strictly lowers degree left to right, so
    closure inside the degree bound decides the full congruence there."""
    words = list(compositions(len(poset.primes), deg))
    index = {p: i for i, p in enumerate(poset.primes)}
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(a, bb):
        ra, rb = find(a), find(bb)
        if ra != rb:
            parent[ra] = rb

    for w in words:
        for e, f in poset.below:
            ie, jf = index[e], index[f]
            if e == f:
                if w[ie] >= 2:
                    lower = list(w)
                    lower[ie] -= 1
                    union(w, tuple(lower))
            elif w[ie] >= 1 and w[jf] >= 1:
                lower = list(w)
                lower[ie] -= 1
                union(w, tuple(lower))
    return words, find


def test_criterion_16_primitive_normal_form():
    """All transitive antisymmetric relations on up to 3 primes (2 + 12 + 152
    systems), exhaustive at degree <= 5, zero mismatches."""
    systems = 0
    for names in (["a"], ["a", "b"], ["a", "b", "c"]):
        for poset in primitive.enumerate_posets(names):
            systems += 1
            words, find = _absorption_classes(poset, 5)
            root_to_canon: dict = {}
            canon_to_root: dict = {}
            for w in words:
                e = primitive.normalize(poset, dict(zip(poset.primes, w)))
                r = find(w)
                assert root_to_canon.setdefault(r, e.coeffs) == e.coeffs, (poset, w)
                assert canon_to_root.setdefault(e.coeffs, r) == r, (poset, w)
    assert systems == 2 + 12 + 152
    _report(16, "primitive canonical form = congruence closure (deg<=5)", systems=systems)


def test_criterion_16b_poset_count_note():
    # the |D| = 3 count backing the sweep above
    assert len(primitive.enumerate_posets(["a", "b", "c"])) == 152
    _report(16, "poset enumeration count confirmed", size3=152)


# -- 17: irreducibles cancel


def _irreducible_cancellation(o, b):
    found, unknown = lab.irreducibles(o, b)
    assert not unknown
    E = o.elements(b.max_degree)
    checks = 0
    for a in found:
        sums: dict = {}
        for x in E:
            k = o.add(a, x)
            if k in sums:
                assert o.equal(sums[k], x).is_holds, (a, sums[k], x)
            else:
                sums[k] = x
            checks += 1
    return checks


def test_criterion_17_irreducible_cancellation():
    b = SearchBound(max_degree=5)
    n_checks = 0
    for n in (1, 2, 3):
        n_checks += _irreducible_cancellation(ladder_oracle(n), b)
    from refmon.oracles import primitive_oracle

    for names in (["a"], ["a", "b"], ["a", "b", "c"]):
        for poset in primitive.enumerate_posets(names):
            n_checks += _irreducible_cancellation(primitive_oracle(poset), b)
    _report(17, "a + b = a + c forces b = c for irreducible a (deg<=5)", checks=n_checks)
