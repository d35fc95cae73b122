"""Property lab: bounded checkers over the oracle facade."""
import itertools
import operator
import random

import pytest

from refmon import lab, primitive, wild
from refmon.decisions import Decision, SearchBound
from refmon.oracles import (
    MonoidOracle,
    bar_oracle,
    free_oracle,
    ladder_oracle,
    presentation_oracle,
    primitive_oracle,
)
from refmon.presentation import parse_presentation
from refmon.primitive import validate_poset
from refmon.wild import BarElem, Ideal, LadderElem
from refmon.words import Word, compositions, free_refine

B = SearchBound(max_degree=3, max_coefficient=3)


@pytest.fixture(scope="module")
def ladder():
    return ladder_oracle(2)


@pytest.fixture(scope="module")
def bar():
    return bar_oracle(2)


@pytest.fixture(scope="module")
def free2():
    return free_oracle(2)


# -- oracle facade basics


def test_exact_oracle_decisions_never_unknown(ladder):
    E = ladder.elements(2)
    for x in E[:10]:
        for y in E[:10]:
            assert not ladder.equal(x, y).is_unknown
            assert not ladder.leq(x, y).is_unknown


def test_bare_decisions_are_shared_and_frozen():
    assert Decision.holds() is Decision.holds()
    assert Decision.fails() is Decision.fails()
    assert Decision.holds().is_holds and Decision.fails().is_fails
    # one bare Unknown per bound, an equal bound included
    other = SearchBound(max_degree=4)
    assert Decision.unknown(B) is Decision.unknown(SearchBound(max_degree=3, max_coefficient=3))
    assert Decision.unknown() is Decision.unknown(None)
    assert Decision.unknown(other) is Decision.unknown(other) is not Decision.unknown(B)
    assert Decision.unknown(B).is_unknown and Decision.unknown(other).bound == other
    for shared in (Decision.holds(), Decision.fails(), Decision.unknown(), Decision.unknown(B)):
        with pytest.raises(AttributeError):
            shared.note = "changed"
        assert shared.note == "" and shared.witness is None and shared.counterexample is None


def test_decisions_with_content_are_fresh():
    fresh = [
        Decision.holds(witness=0),
        Decision.holds(witness=()),
        Decision.holds(note="n"),
        Decision.fails(counterexample=0),
        Decision.fails(note="n"),
        Decision.unknown(B, note="n"),
    ]
    for dec in fresh:
        assert dec is not Decision.holds() and dec is not Decision.fails() and dec is not Decision.unknown(B)
    assert Decision.holds(witness=1) is not Decision.holds(witness=1)
    assert Decision.fails(note="n") is not Decision.fails(note="n")
    assert Decision.unknown(B, note="n") is not Decision.unknown(B, note="n")
    assert fresh[0].witness == 0 and fresh[3].counterexample == 0
    assert (fresh[5].verdict, fresh[5].bound, fresh[5].note) == ("unknown", B, "n")


def test_ladder_state_is_additive_and_positive():
    """The witness behind the ladder oracle's positive state certificate:
    the "state" hom is > 0 off 0 and additive on the oracle's elements."""
    for n in (1, 2, 3):
        state = wild.standard_certificates(n)["state"]
        for e in wild.enumerate_ladder(n, 4):
            if not e.equal(LadderElem.zero()):
                assert state.apply(wild.ladder_word(e, n)) > 0, e
    o, state = ladder_oracle(2), wild.standard_certificates(2)["state"]
    E = o.elements(3)
    for x in E:
        for y in E[:15]:
            sx, sy = (state.apply(wild.ladder_word(e, 2)) for e in (x, y))
            assert state.apply(wild.ladder_word(o.add(x, y), 2)) == sx + sy, (x, y)
    assert ladder_oracle(2).certified[lab.ARCHIMEDEAN] == "positive state certificate"


def test_bar_oracle_has_no_state():
    """bar has no positive state (it is not archimedean); its certificates
    rest on the pair state, which is (0, 0) exactly on 0."""
    for n in (1, 2, 3):
        certs = wild.standard_certificates(n, "bar")
        assert "state" not in certs
        for e in wild.enumerate_bar(n, 5):
            assert (certs["pair_state"].apply(wild.bar_word(e, n)) == (0, 0)) == e.equal(BarElem.zero()), e
    assert bar_oracle(2).certified[lab.STABLY_FINITE] == "pair state certificate"
    assert lab.ARCHIMEDEAN not in bar_oracle(2).certified


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("family", ["ladder", "bar"])
def test_invariants_are_additive_and_monotone(family, level, c):
    """The counts the coordinate certificate reads: the ladder's x-count with
    its rungs a_1..a_level, bar's xbar count.  On every pair of c-fold
    multiples of the elements and of the oracle's generators, which reach two
    levels deeper than the elements: inv(x + y) = inv(x) + inv(y), and x <= y
    forces inv(x) <= inv(y) componentwise."""
    if family == "ladder":
        o, E = ladder_oracle(level), wild.enumerate_ladder(level, 4)

        def inv(e):
            # raising keeps the rungs it finds, and canonical lowering drops
            # a top rung that raising restores
            m, _, _, rungs = e.raised(max(level, e.level))
            return (m, *rungs[:level])

    else:
        o, E = bar_oracle(level), wild.enumerate_bar(level, 5)

        def inv(e):
            return (e.k,)

    E = [e.scale(c) for e in dict.fromkeys(E + list(o.generators))]
    assert max(e.level for e in E) == level + 2
    counts = [inv(x) for x in E]
    for x, ix in zip(E, counts):
        for y, iy in zip(E, counts):
            assert inv(o.add(x, y)) == tuple(map(operator.add, ix, iy)), (x, y)
            if o.leq(x, y).is_holds:
                assert all(map(operator.le, ix, iy)), (x, y)


def test_presentation_oracle_three_valued():
    p = wild.m0_presentation()
    o = presentation_oracle(p, SearchBound(max_degree=6))
    assert o.equal(p.word("x0 + y0"), p.word("x0 + z0")).is_holds
    assert o.equal(p.word("y0"), p.word("z0")).is_fails
    assert not o.exact
    assert o.fmt(p.word("2*x0")) == "2*x0"


# -- property checkers on the free monoid (everything good holds)


@pytest.mark.parametrize("prop", lab.PROPERTIES)
def test_free_monoid_has_all_properties(free2, prop):
    rep = lab.check_property(free2, prop, B, samples=60)
    assert rep.verdict.is_holds, rep.line()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_oracle_agrees_with_integer_tuples(rank):
    """free(rank) is the primitive monoid of an antichain; through its
    coefficient vectors it does the arithmetic of integer tuples."""
    o = free_oracle(rank)
    primes = [f"e{i}" for i in range(rank)]

    def vec(e):
        coeffs = dict(e.coeffs)
        return tuple(coeffs.get(p, 0) for p in primes)

    E = o.elements(3)
    assert [vec(x) for x in E] == list(compositions(rank, 3)) and vec(o.zero) == (0,) * rank
    by_sum: dict = {}
    for x, y in itertools.product(E, repeat=2):
        vx, vy = vec(x), vec(y)
        total, diff = tuple(map(operator.add, vx, vy)), tuple(map(operator.sub, vy, vx))
        assert vec(o.add(x, y)) == total
        assert o.equal(x, y).is_holds == (vx == vy)
        dec = o.leq(x, y)
        assert dec.is_holds == (min(diff, default=0) >= 0)
        assert dec.is_fails or vec(dec.witness) == diff
        by_sum.setdefault(total, []).append((x, y))
    for pairs in by_sum.values():  # every a + b = c + d
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            (z11, z12), (z21, z22) = o.refine(a, b, c, d).witness
            assert tuple(map(vec, (z11, z12, z21, z22))) == free_refine(vec(a), vec(b), vec(c), vec(d))


def test_report_line_format(free2):
    rep = lab.check_property(free2, lab.CONICAL, B)
    assert "conical: holds" in rep.line("free(2)")
    assert rep.line("free(2)").startswith("free(2): ")


def test_unknown_property_id_rejected(free2):
    with pytest.raises(ValueError, match="unknown property id"):
        lab.check_property(free2, "frobnicate", B)


# -- the ladder monoid: the headline verdict pattern


def test_ladder_stably_finite_but_not_cancellative(ladder):
    assert lab.check_property(ladder, lab.STABLY_FINITE, B).verdict.is_holds
    rep = lab.check_property(ladder, lab.CANCELLATIVE, B)
    assert rep.verdict.is_fails
    x, y, z = rep.verdict.counterexample
    assert ladder.equal(ladder.add(x, z), ladder.add(y, z)).is_holds
    assert ladder.equal(x, y).is_fails


def test_ladder_refinement_and_order_properties(ladder):
    assert lab.check_property(ladder, lab.REFINEMENT, B, samples=40).verdict.is_holds
    assert lab.check_property(ladder, lab.CONICAL, B).verdict.is_holds
    assert lab.check_property(ladder, lab.ARCHIMEDEAN, B).verdict.is_holds
    assert lab.check_property(ladder, lab.ANTISYMMETRIC, B).verdict.is_holds


def test_ladder_separative_at_bound(ladder):
    # non-cancellation here never takes the 2x = 2y = x + y shape: whenever
    # both squares and the mixed sum agree the summands already agree
    rep = lab.check_property(ladder, lab.SEPARATIVE, B)
    assert (rep.verdict.verdict, rep.verdict.note) == ("holds", "coordinate certificate")
    rep = lab.check_property(_uncertified(ladder), lab.SEPARATIVE, B)
    assert (rep.verdict.verdict, rep.verdict.note) == ("holds", "exhaustive at bound")


# -- the bar monoid: non-archimedean, still stably finite


def test_bar_stably_finite_by_sweep(bar):
    # the pair state certifies it, and the sweep it replaces agrees
    rep = lab.check_property(bar, lab.STABLY_FINITE, B)
    assert (rep.verdict.verdict, rep.verdict.note) == ("holds", "pair state certificate")
    rep = lab.check_property(bar.replace(certified={}), lab.STABLY_FINITE, B)
    assert (rep.verdict.verdict, rep.verdict.note) == ("holds", "exhaustive at bound")


def test_bar_not_archimedean(bar):
    rep = lab.check_property(bar, lab.ARCHIMEDEAN, B)
    assert rep.verdict.is_fails
    x, y, _ = rep.verdict.counterexample
    # every tested multiple of x fits below y
    assert bar.leq(lab._multiples(bar, x, B.max_coefficient)[-1], y).is_holds


def test_bar_not_cancellative(bar):
    assert lab.check_property(bar, lab.CANCELLATIVE, B).verdict.is_fails


def test_archimedean_never_holds_by_enumeration():
    # without a state, enumeration alone must not certify archimedean
    poset = validate_poset(["p"], [])
    o = _uncertified(primitive_oracle(poset))
    rep = lab.check_property(o, lab.ARCHIMEDEAN, B)
    assert rep.verdict.is_unknown


# -- primitive monoids


def test_primitive_idempotent_breaks_cancellation():
    poset = validate_poset(["p", "q"], [("p", "p"), ("p", "q")])
    o = primitive_oracle(poset)
    assert lab.check_property(o, lab.CANCELLATIVE, B).verdict.is_fails
    assert lab.check_property(o, lab.CONICAL, B).verdict.is_holds
    assert lab.check_property(o, lab.STABLY_FINITE, B).verdict.is_fails


# -- consistency invariants across oracles


@pytest.mark.parametrize("make", [lambda: free_oracle(2), lambda: ladder_oracle(1), lambda: bar_oracle(1)])
def test_property_implications(make):
    o = make()
    reps = {p: lab.check_property(o, p, B, samples=40).verdict for p in lab.PROPERTIES}
    # cancellative implies separative implies strongly separative's converse etc.
    if reps[lab.CANCELLATIVE].is_holds:
        assert not reps[lab.SEPARATIVE].is_fails
        assert not reps[lab.STRONGLY_SEPARATIVE].is_fails
    if reps[lab.STRONGLY_SEPARATIVE].is_holds:
        assert not reps[lab.SEPARATIVE].is_fails
    if reps[lab.CANCELLATIVE].is_holds and reps[lab.CONICAL].is_holds:
        assert not reps[lab.ANTISYMMETRIC].is_fails


# -- irreducibles


def test_ladder_irreducibles_are_deep_rungs(ladder):
    found, unknown = lab.irreducibles(ladder, SearchBound(max_degree=2))
    assert not unknown
    assert set(found) == {LadderElem.a(1), LadderElem.a(2)}


def test_bar_irreducibles(bar):
    found, unknown = lab.irreducibles(bar, SearchBound(max_degree=2))
    assert not unknown
    assert set(found) == {BarElem.ybar(), BarElem.zbar()}


def test_free_irreducibles(free2):
    found, _ = lab.irreducibles(free2, SearchBound(max_degree=2))
    assert sorted(map(str, found)) == ["e0", "e1"]


def _irreducibles_over_the_whole_pool(o, b, pool=None):
    """The irreducibles scan as it was before it read only the generators:
    every nonzero element of `pool(b.max_degree)`, the oracle's elements by
    default, is a candidate a <= x."""
    pool = [a for a in (pool or o.elements)(b.max_degree) if not o.is_zero(a).is_holds]
    found, unknown = [], []
    for x in o.elements(b.max_degree):
        if o.is_zero(x).is_holds:
            continue
        sw = lab._Sweep()
        if sw.definite(o.equal(o.add(x, x), x)):
            continue
        for a in pool:
            if sw.definite(o.leq(a, x)) and sw.definite(o.equal(a, x)) is False:
                break
        else:
            if sw.unknowns:
                unknown.append(x)
            elif not any(o.equal(x, y).is_holds for y in found):
                found.append(x)
    return found, unknown


def _relation(text):
    return parse_presentation(f"monoid R\ngenerators x y\nrelation {text}\n")


def _truncation_oracle(n, kind, b):
    certs = tuple(wild.standard_certificates(n, kind).values())
    return presentation_oracle(wild.truncation_presentation(n, kind), b, certs)


# name -> (oracle factory of the bound, the whole pool by degree or None for
# the oracle's elements, degrees); the ladder and bar pools reach two levels
# deeper than the oracle's elements
_IRREDUCIBLE_ORACLES = {
    **{f"ladder:{n}": (lambda b, n=n: ladder_oracle(n), lambda d, n=n: wild.enumerate_ladder(n + 2, d), range(2, 6))
       for n in (1, 2, 3)},
    **{f"bar:{n}": (lambda b, n=n: bar_oracle(n), lambda d, n=n: wild.enumerate_bar(n + 2, d), range(2, 7))
       for n in (1, 2, 3, 4)},
    "free:3": (lambda b: free_oracle(3), None, range(1, 4)),
    "m0": (lambda b: presentation_oracle(wild.m0_presentation(), b), None, range(1, 4)),
    **{f"{kind}:1-presentation": (lambda b, kind=kind: _truncation_oracle(1, kind, b), None, range(2, 5))
       for kind in ("ladder", "bar")},
    **{f"relation {rel}": (lambda b, rel=rel: presentation_oracle(_relation(rel), b), None, range(1, 4))
       for rel in ("x = 3*x", "x = 2*x + y")},
}


@pytest.mark.parametrize("name", _IRREDUCIBLE_ORACLES)
def test_irreducibles_over_generators_match_the_whole_pool(name):
    make, pool, degrees = _IRREDUCIBLE_ORACLES[name]
    for degree in degrees:
        b = SearchBound(max_degree=degree)
        assert lab.irreducibles(make(b), b) == _irreducibles_over_the_whole_pool(make(b), b, pool), degree


def test_irreducibles_over_generators_match_the_whole_pool_on_small_posets():
    for poset in primitive.enumerate_posets(["p", "q", "r"]):
        for degree in (1, 2, 3):
            b = SearchBound(max_degree=degree)
            got = lab.irreducibles(primitive_oracle(poset), b)
            assert got == _irreducibles_over_the_whole_pool(primitive_oracle(poset), b), (poset, degree)


# -- o-ideals and quotients


def test_o_ideal_closure_matches_closed_forms(ladder):
    b = SearchBound(max_degree=3, max_coefficient=6)
    member = lab.o_ideal_closure(ladder, [LadderElem.a(1), LadderElem.a(2)], b)
    for e in ladder.elements(3):
        dec = member(e)
        if dec.is_unknown:
            continue
        assert dec.is_holds == wild.ideal_member(e, Ideal.RUNGS), e


def test_quotient_equal_examples(ladder):
    b = SearchBound(max_degree=3, max_coefficient=4)
    member = lab.o_ideal_closure(ladder, [LadderElem.a(1), LadderElem.a(2)], b)
    y0, z0 = LadderElem.y(0), LadderElem.z(0)
    # y0 and y2 merge modulo the rung ideal; y0 and z0 stay apart
    assert lab.quotient_equal(ladder, member, y0, LadderElem.y(2), b).is_holds
    assert lab.quotient_equal(ladder, member, y0, z0, b).is_fails


def test_quotient_equal_bar_z_ideal(bar):
    b = SearchBound(max_degree=3, max_coefficient=4)
    member = lab.o_ideal_closure(bar, [BarElem.zbar()], b)
    xb, yb = BarElem.xbar(0), BarElem.ybar()
    assert lab.quotient_equal(bar, member, xb.add(yb), xb, b).is_holds
    assert lab.quotient_equal(bar, member, yb, BarElem.zero(), b).is_fails


# -- wildness certificates


def test_wildness_certificates(ladder, bar, free2):
    rep = lab.wildness_certificate(ladder, B, samples=60)
    assert rep.verdict.is_holds
    assert "not cancellative" in rep.verdict.note
    rep2 = lab.wildness_certificate(bar, B, samples=60)
    assert rep2.verdict.is_holds
    rep3 = lab.wildness_certificate(free2, B, samples=60)
    assert (rep3.verdict.verdict, rep3.verdict.note) == ("fails", _TAME)
    rep4 = lab.wildness_certificate(_uncertified(free2), B, samples=60)
    assert rep4.verdict.is_unknown
    assert "consistent with tame" in rep4.verdict.note


def test_tame_clause_needs_finite_generation_and_certified_refinement(ladder, bar):
    """The ladder and bar monoids are inductive limits, and a presentation
    oracle certifies no refinement, even of a primitive monoid's
    presentation: none of them reads tame."""
    b = SearchBound(max_degree=2, max_coefficient=3)
    prim = presentation_oracle(primitive.presentation_of(_CHAIN), b)
    assert prim.finitely_generated and lab.REFINEMENT not in prim.certified
    assert not ladder.finitely_generated and not bar.finitely_generated
    for o in (ladder, bar, prim):
        assert lab.wildness_certificate(o, b, samples=60).verdict.note != _TAME
    assert lab.wildness_certificate(primitive_oracle(_CHAIN), b).verdict.note == _TAME


# -- Unknown branches of the existential searches, on m0 at degree 3: the
# inner oracle calls hit the degree cap, and no witness found must then read
# Unknown at the bound, never Fails

_M0_B = SearchBound(max_degree=3)


def _m0_recording():
    """The m0 presentation oracle at degree 3, and a list that collects every
    Unknown its equal and leq answer."""
    o = presentation_oracle(wild.m0_presentation(), _M0_B)
    unknowns = []

    def recorded(fn):
        def f(x, y):
            dec = fn(x, y)
            if dec.is_unknown:
                unknowns.append(dec)
            return dec

        return f

    return o.replace(equal=recorded(o.equal), leq=recorded(o.leq)), unknowns


def test_existential_searches_answer_unknown_at_the_bound():
    o, unknowns = _m0_recording()
    w = wild.m0_presentation().word
    member = lab.o_ideal_closure(o, [w("y0")], _M0_B)
    pairs = [(x, y) for x in o.elements(2) for y in o.elements(2)]
    calls = [lambda x=x: member(x) for x in o.elements(3)]
    calls += [lambda x=x, y=y: lab.quotient_equal(o, member, x, y, _M0_B) for x, y in pairs]
    answered = []
    for call in calls:
        unknowns.clear()
        dec = call()
        answered.append(dec.verdict)
        if unknowns and not dec.is_holds:
            assert dec == Decision.unknown(_M0_B)
        elif not dec.is_holds:
            assert dec.is_fails
    assert "unknown" in answered and "fails" not in answered
    for dec in (
        member(w("z0")),
        lab.quotient_equal(o, member, w("z0"), Word(), _M0_B),
    ):
        assert dec == Decision.unknown(_M0_B)


@pytest.mark.parametrize("degree, found", [(1, False), (2, True), (3, True)])
def test_m0_irreducibles_unknown_below_the_degree_they_need(degree, found):
    """At degree 1 the scan cannot decide whether x0, y0 and z0 decompose, so
    they are listed as unknown, not found."""
    b = SearchBound(max_degree=degree)
    p = wild.m0_presentation()
    got = lab.irreducibles(presentation_oracle(p, b), b)
    gens = {p.word(g) for g in ("x0", "y0", "z0")}
    assert (set(got[0]), set(got[1])) == ((gens, set()) if found else (set(), gens))


# -- sampled forall-exists checks: verdicts and counterexamples pinned at
# small degrees and 60 samples, so any change to the draws or the witness
# search shows here.  The exact oracles certify refinement and Riesz
# decomposition, so the sampled checks are pinned on uncertified copies

_CLOSED_FORM = "closed-form refinement certificate"


def _sampled_report(o, check, b, samples):
    """The report of `check` on `o` with its certificates dropped.  Where
    `o` certifies `check`, `o`'s own report must read Holds with the
    certificate's note, closed-form refinement for refinement and Riesz
    decomposition on an exact oracle; elsewhere it must be the sampled
    report itself."""
    rep = lab.check_property(_uncertified(o), check, b, samples)
    own = lab.check_property(o, check, b, samples).verdict
    if o.exact and check in (lab.REFINEMENT, lab.RIESZ_DECOMPOSITION):
        assert (own.verdict, own.note) == ("holds", _CLOSED_FORM)
    elif check in o.certified:
        assert (own.verdict, own.note) == ("holds", o.certified[check])
    else:
        assert own == rep.verdict
    return rep

_SAMPLED = {  # oracle factory, degree bound
    "ladder": (lambda: ladder_oracle(2), 3),
    "ladder-deg4": (lambda: ladder_oracle(2), 4),
    "bar": (lambda: bar_oracle(3), 3),
    "free": (lambda: free_oracle(2), 3),
    "m0": (lambda: presentation_oracle(wild.m0_presentation(), SearchBound(max_degree=3)), 3),
}

_PINNED = [
    ("ladder", "riesz-decomposition", "holds", "15 sampled instances decomposed", None),
    ("ladder", "riesz-interpolation", "holds", "15 sampled instances interpolated", None),
    ("ladder-deg4", "riesz-interpolation", "fails", "no bounded interpolant found",
     ("4*z2", "2*y2 + z2 + a2", "x0 + 2*y0", "3*x1 + y1")),
    ("bar", "riesz-decomposition", "holds", "15 sampled instances decomposed", None),
    ("bar", "riesz-interpolation", "holds", "15 sampled instances interpolated", None),
    ("free", "riesz-decomposition", "holds", "15 sampled instances decomposed", None),
    ("free", "riesz-interpolation", "holds", "15 sampled instances interpolated", None),
    # Unknown notes end in the count of unknown hypothesis verdicts
    ("m0", "riesz-decomposition", "unknown", "15 sampled instances decomposed; 9 unknown", None),
    ("m0", "riesz-interpolation", "holds", "15 sampled instances interpolated", None),
]


@pytest.mark.parametrize("oracle, check, verdict, note, counterexample", _PINNED)
def test_sampled_checks_pinned(oracle, check, verdict, note, counterexample):
    make, degree = _SAMPLED[oracle]
    o, b = make(), SearchBound(max_degree=degree)
    rep = _sampled_report(o, check, b, 60)
    dec = rep.verdict
    assert rep.property == check
    assert dec.verdict == verdict
    if verdict == "unknown":
        assert dec.note.startswith(note)
    else:
        assert dec.note == note
    shown = None if dec.counterexample is None else tuple(o.fmt(x) for x in dec.counterexample)
    assert shown == counterexample


# -- both Riesz checks at the lab sheet's bounds and 100 samples, where the
# draws hand their hypothesis verdicts to the witness searches

_LAB_SHEET = {  # oracle factory of the bound, bound
    "ladder:2": (lambda b: ladder_oracle(2), SearchBound(max_degree=5, max_coefficient=5)),
    "bar:3": (lambda b: bar_oracle(3), SearchBound(max_degree=6, max_coefficient=5)),
    "m0": (lambda b: presentation_oracle(wild.m0_presentation(), b), SearchBound(max_degree=3, max_coefficient=5)),
}

_PINNED_LAB_SHEET = [
    ("ladder:2", "riesz-decomposition", "holds", "25 sampled instances decomposed", None),
    ("ladder:2", "riesz-interpolation", "fails", "no bounded interpolant found",
     ("z2", "y1", "3*x2 + y2 + a2", "2*y1 + z1")),
    ("bar:3", "riesz-decomposition", "holds", "25 sampled instances decomposed", None),
    ("bar:3", "riesz-interpolation", "holds", "25 sampled instances interpolated", None),
    ("m0", "riesz-decomposition", "fails", "no bounded decomposition found", ("2*y0", "y0 + z0", "x0")),
    ("m0", "riesz-interpolation", "holds", "25 sampled instances interpolated", None),
]


def _sample_equations_as_a_list(o, E, rng, samples):
    """lab._sample_equations as it was first written, drawing every equation
    before the first is refined."""
    out = []
    attempts = 0
    while len(out) < samples and attempts < samples * 30:
        attempts += 1
        a, bb = rng.choice(E), rng.choice(E)
        s = o.add(a, bb)
        c = rng.choice(E)
        dec = o.leq(c, s)
        if dec.is_holds:
            out.append((a, bb, c, dec.witness))
    return out


_CHAIN = primitive.PrimePoset(("p", "q", "r"), frozenset({("p", "q"), ("q", "r"), ("p", "r")}))
_LAB_SHEET_ORACLES = {  # the lab sheet's five oracles: factory, bound
    **{name: (lambda make=make, b=b: make(b), b) for name, (make, b) in _LAB_SHEET.items()},
    "prim-free": (
        lambda: primitive_oracle(primitive.PrimePoset(("p", "q", "r"), frozenset()), "prim-free"),
        SearchBound(max_degree=2, max_coefficient=3),
    ),
    "prim-chain": (lambda: primitive_oracle(_CHAIN, "prim-chain"), SearchBound(max_degree=2, max_coefficient=3)),
}


@pytest.mark.parametrize("name", _LAB_SHEET_ORACLES)
@pytest.mark.parametrize("samples", [1, 7, 100])
def test_sampled_equations_are_drawn_as_the_list_drew_them(name, samples):
    make, b = _LAB_SHEET_ORACLES[name]
    E = make().elements(b.max_degree)
    want = _sample_equations_as_a_list(make(), E, random.Random(lab._SEED), samples)
    got = lab._sample_equations(make(), E, random.Random(lab._SEED), samples)
    assert not isinstance(got, list)
    assert list(got) == want and len(want) == samples


@pytest.mark.parametrize("oracle, check, verdict, note, counterexample", _PINNED_LAB_SHEET)
def test_riesz_checks_pinned_at_lab_sheet_bounds(oracle, check, verdict, note, counterexample):
    make, b = _LAB_SHEET[oracle]
    o = make(b)
    dec = _sampled_report(o, check, b, 100).verdict
    assert (dec.verdict, dec.note) == (verdict, note)
    shown = None if dec.counterexample is None else tuple(o.fmt(x) for x in dec.counterexample)
    assert shown == counterexample


# -- the lab on primitive oracles: verdicts and counterexamples pinned at the
# lab sheet's bounds (degree 2, coefficients up to 3, 100 samples), swept on
# uncertified copies, and the certificates the oracles answer with instead.
# prim_leq's complement feeds the sampled equations and both Riesz checks, so
# a different complement would move a witness here

_POSETS = {
    "prim-free": validate_poset(["p", "q", "r"], []),
    "prim-chain": validate_poset(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")]),
}

_EXHAUSTIVE = "exhaustive at bound"
_PINNED_PRIMITIVE = [
    *[("prim-free", prop, "holds", _EXHAUSTIVE, None) for prop in (
        "conical", "stably-finite", "separative", "strongly-separative", "cancellative",
        "unperforated", "antisymmetric")],
    ("prim-free", "archimedean", "unknown",
     "enumeration cannot certify archimedean; no state available", None),
    ("prim-free", "refinement", "holds", "100 sampled equations refined", None),
    ("prim-free", "riesz-decomposition", "holds", "25 sampled instances decomposed", None),
    ("prim-free", "riesz-interpolation", "holds", "25 sampled instances interpolated", None),
    ("prim-free", "wildness", "unknown", "no wildness evidence at bound (consistent with tame)", None),
    ("prim-chain", "conical", "holds", _EXHAUSTIVE, None),
    ("prim-chain", "stably-finite", "fails", "x + y = x with y nonzero", ("r", "q")),
    ("prim-chain", "separative", "holds", _EXHAUSTIVE, None),
    ("prim-chain", "strongly-separative", "holds", _EXHAUSTIVE, None),
    ("prim-chain", "cancellative", "fails", "x + z = y + z with x != y", ("q", "0", "r")),
    ("prim-chain", "unperforated", "holds", _EXHAUSTIVE, None),
    ("prim-chain", "antisymmetric", "holds", _EXHAUSTIVE, None),
    ("prim-chain", "archimedean", "fails", "n*x <= y for all tested n with x nonzero", ("q", "r", "6")),
    ("prim-chain", "refinement", "holds", "100 sampled equations refined", None),
    ("prim-chain", "riesz-decomposition", "holds", "25 sampled instances decomposed", None),
    ("prim-chain", "riesz-interpolation", "holds", "25 sampled instances interpolated", None),
    ("prim-chain", "wildness", "unknown", "no wildness evidence at bound (consistent with tame)", None),
]


_POSET_CERTIFICATE = "primitive poset certificate"
_TAME = "finitely generated refinement monoid, tame by definition"
_PINNED_PRIMITIVE_CERTIFIED = [
    *[("prim-free", prop, "holds", _POSET_CERTIFICATE) for prop in (
        "conical", "stably-finite", "separative", "strongly-separative", "cancellative",
        "unperforated", "antisymmetric", "archimedean")],
    *[("prim-chain", prop, "holds", _POSET_CERTIFICATE) for prop in (
        "conical", "separative", "strongly-separative", "unperforated", "antisymmetric")],
    *[(poset, prop, "holds", _CLOSED_FORM) for poset in _POSETS for prop in ("refinement", "riesz-decomposition")],
    *[(poset, "wildness", "fails", _TAME) for poset in _POSETS],
]


@pytest.mark.parametrize("poset, check, verdict, note, counterexample", _PINNED_PRIMITIVE)
def test_primitive_lab_pinned(poset, check, verdict, note, counterexample):
    o = primitive_oracle(_POSETS[poset], poset)
    b = SearchBound(max_degree=2, max_coefficient=3)
    if check == "wildness":
        rep = lab.wildness_certificate(_uncertified(o), b, samples=100)
    else:
        rep = _sampled_report(o, check, b, 100)
    dec = rep.verdict
    assert rep.property == check
    assert (dec.verdict, dec.note) == (verdict, note)
    shown = None if dec.counterexample is None else tuple(o.fmt(x) for x in dec.counterexample)
    assert shown == counterexample


@pytest.mark.parametrize("poset, check, verdict, note", _PINNED_PRIMITIVE_CERTIFIED)
def test_primitive_lab_certified_pinned(poset, check, verdict, note):
    o = primitive_oracle(_POSETS[poset], poset)
    b = SearchBound(max_degree=2, max_coefficient=3)
    if check == "wildness":
        rep = lab.wildness_certificate(o, b, samples=100)
    else:
        rep = lab.check_property(o, check, b, samples=100)
    dec = rep.verdict
    assert (rep.property, dec.verdict, dec.note, dec.counterexample) == (check, verdict, note, None)


# -- the pairwise sweeps run over all pairs: the invariant pruning the
# strongly-separative sweep once had is gone, and the tests below that keep
# its names check the sweeps against the certificates and pinned
# counterexamples

_PAIRWISE = (lab.UNPERFORATED, lab.STRONGLY_SEPARATIVE, lab.ANTISYMMETRIC)
_B4 = SearchBound(max_degree=4, max_coefficient=3)


def _report(o, prop, b):
    return lab.check_property(o, prop, b).verdict


def _uncertified(o):
    return o.replace(certified={})


def _unrefined(a, b, c, d):
    """The refine of the hand-built oracles below, which no test here asks
    to refine."""
    return Decision.unknown(note="no refinement for this oracle")


def _degree_oracle(name, zero, add, elements, degree):
    """Exact oracle over canonical elements whose positive state is the
    degree, with the state's certificates; x <= y is decided by searching
    the complement among elements of degree degree(y) - degree(x)."""

    def leq(x, y):
        d = degree(y) - degree(x)
        c = next((c for c in elements(max(d, 0)) if degree(c) == d and add(x, c) == y), None)
        return Decision.fails() if c is None else Decision.holds(witness=c)

    return MonoidOracle(
        name=name,
        zero=zero,
        add=add,
        equal=lambda x, y: Decision.holds() if x == y else Decision.fails(),
        leq=leq,
        elements=elements,
        refine=_unrefined,
        exact=True,
        certified=dict.fromkeys(
            (lab.CONICAL, lab.STABLY_FINITE, lab.ANTISYMMETRIC, lab.ARCHIMEDEAN), "positive state certificate"
        ),
    )


def _numerical_2_3():
    """The numerical semigroup <2, 3>; an element is its integer value."""
    return _degree_oracle("<2,3>", 0, operator.add, lambda d: [n for n in range(d + 1) if n != 1], lambda n: n)


def _pq_oracle(name, canon):
    """A monoid on a, b; elements are canonical pairs (p, q) for p*a + q*b."""

    def add(x, y):
        return canon(x[0] + y[0], x[1] + y[1])

    def elements(d):
        return list(dict.fromkeys(canon(p, n - p) for n in range(d + 1) for p in range(n + 1)))

    return _degree_oracle(name, (0, 0), add, elements, sum)


def _mixing():
    """<a, b | 2a = a + b>: with an a present, only the degree counts."""
    return _pq_oracle("<a,b|2a=a+b>", lambda p, q: (1, p + q - 1) if p else (0, q))


def _square():
    """<a, b | 2a = 2b>: the degree and the parity of p count."""
    return _pq_oracle("<a,b|2a=2b>", lambda p, q: (p % 2, p + q - p % 2))


@pytest.mark.parametrize("make", [lambda: ladder_oracle(2), lambda: free_oracle(3), lambda: bar_oracle(3)])
@pytest.mark.parametrize("b", [B, _B4])
@pytest.mark.parametrize("prop", _PAIRWISE)
def test_state_pruning_keeps_the_report(make, b, prop):
    """The oracle's certificate, and the full sweep of its uncertified copy,
    read Holds."""
    o = make()
    cert, swept = _report(o, prop, b), _report(_uncertified(o), prop, b)
    assert (cert.verdict, cert.note) == ("holds", o.certified[prop])
    assert (swept.verdict, swept.note) == ("holds", "exhaustive at bound")


@pytest.mark.parametrize(
    "make, prop, counterexample",
    [
        (_numerical_2_3, lab.UNPERFORATED, (2, 3, 2)),
        (_mixing, lab.STRONGLY_SEPARATIVE, ((1, 0), (0, 1))),
        (_square, lab.UNPERFORATED, ((0, 1), (1, 0), 2)),
    ],
)
def test_state_pruning_keeps_small_counterexamples(make, prop, counterexample):
    """Three exact monoids whose first counterexample sits on a pair with
    different states (2 <= 3 in <2, 3>), or with equal ones (a and b of
    degree 1)."""
    rep = _report(make(), prop, _B4)
    assert rep.is_fails and rep.counterexample == counterexample


@pytest.mark.parametrize("make", [lambda: ladder_oracle(2), lambda: free_oracle(3), _numerical_2_3, _mixing, _square])
@pytest.mark.parametrize("b", [B, _B4])
def test_antisymmetric_state_certificate_matches_the_sweep(make, b):
    o = make()
    cert, sweep = _report(o, lab.ANTISYMMETRIC, b), _report(_uncertified(o), lab.ANTISYMMETRIC, b)
    assert cert.note == "positive state certificate"
    assert sweep.note == "exhaustive at bound"
    assert cert.verdict == sweep.verdict == "holds"


# -- cancellable elements: the cancellative sweep skips every cancellable z,
# which is sound only if x -> x + z is injective for each of them, and must
# keep the report


def _not_injective(o, d):
    """The first z of degree <= d that `o.cancellable` names but whose
    translation x -> x + z identifies two elements of degree <= d, with
    those two; None if there is none."""
    E = o.elements(d)
    for z in E:
        if o.cancellable(z):
            seen = {}
            for x in E:
                y = seen.setdefault(o.add(x, z), x)
                if y != x:
                    return z, y, x
    return None


@pytest.mark.parametrize("make, d", [(ladder_oracle, 5), (bar_oracle, 6)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cancellable_elements_cancel(make, d, n):
    assert _not_injective(make(n), d) is None


def test_cancellable_check_rejects_a_wrong_predicate():
    """x0 + y0 = x0 + z0, so x0 does not cancel."""
    o = ladder_oracle(2).replace(cancellable=lambda e: True)
    z, y, x = _not_injective(o, 2)
    assert o.add(x, z) == o.add(y, z) and x != y


def test_only_exact_oracles_name_cancellable_elements():
    with pytest.raises(ValueError, match="only an exact oracle"):
        ladder_oracle(2).replace(exact=False)


_CANCELLABLE_CASES = [(ladder_oracle, n, d) for n in (1, 2, 3) for d in (3, 5)] + [
    (bar_oracle, n, d) for n in (1, 2, 3) for d in (4, 6)
]


@pytest.mark.parametrize("make, n, d", _CANCELLABLE_CASES)
@pytest.mark.parametrize("prop", [lab.CANCELLATIVE, lab.STRONGLY_SEPARATIVE])
def test_cancellable_pruning_keeps_the_report(make, n, d, prop):
    """The cancellative sweep that skips cancellable elements reports what
    the full sweep reports.  The strongly-separative sweep skips none any
    more; its cases check that the coordinate certificate reads what the
    full sweep reads."""
    o = make(n)
    b = SearchBound(max_degree=d, max_coefficient=5)
    pruned = lab.check_property(o, prop, b).verdict
    full = lab.check_property(_uncertified(o).replace(cancellable=None), prop, b).verdict
    if prop == lab.STRONGLY_SEPARATIVE:
        assert (pruned.note, full.note) == ("coordinate certificate", "exhaustive at bound")
        pruned, full = pruned.verdict, full.verdict
    assert pruned == full


def test_cancellable_pruning_keeps_small_counterexamples():
    """In <a, b | 2a = a + b> the multiples of b cancel, and the first 2x = x
    + y with x != y is x = a, y = b, which the sweep still visits."""
    o = _mixing().replace(cancellable=lambda e: e[0] == 0)
    assert _not_injective(o, 6) is None
    a, b = (1, 0), (0, 1)
    for prop, counterexample in ((lab.CANCELLATIVE, (a, b, a)), (lab.STRONGLY_SEPARATIVE, (a, b))):
        rep = _report(o, prop, _B4)
        assert rep.is_fails and rep.counterexample == counterexample
        assert rep == _report(o.replace(cancellable=None), prop, _B4)


def test_cancellable_elements_save_additions():
    """ladder:2 at the lab-sheet bound: z = 0, z0, ..., 5*y0 all cancel, so
    the sweep adds to no z before x0; the full sweep makes 6,013 additions."""
    calls = [0]
    o = ladder_oracle(2)
    inner = o.add

    def add(x, y):
        calls[0] += 1
        return inner(x, y)

    rep = lab.check_property(o.replace(add=add), lab.CANCELLATIVE, SearchBound(max_degree=5, max_coefficient=5))
    assert rep.verdict.is_fails
    assert calls[0] < 300


# -- the exact oracles' certificates: unperforation by the homogeneous order
# (m*x <= m*y iff x <= y), refinement and Riesz decomposition by closed-form
# refinement, the rest by a state.  The sweep each certificate replaces never
# answers Fails; all but unperforation are swept two degrees lower, which
# keeps the tests to a few seconds


def _certificates_match_the_sweep(o, deg):
    swept = _uncertified(o)
    for prop, note in o.certified.items():
        b = SearchBound(max_degree=deg if prop == lab.UNPERFORATED else deg - 2, max_coefficient=5)
        cert, sweep = _report(o, prop, b), _report(swept, prop, b)
        assert (cert.verdict, cert.note) == ("holds", note)
        assert not sweep.is_fails, (prop, sweep.counterexample)


@pytest.mark.parametrize("make", [ladder_oracle, bar_oracle, free_oracle])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("deg", [3, 4, 5])
def test_unperforation_certificate_matches_the_sweep(make, n, deg):
    o = make(n)
    assert o.certified[lab.UNPERFORATED] == "homogeneous order certificate"
    _certificates_match_the_sweep(o, deg)


# the lab-sheet posets and every poset on two primes
_CERTIFIED_POSETS = {**_POSETS, **{
    "2-primes " + (" ".join(f"{e}<{f}" for e, f in sorted(poset.below)) or "antichain"): poset
    for poset in primitive.enumerate_posets(["p", "q"])
}}

# the properties that the poset rules decide, each certified or left out
_POSET_RULED = (
    lab.CONICAL, lab.STABLY_FINITE, lab.SEPARATIVE, lab.STRONGLY_SEPARATIVE,
    lab.CANCELLATIVE, lab.UNPERFORATED, lab.ANTISYMMETRIC, lab.ARCHIMEDEAN,
)


def _poset_rules(poset):
    """The properties the poset certifies, by the rules in lab.py's
    Certificates paragraph: four always, strong separativity without an
    idempotent p < p, and three more without any pair e < f at all."""
    idempotent = any(e == f for e, f in poset.below)
    held = {lab.CONICAL, lab.ANTISYMMETRIC, lab.UNPERFORATED, lab.SEPARATIVE}
    if not idempotent:
        held.add(lab.STRONGLY_SEPARATIVE)
    if not poset.below:
        held |= {lab.STABLY_FINITE, lab.CANCELLATIVE, lab.ARCHIMEDEAN}
    return held


@pytest.mark.parametrize("name", _CERTIFIED_POSETS)
@pytest.mark.parametrize("deg", [3, 4, 5])
def test_closed_form_certificates_match_the_sweep_on_primitive_oracles(name, deg):
    poset = _CERTIFIED_POSETS[name]
    o = primitive_oracle(poset, name)
    assert set(o.certified) == _poset_rules(poset) | {lab.REFINEMENT, lab.RIESZ_DECOMPOSITION}
    _certificates_match_the_sweep(o, deg)


_SMALL_POSETS = [
    poset for names in ([], ["p"], ["p", "q"], ["p", "q", "r"]) for poset in primitive.enumerate_posets(names)
]


@pytest.mark.parametrize("deg", [3, 4])
def test_poset_rules_match_the_sweeps_on_every_small_poset(deg):
    """On every poset on at most three primes, each property the rules
    certify sweeps Holds on the uncertified copy, but the antichain's
    archimedean, which enumeration leaves Unknown; each one they leave out
    sweeps Fails."""
    b = SearchBound(max_degree=deg)
    assert len(_SMALL_POSETS) == 1 + 2 + 12 + 152
    fails = 0
    for poset in _SMALL_POSETS:
        o = primitive_oracle(poset)
        ruled = _poset_rules(poset)
        assert {p for p, note in o.certified.items() if note == _POSET_CERTIFICATE} == ruled, poset
        swept = _uncertified(o)
        for prop in _POSET_RULED:
            dec = _report(swept, prop, b)
            if prop not in ruled:
                assert dec.is_fails, (poset, prop)
                fails += 1
            elif prop == lab.ARCHIMEDEAN:
                assert dec.is_unknown, poset
            else:
                assert dec.is_holds, (poset, prop, dec.counterexample)
    assert fails == 632  # 586 of them on three primes


def test_builtin_certificates_name_lab_properties():
    poset = validate_poset(["p", "q"], [("p", "q")])
    oracles = [ladder_oracle(2), bar_oracle(2), free_oracle(2), primitive_oracle(poset)]
    for o in oracles + [presentation_oracle(wild.m0_presentation(), B)]:
        assert set(o.certified) <= set(lab.PROPERTIES), o.name


# -- the conical and stably-finite sweeps run over all elements: the zero-key
# pruning they once had (x + y = 0 and x + y = x force the invariants of the
# terms that must vanish to be zero) is gone, and these tests, which keep
# their names, check that its removal kept the reports


def _absorbing():
    """<a, b | a + b = a>, elements canonical pairs (p, q) for p*a + q*b.  It
    has no state: b is nonzero and a + b = a."""

    def canon(p, q):
        return (p, 0) if p else (0, q)

    def add(x, y):
        return canon(x[0] + y[0], x[1] + y[1])

    def elements(d):
        return list(dict.fromkeys(canon(p, n - p) for n in range(d + 1) for p in range(n + 1)))

    def leq(x, y):
        c = next((c for c in elements(sum(y)) if add(x, c) == y), None)
        return Decision.fails() if c is None else Decision.holds(witness=c)

    return MonoidOracle(
        name="<a,b|a+b=a>",
        zero=(0, 0),
        add=add,
        equal=lambda x, y: Decision.holds() if x == y else Decision.fails(),
        leq=leq,
        elements=elements,
        refine=_unrefined,
        exact=True,
    )


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("b", [B, _B4, SearchBound(max_degree=6, max_coefficient=5)])
@pytest.mark.parametrize("prop", [lab.CONICAL, lab.STABLY_FINITE])
def test_zero_key_pruning_keeps_the_report(level, b, prop):
    """Bar's pair state certifies the property, and the full sweep holds at
    the bound."""
    o = bar_oracle(level)
    cert, swept = _report(o, prop, b), _report(_uncertified(o), prop, b)
    assert (cert.verdict, cert.note) == ("holds", "pair state certificate")
    assert (swept.verdict, swept.note) == ("holds", "exhaustive at bound")


def test_zero_key_pruning_keeps_small_counterexamples():
    """In <a, b | a + b = a> the first x + y = x with y nonzero is x = a, y =
    b, and x + y = 0 forces x = y = 0."""
    o = _absorbing()
    for b in (B, _B4):
        rep = _report(o, lab.STABLY_FINITE, b)
        assert rep.is_fails and rep.counterexample == ((1, 0), (0, 1))
        assert _report(o, lab.CONICAL, b).is_holds


# -- the eight universal checks, pinned with their Unknown counts: m0 answers
# Unknown past its degree cap, and the certified oracles are swept uncertified

_UNIVERSAL = {  # oracle factory, bound
    "m0": (lambda: presentation_oracle(wild.m0_presentation(), B), B),
    "ladder:2": (lambda: _uncertified(ladder_oracle(2)), B),
    "bar:3": (lambda: _uncertified(bar_oracle(3)), _B4),
    "free:2": (lambda: _uncertified(free_oracle(2)), B),
}

_PINNED_UNIVERSAL = [
    ("m0", "conical", "unknown", "exhaustive at bound; 316 unknown oracle verdicts", None),
    ("m0", "stably-finite", "unknown", "exhaustive at bound; 316 unknown oracle verdicts", None),
    ("m0", "separative", "unknown", "exhaustive at bound; 184 unknown oracle verdicts", None),
    ("m0", "strongly-separative", "unknown", "exhaustive at bound; 334 unknown oracle verdicts", None),
    ("m0", "cancellative", "fails", "x + z = y + z with x != y", ("z0", "y0", "x0")),
    ("m0", "unperforated", "unknown", "exhaustive at bound; 434 unknown oracle verdicts", None),
    ("m0", "antisymmetric", "holds", "exhaustive at bound", None),
    ("m0", "archimedean", "unknown", "enumeration cannot certify archimedean; no state available", None),
    ("ladder:2", "conical", "holds", "exhaustive at bound", None),
    ("ladder:2", "stably-finite", "holds", "exhaustive at bound", None),
    ("ladder:2", "separative", "holds", "exhaustive at bound", None),
    ("ladder:2", "strongly-separative", "holds", "exhaustive at bound", None),
    ("ladder:2", "cancellative", "fails", "x + z = y + z with x != y", ("y0", "z0", "x0")),
    ("ladder:2", "unperforated", "holds", "exhaustive at bound", None),
    ("ladder:2", "antisymmetric", "holds", "exhaustive at bound", None),
    ("ladder:2", "archimedean", "unknown", "enumeration cannot certify archimedean; no state available", None),
    ("bar:3", "conical", "holds", "exhaustive at bound", None),
    ("bar:3", "stably-finite", "holds", "exhaustive at bound", None),
    ("bar:3", "separative", "holds", "exhaustive at bound", None),
    ("bar:3", "strongly-separative", "holds", "exhaustive at bound", None),
    ("bar:3", "cancellative", "fails", "x + z = y + z with x != y", ("ybar0", "zbar0", "xbar0")),
    ("bar:3", "unperforated", "holds", "exhaustive at bound", None),
    ("bar:3", "antisymmetric", "holds", "exhaustive at bound", None),
    ("bar:3", "archimedean", "fails", "n*x <= y for all tested n with x nonzero", ("zbar0", "xbar0", 12)),
    ("free:2", "conical", "holds", "exhaustive at bound", None),
    ("free:2", "stably-finite", "holds", "exhaustive at bound", None),
    ("free:2", "separative", "holds", "exhaustive at bound", None),
    ("free:2", "strongly-separative", "holds", "exhaustive at bound", None),
    ("free:2", "cancellative", "holds", "exhaustive at bound", None),
    ("free:2", "unperforated", "holds", "exhaustive at bound", None),
    ("free:2", "antisymmetric", "holds", "exhaustive at bound", None),
    ("free:2", "archimedean", "unknown", "enumeration cannot certify archimedean; no state available", None),
]


@pytest.mark.parametrize("oracle, check, verdict, note, counterexample", _PINNED_UNIVERSAL)
def test_universal_checks_pinned(oracle, check, verdict, note, counterexample):
    make, b = _UNIVERSAL[oracle]
    o = make()
    dec = lab.check_property(o, check, b).verdict
    assert (dec.verdict, dec.note) == (verdict, note)
    shown = None if dec.counterexample is None else tuple(
        x if isinstance(x, int) else o.fmt(x) for x in dec.counterexample
    )
    assert shown == counterexample


# -- the per-oracle report memo: wildness reads the four property reports the
# sheet already asked for, and a copy made by `replace` asks afresh


def _counting(o):
    """A copy of `o` whose equal, leq, refine and add count their calls."""
    calls = [0]

    def counted(fn):
        def f(*args):
            calls[0] += 1
            return fn(*args)

        return f

    counted_ops = {op: counted(getattr(o, op)) for op in ("equal", "leq", "refine", "add")}
    return o.replace(**counted_ops), calls


_WILDNESS_INPUTS = (lab.STABLY_FINITE, lab.CANCELLATIVE, lab.SEPARATIVE, lab.UNPERFORATED)
_MEMO_CASES = [
    (lambda: bar_oracle(3), B),
    (lambda: presentation_oracle(wild.m0_presentation(), _M0_B), _M0_B),
    (lambda: primitive_oracle(_POSETS["prim-chain"], "prim-chain"), SearchBound(max_degree=2, max_coefficient=3)),
]


def _sans_elapsed(rep):
    return rep._replace(elapsed=0.0)


@pytest.mark.parametrize("make, b", _MEMO_CASES)
def test_wildness_reads_the_memoized_reports(make, b):
    o, calls = _counting(make())
    for prop in _WILDNESS_INPUTS:
        lab.check_property(o, prop, b, samples=100)
    assert calls[0] > 0
    calls[0] = 0
    rep = lab.wildness_certificate(o, b, samples=100)
    assert calls[0] == 0
    assert _sans_elapsed(rep) == _sans_elapsed(lab.wildness_certificate(make(), b, samples=100))


def test_memo_returns_the_first_report():
    o, calls = _counting(bar_oracle(3))
    first = lab.check_property(o, lab.CANCELLATIVE, B, samples=100)
    n = calls[0]
    assert lab.check_property(o, lab.CANCELLATIVE, B, samples=100) is first
    assert calls[0] == n


@pytest.mark.parametrize("b, samples", [(B, 60), (_B4, 100), (SearchBound(max_degree=3, max_coefficient=4), 100)])
def test_memo_asks_again_for_another_bound_or_sample_count(b, samples):
    o, calls = _counting(bar_oracle(3))
    first = lab.check_property(o, lab.CANCELLATIVE, B, samples=100)
    calls[0] = 0
    again = lab.check_property(o, lab.CANCELLATIVE, b, samples=samples)
    assert calls[0] > 0 and again is not first
    assert again.bound == b


def test_replace_starts_an_empty_memo():
    o, calls = _counting(bar_oracle(3))
    lab.check_property(o, lab.STABLY_FINITE, B)
    assert o.reports
    copy = o.replace(certified={})
    assert copy.reports == {}
    calls[0] = 0
    lab.check_property(copy, lab.STABLY_FINITE, B)
    assert calls[0] > 0
