"""Bounded, three-valued property checkers over any MonoidOracle.

Universal properties are instantiated over the oracle's elements of degree at
most bound.max_degree, with multipliers up to bound.max_coefficient; a Holds
verdict therefore always means "no counterexample at this bound" and the
bound travels with the report.

Refinement is the oracle's own `refine`.  An exact oracle's `refine` solves
every equation in closed form, so the exact oracles certify refinement and
Riesz decomposition (Certificates, below), and the sampled checks of both run
on presentation oracles and on uncertified copies, `o.replace(certified={})`.
The sampled Riesz decomposition of x <= y1 + y2 reads x = z11 + z12 off the
refinement of x + c = y1 + y2, c the complement, and searches x1 + x2 = x
itself only where that is not Holds (m0 is not a refinement monoid).  That
search and the other existential inner quantifiers are bounded, so a Fails
on them is a bounded result, not a proof: no witness within the bound.  It
can flip as the bound rises: m0's riesz-interpolation reads Holds at degree
3 and Fails at 4 (a strict xfail in tests/test_cli.py, until ROADMAP item 1
lands).

The sampled checks test each drawn hypothesis once: Riesz decomposition
refines with the complement its draw got for x <= y1 + y2, and Riesz
interpolation looks for z only among the common lower bounds of y1 and y2
that its draw listed, asking just x1 <= z and x2 <= z.  To list them, the
draw asks `leq` only of the elements whose invariants (below) are
componentwise <= those of both y1 and y2: the list, and so the random
stream and the report, are those of asking every element.

The archimedean property is special: enumeration can only refute it, so Holds
is granted solely on a certificate.

Refutation.  Each universal check generates its refuting instances, the
hypotheses filtered through `_Sweep.definite`, and `_Sweep.refute` reports
the first: the counterexample is the first in loop order, and when none
comes, every Unknown verdict met is counted in the note.

Memo.  `check_property` keeps each report in its oracle's `reports`, under
(property, bound, samples), and answers a repeated question with the first
report, its first `elapsed` included.  `wildness_certificate` is a function
of four such reports and asks for them through `check_property`, so after a
sheet of property checks it sweeps nothing.  `MonoidOracle.replace` starts
the copy with an empty memo, since a copy with other capabilities may
answer differently.

Equal invariants.  An oracle's `invariants` inv is an additive map into
tuples of nonnegative ints, so x <= y (that is, y = x + c) forces inv(x) <=
inv(y) componentwise.  Hence 2x = x + y forces inv(x) = inv(y), and the
strongly-separative sweep tests a pair only when its invariants are equal:
the oracle would answer Fails on a skipped pair, so it can never be a
counterexample.  The loops keep their order, so the first counterexample,
and with it the report, is the one the full sweep finds.  (For an oracle
that also answered Unknown, an Unknown on a skipped pair would never be
asked, which could turn an Unknown report into Holds; no oracle has both
today.)

Certificates.  When an oracle's `certified` names a property,
`check_property` answers Holds with that note and sweeps nothing.  The
exact oracles draw on four sources, each quoted here by its note:
  - "positive state certificate": a positive state s, additive and > 0 off
    0: the ladder's validated `wild.standard_certificates(n)["state"]`, or
    degree for free.  x + y = 0 or x + y = x forces s(y) = 0; x <= y <= x
    gives s(c) + s(d) = 0 for its complements c, d; n*x <= y for every n
    forces s(x) = 0.  So it certifies conical, stably finite, antisymmetric
    and archimedean.
  - "pair state certificate": bar's validated `standard_certificates(n,
    "bar")["pair_state"]`, xbar_l -> (1 - l, 1), ybar0, zbar0 -> (1, 0),
    into the pointed cone {q > 0} u {q = 0, p >= 0} of Z^2, where a sum is 0
    only if its terms are: the same arguments certify all but archimedean
    (n*zbar0 <= xbar0 for every n).
  - "homogeneous order certificate": m*x <= m*y iff x <= y for every m >=
    1, which certifies unperforation on the ladder, bar and free oracles.
  - "closed-form refinement certificate": on every exact oracle (ladder,
    bar, free, primitive), `refine` solves each a + b = c + d in closed
    form, and `words.checked_refinement` verifies each matrix.  The ladder
    and bar monoids are refinement monoids by construction, free and
    primitive monoids by Pierce.  So it certifies refinement, and Riesz
    decomposition with it: x <= y1 + y2 gives x + c = y1 + y2 for a
    complement c, whose refinement ((z11, z12), (z21, z22)) has x = z11 +
    z12, y1 = z11 + z21 and y2 = z12 + z22, so z11 <= y1 and z12 <= y2.

Homogeneity.  Raising is linear, so at any level n at or above the levels
of x and y, m times the coefficients of x and y at n represent m*x and m*y.
The closed-form order criteria, read at such a common level, are
  ladder: m1 <= m2, the rungs componentwise <=, and i1 + j1 <= i2 + j2 when
          m2 > 0, i1 <= i2 and j1 <= j2 when m2 = 0;
  bar:    k1 < k2, or k1 = k2 and the same tests on (i, j) by the sign of k2;
  free:   the componentwise order.
They read the same at every common level (one raising step appends rungs
that the criterion already compares), every condition is a homogeneous
linear inequality, and scaling keeps the sign of m2 and of k2, so each holds
for (m*x, m*y) iff it holds for (x, y).  tests/test_acceptance.py's criterion
10 sweeps this for ladder(3) and bar(3) at degree 6 and multipliers up to 5.
"""
from __future__ import annotations

import random
import time
from collections import namedtuple
from operator import le

from .decisions import HOLDS, UNKNOWN, Decision, SearchBound
from .oracles import MonoidOracle

CONICAL = "conical"
STABLY_FINITE = "stably-finite"
SEPARATIVE = "separative"
STRONGLY_SEPARATIVE = "strongly-separative"
CANCELLATIVE = "cancellative"
UNPERFORATED = "unperforated"
ANTISYMMETRIC = "antisymmetric"
ARCHIMEDEAN = "archimedean"
REFINEMENT = "refinement"
RIESZ_DECOMPOSITION = "riesz-decomposition"
RIESZ_INTERPOLATION = "riesz-interpolation"

PROPERTIES = (
    CONICAL,
    STABLY_FINITE,
    SEPARATIVE,
    STRONGLY_SEPARATIVE,
    CANCELLATIVE,
    UNPERFORATED,
    ANTISYMMETRIC,
    ARCHIMEDEAN,
    REFINEMENT,
    RIESZ_DECOMPOSITION,
    RIESZ_INTERPOLATION,
)

_SEED = 20260823


class PropertyReport(namedtuple("PropertyReport", "property verdict bound elapsed", defaults=(None, 0.0))):
    """property: a property id; verdict: Decision; bound: SearchBound or
    None; elapsed: seconds."""

    __slots__ = ()

    def line(self, monoid: str = "") -> str:
        prefix = f"{monoid}: " if monoid else ""
        return f"{prefix}{self.property}: {self.verdict.verdict} ({self.verdict.note or 'at bound'})"


class _Sweep:
    """Counts the Unknown verdicts of an exhaustive pass or a witness search,
    and closes it with them."""

    def __init__(self) -> None:
        self.unknowns = 0

    def definite(self, dec: Decision) -> bool | None:
        v = dec.verdict
        if v == UNKNOWN:
            self.unknowns += 1
            return None
        return v == HOLDS

    def close(self, b: SearchBound, note: str) -> Decision:
        if self.unknowns:
            return Decision.unknown(b, note=f"{note}; {self.unknowns} unknown oracle verdicts")
        return Decision.holds(note=note)

    def refute(self, b: SearchBound, found, note: str, held: Decision | None = None) -> Decision:
        """Fails with the first instance the generator `found` yields, with
        `note`; if it yields none, `held` when given, else the exhaustive
        close."""
        for inst in found:
            return Decision.fails(counterexample=inst, note=note)
        return self.close(b, "exhaustive at bound") if held is None else held

    def exhausted(self, b: SearchBound, note: str) -> Decision:
        """Close an existential search that found no witness: Fails with
        `note` when no verdict was Unknown, else Unknown at the bound."""
        if self.unknowns:
            return Decision.unknown(b)
        return Decision.fails(note=note)


def check_property(
    o: MonoidOracle,
    prop: str,
    b: SearchBound,
    samples: int = 200,
) -> PropertyReport:
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property id {prop!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    asked = (prop, b, samples)
    rep = o.reports.get(asked)
    if rep is None:
        t0 = time.monotonic()
        note = o.certified.get(prop)
        verdict = _CHECKERS[prop](o, b, samples) if note is None else Decision.holds(note=note)
        rep = o.reports[asked] = PropertyReport(prop, verdict, b, time.monotonic() - t0)
    return rep


def _elems(o: MonoidOracle, b: SearchBound):
    return o.elements(b.max_degree)


def _partners(o: MonoidOracle, E) -> list:
    """For each element of E, the elements of E whose invariants equal its
    own, in E's order; all of E when the oracle has none."""
    if o.invariants is None:
        return [E] * len(E)
    keys = [tuple(o.invariants(x)) for x in E]
    groups: dict = {}
    for y, k in zip(E, keys):
        groups.setdefault(k, []).append(y)
    return [groups[k] for k in keys]


def _check_conical(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    found = ((x, y) for x in E if not d(o.is_zero(x)) for y in E if d(o.is_zero(o.add(x, y))))
    return sw.refute(b, found, "x + y = 0 with x nonzero")


def _check_stably_finite(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    # each candidate y is tested for zero once
    nonzero = [y for y in E if d(o.is_zero(y)) is False]
    found = ((x, y) for x in E for y in nonzero if d(o.equal(o.add(x, y), x)))
    return sw.refute(b, found, "x + y = x with y nonzero")


def _check_cancellative(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    if o.exact:

        def keyed():
            for z in E:
                groups: dict = {}
                for x in E:
                    y = groups.setdefault(o.add(x, z), x)
                    if y != x:
                        yield x, y, z

        found = keyed()
    else:
        found = (
            (x, y, z)
            for ix, x in enumerate(E)
            for y in E[ix + 1:]
            if d(o.equal(x, y)) is False
            for z in E
            if d(o.equal(o.add(x, z), o.add(y, z)))
        )
    return sw.refute(b, found, "x + z = y + z with x != y")


def _check_separative(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    if o.exact:
        groups: dict = {}
        for x in E:
            groups.setdefault(o.add(x, x), []).append(x)
        # 2x = 2y by grouping; need 2x = x + y as well
        found = (
            (x, y)
            for xx, members in groups.items()
            for i, x in enumerate(members)
            for y in members[i + 1:]
            if o.add(x, y) == xx and d(o.equal(x, y)) is False
        )
    else:
        found = (
            (x, y)
            for ix, x in enumerate(E)
            for y in E[ix + 1:]
            if d(o.equal(o.add(x, x), o.add(y, y)))
            and d(o.equal(o.add(x, x), o.add(x, y)))
            and d(o.equal(x, y)) is False
        )
    return sw.refute(b, found, "2x = 2y = x + y with x != y")


def _check_strongly_separative(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    # 2x = x + y gives inv(x) = inv(y)
    doubled = ((x, o.add(x, x), ys) for x, ys in zip(E, _partners(o, E)))
    found = (
        (x, y)
        for x, xx, ys in doubled
        for y in ys
        if d(o.equal(xx, o.add(x, y))) and d(o.equal(x, y)) is False
    )
    return sw.refute(b, found, "2x = x + y with x != y")


def _multiples(o, x, n: int) -> list:
    """[0, x, 2x, ..., n*x], each built by one addition from the one before."""
    acc = [o.zero]
    for _ in range(n):
        acc.append(o.add(acc[-1], x))
    return acc


def _check_unperforated(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    multiples = list(zip(E, (_multiples(o, x, b.max_coefficient) for x in E)))
    found = (
        (x, y, m)
        for x, xs in multiples
        for y, ys in multiples
        if d(o.leq(x, y)) is False
        for m in range(2, b.max_coefficient + 1)
        if d(o.leq(xs[m], ys[m]))
    )
    return sw.refute(b, found, "m*x <= m*y but not x <= y")


def _check_antisymmetric(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    found = (
        (x, y)
        for ix, x in enumerate(E)
        for y in E[ix + 1:]
        if d(o.leq(x, y)) and d(o.leq(y, x)) and d(o.equal(x, y)) is False
    )
    return sw.refute(b, found, "x <= y <= x with x != y")


def _check_archimedean(o, b, samples):
    E, sw = _elems(o, b), _Sweep()
    d = sw.definite
    # refutation needs n well past the degree bound, or small-y artifacts
    # like n*x <= degree_bound * x would masquerade as infinitesimals
    n_max = max(2, b.max_degree * b.max_coefficient)
    nonzero = ((x, _multiples(o, x, n_max)) for x in E if d(o.is_zero(x)) is False)
    found = ((x, y, n_max) for x, xs in nonzero for y in E if all(d(o.leq(xs[n], y)) for n in range(1, n_max + 1)))
    held = Decision.unknown(b, note="enumeration cannot certify archimedean; no state available")
    return sw.refute(b, found, "n*x <= y for all tested n with x nonzero", held)


def _sample_equations(o, E, rng, samples):
    """Random valid equations a + b = c + d, built from the algebraic order:
    pick a, b; pick c below a + b; take d from the leq witness."""
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


def _check_refinement(o, b, samples):
    eqs = _sample_equations(o, _elems(o, b), random.Random(_SEED), samples)
    sw = _Sweep()
    for a, bb, c, d in eqs:
        dec = o.refine(a, bb, c, d)
        if sw.definite(dec) is False:
            return Decision.fails(counterexample=(a, bb, c, d), note=dec.note)
    return sw.close(b, f"{len(eqs)} sampled equations refined")


def _sampled(b, samples, draw, found, fail_note: str, held_note: str):
    """The loop shared by the sampled forall-exists checks.

    `draw(definite)` draws one random instance and, if its hypothesis holds,
    returns it together with what testing the hypothesis learned, else None;
    it passes hypothesis verdicts through `definite`, which counts the
    Unknowns.  `found(learned, *instance)` is the bounded witness search.  Up
    to samples // 4 instances are tried, in at most samples * 10 draws; the
    first one without a witness is the counterexample.
    """
    sw = _Sweep()
    tried = 0
    attempts = 0
    while tried < max(1, samples // 4) and attempts < samples * 10:
        attempts += 1
        drawn = draw(sw.definite)
        if drawn is None:
            continue
        tried += 1
        inst, learned = drawn
        if not found(learned, *inst):
            return Decision.fails(counterexample=inst, note=fail_note)
    return sw.close(b, held_note.format(tried))


def _check_riesz_decomposition(o, b, samples):
    E = _elems(o, b)
    rng = random.Random(_SEED + 1)

    def draw(definite):
        x, y1, y2 = rng.choice(E), rng.choice(E), rng.choice(E)
        dec = o.leq(x, o.add(y1, y2))
        return ((x, y1, y2), dec.witness) if definite(dec) else None

    def found(c, x, y1, y2):
        # x + c = y1 + y2 refines as x = z11 + z12, z11 <= y1, z12 <= y2
        if o.refine(x, c, y1, y2).is_holds:
            return True
        below = (x1 for x1 in E if o.leq(x1, y1).is_holds and o.leq(x1, x).is_holds)
        return any(o.equal(o.add(x1, x2), x).is_holds and o.leq(x2, y2).is_holds for x1 in below for x2 in E)

    return _sampled(b, samples, draw, found, "no bounded decomposition found", "{} sampled instances decomposed")


def _check_riesz_interpolation(o, b, samples):
    E = _elems(o, b)
    rng = random.Random(_SEED + 2)

    inv = o.invariants
    keys = [inv(e) for e in E] if inv else None

    def lower(y1, y2):
        """The elements of E that may be below both: e <= y forces inv(e) <=
        inv(y), so only those under the componentwise minimum are asked."""
        if keys is None:
            return E
        cap = tuple(map(min, inv(y1), inv(y2)))
        return [e for e, k in zip(E, keys) if all(map(le, k, cap))]

    def draw(definite):
        y1, y2 = rng.choice(E), rng.choice(E)
        below = [e for e in lower(y1, y2) if o.leq(e, y1).is_holds and o.leq(e, y2).is_holds]
        return ((rng.choice(below), rng.choice(below), y1, y2), below) if below else None

    def found(below, x1, x2, y1, y2):
        # the interpolants are the common lower bounds of y1, y2 above x1, x2
        return any(o.leq(x1, z).is_holds and o.leq(x2, z).is_holds for z in below)

    return _sampled(b, samples, draw, found, "no bounded interpolant found", "{} sampled instances interpolated")


_CHECKERS = {
    CONICAL: _check_conical,
    STABLY_FINITE: _check_stably_finite,
    SEPARATIVE: _check_separative,
    STRONGLY_SEPARATIVE: _check_strongly_separative,
    CANCELLATIVE: _check_cancellative,
    UNPERFORATED: _check_unperforated,
    ANTISYMMETRIC: _check_antisymmetric,
    ARCHIMEDEAN: _check_archimedean,
    REFINEMENT: _check_refinement,
    RIESZ_DECOMPOSITION: _check_riesz_decomposition,
    RIESZ_INTERPOLATION: _check_riesz_interpolation,
}


# ---------------------------------------------------------------------------
# Irreducibles, o-ideals, quotients, wildness


def irreducibles(o: MonoidOracle, b: SearchBound):
    """Elements with no nontrivial bounded decomposition.

    Uses the order: x is decomposable iff some nonzero a != x has a <= x (the
    complement witness is then nonzero in a stably finite monoid).  The
    candidates are the nonzero elements of the oracle's `generators` when it
    lists them (the ladder and bar oracles list those of two levels deeper,
    so that generators of deeper levels are seen), else of its degree-1
    elements.  That loses no decomposition: an element a <= x, a != x of a
    deeper level is a sum of generators, each of them <= x.  In an
    antisymmetric monoid at least one of them differs from x: otherwise a =
    k*x with k >= 2, and k*x <= x <= 2x <= k*x forces 2x = x, which the
    x + x = x test catches first.
    Returns (found, unknown) lists.
    """
    E = _elems(o, b)
    pool = [a for a in o.generators or o.elements(1) if not o.is_zero(a).is_holds]
    found, unknown = [], []
    for x in E:
        if o.is_zero(x).is_holds:
            continue
        sw = _Sweep()
        # x = x + x is a decomposition the a != x scan below cannot see
        if sw.definite(o.equal(o.add(x, x), x)):
            continue
        for a in pool:
            if sw.definite(o.leq(a, x)) and sw.definite(o.equal(a, x)) is False:
                break  # x = a + complement
        else:
            if sw.unknowns:
                unknown.append(x)
            elif not any(o.equal(x, y).is_holds for y in found):
                found.append(x)
    return found, unknown


def o_ideal_closure(o: MonoidOracle, gens, b: SearchBound):
    """Bounded membership predicate for the o-ideal generated by `gens`:
    x is a member iff x <= some combination of the generators (coefficients
    up to max_coefficient)."""
    combos = [o.zero]
    for g in gens:
        gs = _multiples(o, g, b.max_coefficient)
        combos = [o.add(c, gn) for c in combos for gn in gs]

    def member(x) -> Decision:
        sw = _Sweep()
        for s in combos:
            if sw.definite(o.leq(x, s)):
                return Decision.holds(witness=s, note="below a generator combination")
        return sw.exhausted(b, f"not below any of {len(combos)} combinations at bound")

    return member


def quotient_equal(o: MonoidOracle, member, x, y, b: SearchBound) -> Decision:
    """x == y modulo the o-ideal given by `member`: bounded search for ideal
    elements a, b with x + a = y + b."""
    sw = _Sweep()
    J = [e for e in _elems(o, b) if sw.definite(member(e))]
    for a in J:
        xa = o.add(x, a)
        for bb in J:
            if sw.definite(o.equal(xa, o.add(y, bb))):
                return Decision.holds(witness=(a, bb), note="ideal shift found")
    return sw.exhausted(b, "no ideal shift at bound")


def wildness_certificate(o: MonoidOracle, b: SearchBound, samples: int = 200) -> PropertyReport:
    """Evidence of wildness: stable finiteness (certified or exhaustive) together
    with a cancellation counterexample, or a separativity/unperforation
    failure.  Never certifies tameness."""
    t0 = time.monotonic()
    sf = check_property(o, STABLY_FINITE, b, samples)
    if sf.verdict.is_holds:
        canc = check_property(o, CANCELLATIVE, b, samples)
        if canc.verdict.is_fails:
            verdict = Decision.holds(
                witness={"stably_finite": sf.verdict.note, "noncancellation": canc.verdict.counterexample},
                note="stably finite but not cancellative",
            )
            return PropertyReport("wildness", verdict, b, time.monotonic() - t0)
    for prop in (SEPARATIVE, UNPERFORATED):
        rep = check_property(o, prop, b, samples)
        if rep.verdict.is_fails:
            verdict = Decision.holds(
                witness={prop: rep.verdict.counterexample},
                note=f"{prop} fails",
            )
            return PropertyReport("wildness", verdict, b, time.monotonic() - t0)
    return PropertyReport(
        "wildness",
        Decision.unknown(b, note="no wildness evidence at bound (consistent with tame)"),
        b,
        time.monotonic() - t0,
    )

