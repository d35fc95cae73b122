"""Bounded, three-valued property checkers over any MonoidOracle.

Universal properties are instantiated over the oracle's elements of degree at
most bound.max_degree, with multipliers up to bound.max_coefficient; a Holds
verdict therefore always means "no counterexample at this bound" and the
bound travels with the report.

Refinement is the oracle's own `refine`.  An exact oracle's `refine` solves
every equation in closed form, so the exact oracles certify refinement and
Riesz decomposition (Certificates, below), and the sampled checks of both run
on presentation oracles and on uncertified copies, `o.replace(certified={})`.
The refinement check first refines every a + b = c + d over 0 and the
generators (the elements of degree 1), each pair of distinct pairs once, and
only then the sampled equations; its Holds note counts both.  That first
pass tests the same equations at every degree bound from 1 up, so a
generator-level failure, such as m0's mixing relation z0 + x0 = y0 + x0, is
found at every bound at which the oracle decides it (m0: from 2 up).
The sampled Riesz decomposition of x <= y1 + y2 reads x = z11 + z12 off the
refinement of x + c = y1 + y2, c the complement, and searches x1 + x2 = x
itself only where that is not Holds (m0 is not a refinement monoid).  That
search and the other existential inner quantifiers are bounded, so a Fails
on them is a bounded result, not a proof: no witness within the bound.  It
can flip as the bound rises: m0's riesz-interpolation reads Holds at degree
3 and Fails at 4 (a strict xfail in tests/test_cli.py, until ROADMAP item 1
lands).

Order.  A test that reads only the order's verdict calls the oracle's
`below`, True, False or None for Unknown, which `_Sweep.known` counts as
`_Sweep.definite` counts an Unknown Decision: the unperforated,
antisymmetric and archimedean sweeps, both Riesz searches, `irreducibles`
and `o_ideal_closure`.  `leq` and its complement are read only where the
complement is used: `_sample_equations` and the Riesz decomposition draw.

The sampled checks test each drawn hypothesis once: Riesz decomposition
refines with the complement its draw got for x <= y1 + y2, and Riesz
interpolation looks for z only among the common lower bounds of y1 and y2
that its draw listed, asking just x1 <= z and x2 <= z.

The archimedean property is special: enumeration can only refute it, so Holds
is granted solely on a certificate.

`irreducibles` scans the oracle's `generators` when it lists them, else its
degree-1 elements; its docstring shows that this loses no decomposition.

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

Cancellable elements.  An oracle's `cancellable` names elements z for
which x + z = y + z forces x = y.  The cancellative sweep skips every such
z: a skipped instance can never be a counterexample, and the loops keep
their order, so the report is the full sweep's.  Only an oracle with
`exact` set may carry the capability (the constructor refuses any other):
an Unknown on a skipped instance would never be counted, which could turn
an Unknown report into Holds.  Two oracles carry it, and the coordinate
certificate (below) rests on the same proofs:
  - ladder, x-count 0: m is additive, so x + z = y + z forces m(x) = m(y).
    At a common level N an element is fixed by its raised coordinates, (i,
    j, rungs) when m = 0 and (i + j, rungs) when m > 0 (j folded into i),
    and adding a z with m = 0 translates them by z's, so equal sums force x
    = y.
  - bar, xbar count 0: the same with k.  At a level N at or above its level
    n, an element is fixed by (i, j) when k = 0 and by (k, i + j + (N -
    n)k) when k > 0, and adding a z with k = 0 translates them by z's.

Certificates.  When an oracle's `certified` names a property,
`check_property` answers Holds with that note and sweeps nothing.  The
exact oracles draw on six sources, each quoted here by its note:
  - "positive state certificate": a positive state s, additive and > 0 off
    0: the ladder's validated `wild.standard_certificates(n)["state"]`, or
    `PrimElem.degree` on the free monoid, the primitive monoid of an
    antichain, where no relation absorbs a prime.  x + y = 0 or x + y = x
    forces s(y) = 0; x <= y <= x gives s(c) + s(d) = 0 for its complements
    c, d; n*x <= y for every n forces s(x) = 0.  So it certifies conical,
    stably finite, antisymmetric and archimedean.
  - "pair state certificate": bar's validated `standard_certificates(n,
    "bar")["pair_state"]`, xbar_l -> (1 - l, 1), ybar0, zbar0 -> (1, 0),
    into the pointed cone {q > 0} u {q = 0, p >= 0} of Z^2, where a sum is 0
    only if its terms are: the same arguments certify all but archimedean
    (n*zbar0 <= xbar0 for every n).
  - "homogeneous order certificate": m*x <= m*y iff x <= y for every m >=
    1, which certifies unperforation on the ladder, bar and free oracles.
  - "closed-form refinement certificate": on every exact oracle (ladder,
    bar, primitive, free among them), `refine` solves each a + b = c + d in
    closed form, and `words.checked_refinement` verifies each matrix.  The
    ladder and bar monoids are refinement monoids by construction,
    primitive monoids by Pierce.  So it certifies refinement, and Riesz
    decomposition with it: x <= y1 + y2 gives x + c = y1 + y2 for a
    complement c, whose refinement ((z11, z12), (z21, z22)) has x = z11 +
    z12, y1 = z11 + z21 and y2 = z12 + z22, so z11 <= y1 and z12 <= y2.
  - "coordinate certificate": on the ladder and bar oracles, 2x = x + y
    forces x = y.  That is strong separativity, and separativity follows,
    since 2x = 2y = x + y gives 2x = x + y.  The x-count m (on bar, the
    xbar count k) is additive, and raising keeps it, so 2m(x) = m(x) +
    m(y) gives m(x) = m(y).  If m(x) = 0, x is `cancellable` (above), and
    x + x = x + y cancels to x = y.  If m(x) > 0, read x and y at a common
    level N.  There the coordinates (i + j, rungs) of the ladder, and i + j
    of bar, are additive, so 2x = x + y makes those of x and y equal; with
    the equal m > 0 they fix the element, so x = y.
  - "primitive poset certificate": on a primitive oracle, what its poset
    proves by primitive.py's closed-form order and the fact behind it:
    supp(x + y) is the set of maximal primes of supp x u supp y, with
    coefficient c_x(q) + c_y(q) at a non-idempotent q.  A support is an
    antichain, and idempotent coefficients are 1.  A builder's own
    certificate for a property takes precedence (the free oracle's).
      - Conical: an empty support has no maximal prime, so x + y = 0
        forces x = y = 0.
      - Antisymmetric: let x <= y <= x.  If p is in supp x but not in supp
        y, then p < q for a q in supp y, and q is in supp x or below a
        prime of supp x; by transitivity p is strictly below a prime of
        supp x, which breaks the antichain.  So the supports are equal, and
        the order criterion makes the coefficients equal.
      - Unperforated: supp(m*x) = supp x, and non-idempotent coefficients
        scale by m, so every condition of the order criterion holds for
        (m*x, m*y) iff it holds for (x, y).
      - Separative: 2x = 2y = x + y gives supp x = supp y, then 2c_x(q) =
        2c_y(q) at each non-idempotent q, so x = y.
      - Strongly separative, when no prime is idempotent: 2x = x + y gives
        supp(x + y) = supp x and c_x(q) + c_y(q) = 2c_x(q) on it, so supp
        x lies in supp y with equal coefficients.  A prime of supp y
        outside supp x would lie below one of supp x, also in supp y, which
        breaks the antichain; so y = x.  An idempotent p refutes it: 2p = p
        + 0 with p != 0.
      - Stably finite, cancellative and archimedean, when `below` is empty:
        the monoid is free, and its degree is a positive state (above).  A
        pair e < f, e = f allowed, refutes all three: e + f = f = 0 + f
        with e != 0, and n*e <= f for every n.

Tameness.  The paper calls a refinement monoid tame when it is an
inductive limit of finitely generated refinement monoids.  So the monoid of
an oracle that is `finitely_generated` and certifies refinement is tame,
and `wildness_certificate` answers Fails on it, with a note saying so,
before it looks for evidence of wildness.  The primitive and free oracles
are such oracles.  The ladder and bar monoids are inductive limits, not
finitely generated, and a presentation oracle certifies no refinement.

Homogeneity.  Raising is linear, so at any level n at or above the levels
of x and y, m times the coefficients of x and y at n represent m*x and m*y.
The closed-form order criteria, read at such a common level, are
  ladder: m1 <= m2, the rungs componentwise <=, and i1 + j1 <= i2 + j2 when
          m2 > 0, i1 <= i2 and j1 <= j2 when m2 = 0;
  bar:    k1 < k2, or k1 = k2 and the same tests on (i, j) by the sign of k2;
  free:   the componentwise order of the coefficient vectors.
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

_SEED = 20260823
# the default sample count of the sampled checks
SAMPLES = 200


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

    def known(self, v: bool | None) -> bool | None:
        """`definite` for a verdict already read as True, False or None,
        such as `MonoidOracle.below`'s."""
        if v is None:
            self.unknowns += 1
        return v

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
    samples: int = SAMPLES,
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
        cancellable = o.cancellable or (lambda z: False)

        def keyed():
            for z in E:
                if cancellable(z):
                    continue
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
    doubled = ((x, o.add(x, x)) for x in E)
    found = (
        (x, y)
        for x, xx in doubled
        for y in E
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
    E, sw, below = _elems(o, b), _Sweep(), o.below
    k = sw.known
    multiples = list(zip(E, (_multiples(o, x, b.max_coefficient) for x in E)))
    found = (
        (x, y, m)
        for x, xs in multiples
        for y, ys in multiples
        if k(below(x, y)) is False
        for m in range(2, b.max_coefficient + 1)
        if k(below(xs[m], ys[m]))
    )
    return sw.refute(b, found, "m*x <= m*y but not x <= y")


def _check_antisymmetric(o, b, samples):
    E, sw, below = _elems(o, b), _Sweep(), o.below
    d, k = sw.definite, sw.known
    found = (
        (x, y)
        for ix, x in enumerate(E)
        for y in E[ix + 1:]
        if k(below(x, y)) and k(below(y, x)) and d(o.equal(x, y)) is False
    )
    return sw.refute(b, found, "x <= y <= x with x != y")


def _check_archimedean(o, b, samples):
    E, sw, below = _elems(o, b), _Sweep(), o.below
    d, k = sw.definite, sw.known
    # refutation needs n well past the degree bound, or small-y artifacts
    # like n*x <= degree_bound * x would masquerade as infinitesimals
    n_max = max(2, b.max_degree * b.max_coefficient)
    nonzero = ((x, _multiples(o, x, n_max)) for x in E if d(o.is_zero(x)) is False)
    found = ((x, y, n_max) for x, xs in nonzero for y in E if all(k(below(xs[n], y)) for n in range(1, n_max + 1)))
    held = Decision.unknown(b, note="enumeration cannot certify archimedean; no state available")
    return sw.refute(b, found, "n*x <= y for all tested n with x nonzero", held)


def _sample_equations(o, E, rng, samples):
    """Random valid equations a + b = c + d, built from the algebraic order:
    pick a, b; pick c below a + b; take d from the leq witness.  Up to
    `samples` of them, in at most samples * 30 draws, each drawn when the
    caller asks for it."""
    found = 0
    for _ in range(samples * 30):
        a, bb = rng.choice(E), rng.choice(E)
        s = o.add(a, bb)
        c = rng.choice(E)
        dec = o.leq(c, s)
        if dec.is_holds:
            yield a, bb, c, dec.witness
            found += 1
            if found == samples:
                return


def _generator_equations(o, b, sw):
    """Every valid a + b = c + d with a, b, c, d of degree at most 1 (0 and
    the generators), within the bound: each pair of distinct pairs {a, b},
    {c, d} once, its equality passed through `sw.definite`.  A pair with
    itself is left out, since a + b = a + b always refines."""
    G = o.elements(min(1, b.max_degree))
    pairs = [(x, y, o.add(x, y)) for i, x in enumerate(G) for y in G[i:]]
    for i, (a, bb, s) in enumerate(pairs):
        for c, d, t in pairs[i + 1:]:
            if sw.definite(o.equal(s, t)):
                yield a, bb, c, d


def _check_refinement(o, b, samples):
    sw = _Sweep()
    refined = [0, 0]
    streams = (
        _generator_equations(o, b, sw),
        _sample_equations(o, _elems(o, b), random.Random(_SEED), samples),
    )
    for i, equations in enumerate(streams):
        for a, bb, c, d in equations:
            refined[i] += 1
            dec = o.refine(a, bb, c, d)
            if sw.definite(dec) is False:
                return Decision.fails(counterexample=(a, bb, c, d), note=dec.note)
    return sw.close(b, "{} generator and {} sampled equations refined".format(*refined))


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
    E, below = _elems(o, b), o.below
    rng = random.Random(_SEED + 1)

    def draw(definite):
        x, y1, y2 = rng.choice(E), rng.choice(E), rng.choice(E)
        dec = o.leq(x, o.add(y1, y2))
        return ((x, y1, y2), dec.witness) if definite(dec) else None

    def found(c, x, y1, y2):
        # x + c = y1 + y2 refines as x = z11 + z12, z11 <= y1, z12 <= y2
        if o.refine(x, c, y1, y2).is_holds:
            return True
        lower = (x1 for x1 in E if below(x1, y1) and below(x1, x))
        return any(o.equal(o.add(x1, x2), x).is_holds and below(x2, y2) for x1 in lower for x2 in E)

    return _sampled(b, samples, draw, found, "no bounded decomposition found", "{} sampled instances decomposed")


def _check_riesz_interpolation(o, b, samples):
    E, below = _elems(o, b), o.below
    rng = random.Random(_SEED + 2)

    def draw(definite):
        y1, y2 = rng.choice(E), rng.choice(E)
        lower = [e for e in E if below(e, y1) and below(e, y2)]
        return ((rng.choice(lower), rng.choice(lower), y1, y2), lower) if lower else None

    def found(lower, x1, x2, y1, y2):
        # the interpolants are the common lower bounds of y1, y2 above x1, x2
        return any(below(x1, z) and below(x2, z) for z in lower)

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
PROPERTIES = tuple(_CHECKERS)


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
    E, below = _elems(o, b), o.below
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
            if sw.known(below(a, x)) and sw.definite(o.equal(a, x)) is False:
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

    below = o.below

    def member(x) -> Decision:
        sw = _Sweep()
        for s in combos:
            if sw.known(below(x, s)):
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


# the paper's definition: a refinement monoid is tame when it is an inductive
# limit of finitely generated refinement monoids
_TAME = "finitely generated refinement monoid, tame by definition"


def wildness_certificate(o: MonoidOracle, b: SearchBound, samples: int = SAMPLES) -> PropertyReport:
    """Evidence of wildness, or its absence.  Fails (tame) on an oracle that
    is `finitely_generated` and certifies refinement, the primitive and free
    oracles: a finitely generated refinement monoid is an inductive limit of
    itself, so tame by the paper's definition.  Otherwise Holds on stable
    finiteness (certified or exhaustive) together with a cancellation
    counterexample, or on a separativity or unperforation failure, and
    Unknown when neither is found."""
    t0 = time.monotonic()
    verdict = _wildness_evidence(o, b, samples)
    return PropertyReport("wildness", verdict, b, time.monotonic() - t0)


def _wildness_evidence(o: MonoidOracle, b: SearchBound, samples: int) -> Decision:
    if o.finitely_generated and REFINEMENT in o.certified:
        return Decision.fails(note=_TAME)
    sf = check_property(o, STABLY_FINITE, b, samples)
    if sf.verdict.is_holds:
        canc = check_property(o, CANCELLATIVE, b, samples)
        if canc.verdict.is_fails:
            return Decision.holds(
                witness={"stably_finite": sf.verdict.note, "noncancellation": canc.verdict.counterexample},
                note="stably finite but not cancellative",
            )
    for prop in (SEPARATIVE, UNPERFORATED):
        rep = check_property(o, prop, b, samples)
        if rep.verdict.is_fails:
            return Decision.holds(witness={prop: rep.verdict.counterexample}, note=f"{prop} fails")
    return Decision.unknown(b, note="no wildness evidence at bound (consistent with tame)")
