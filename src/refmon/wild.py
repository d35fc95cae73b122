"""Exact arithmetic for the two wild refinement monoids of this workbench.

The *ladder monoid* is generated by x_l, y_l, z_l (l >= 0) and rungs a_l
(l >= 1), subject to

    x0 + y0 = x0 + z0
    y_l = y_{l+1} + a_{l+1}      z_l = z_{l+1} + a_{l+1}
    x_l = x_{l+1} + y_{l+1} = x_{l+1} + z_{l+1}

The *bar monoid* is its quotient by the o-ideal generated by the rungs:
generators xbar_l, ybar0, zbar0 with

    xbar0 + ybar0 = xbar0 + zbar0
    xbar_l = xbar_{l+1} + ybar0 = xbar_{l+1} + zbar0

Every element of the ladder monoid has a representation at some level n,

    m*x_n + i*y_n + j*z_n + sum_l k_l * a_l,

and two such representations at the same level denote the same element iff
(m = m' = 0, i = i', j = j', k = k') or (m = m' > 0, i + j = i' + j', k = k').
We store the unique canonical representative: j is folded into i whenever
m > 0, and the level is lowered greedily by inverting the raising rules.

Order and addition work at the higher of the two operands' levels.
Raising never changes m (in the bar monoid, the xbar count k), so that is
compared first; then only the lower-level operand is raised, inline and
one rung at a time, so that a comparison can stop at the first rung that
settles it, and a complement is built only once the order holds.
Everything here is validated against the bounded rewriting oracle on the
truncated presentations (see tests); the order criterion and the congruence
closed forms are derived, not taken on faith.

The canonical form is stored as a tuple: LadderElem is (level, m, i, j,
rungs) and BarElem is (level, i, j, k), tuple subclasses with named
read-only fields.  The lab's sweeps hash and compare elements millions of
times, and a tuple does both in C: an element hashes and compares as the
tuple of its fields.  The package's other records are tuples too
(namedtuple subclasses), since a dataclass compiles its generated methods
at every import, a start-up cost each refmon command paid.  Every element,
built by a kernel or by `LadderElem(...)` and `BarElem(...)`, comes from
one validating canonicalizer per monoid (`_ladder`, `_bar`), so monoid
equality is `==`, with equal hashes.  The kernels unpack their operands
once.
"""
from __future__ import annotations

import operator
import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial

from .presentation import Presentation, make_presentation
from .targets import (
    INF,
    CertificateHom,
    FreeAbelian,
    FreeAbelianWithInfinity,
    NonnegIntegers,
    NonnegPlaneWithInfinity,
    NonnegRationals,
    PairMonoid,
    build_certificate,
    vec,
)
from .words import Word, checked_refinement, compositions, format_term, free_refine


# ---------------------------------------------------------------------------
# Ladder monoid elements

_new = tuple.__new__


class LadderElem(tuple):
    """Canonical element of the ladder monoid: the tuple (level, m, i, j, rungs).

    level: n of the representation; m, i, j: coefficients of x_n, y_n, z_n;
    rungs: coefficients of a_1..a_n.  Construction validates the fields and
    returns the canonical element of any representation; `make` also pads
    missing top rungs with zeros.  Field equality of canonical forms
    coincides with monoid equality (checked exhaustively against the oracle).
    """

    __slots__ = ()

    level = property(operator.itemgetter(0))
    m = property(operator.itemgetter(1))
    i = property(operator.itemgetter(2))
    j = property(operator.itemgetter(3))
    rungs = property(operator.itemgetter(4))

    def __new__(cls, level: int, m: int, i: int, j: int, rungs: tuple[int, ...] = ()) -> "LadderElem":
        # validate before lowering, which reads the top rung
        return _ladder(*_ladder_elem(level, m, i, j, tuple(rungs)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return "LadderElem(level={!r}, m={!r}, i={!r}, j={!r}, rungs={!r})".format(*self)

    # not an alias of the constructor: it pads the rungs a caller leaves out
    @staticmethod
    def make(level: int, m: int, i: int, j: int, rungs: tuple[int, ...] = ()) -> "LadderElem":
        """Build and canonicalize; missing top rungs are zero."""
        rungs = tuple(rungs)
        if len(rungs) < level:
            rungs += (0,) * (level - len(rungs))
        return _ladder(level, m, i, j, rungs)

    # -- constructors for the named generators
    @staticmethod
    def zero() -> "LadderElem":
        return LadderElem(0, 0, 0, 0)

    @staticmethod
    def x(n: int) -> "LadderElem":
        return LadderElem.make(n, 1, 0, 0)

    @staticmethod
    def y(n: int) -> "LadderElem":
        return LadderElem.make(n, 0, 1, 0)

    @staticmethod
    def z(n: int) -> "LadderElem":
        return LadderElem.make(n, 0, 0, 1)

    @staticmethod
    def a(n: int) -> "LadderElem":
        if n < 1:
            raise ValueError("rungs start at 1")
        return LadderElem.make(n, 0, 0, 0, (0,) * (n - 1) + (1,))

    @staticmethod
    def unit() -> "LadderElem":
        """The order-unit x0 + y0."""
        return LadderElem.make(0, 1, 1, 0)

    def raised(self, target: int) -> tuple[int, int, int, tuple[int, ...]]:
        """Coefficients of this element represented at `target` >= level.

        One raising step: x_n = x_{n+1} + y_{n+1}, y_n = y_{n+1} + a_{n+1},
        z_n = z_{n+1} + a_{n+1}.
        """
        level, m, i, j, rungs = self
        if target < level:
            raise ValueError("target level below stored level")
        i, rungs = _raise(m, i, j, rungs, target - level)
        return m, i, j, rungs

    def degree(self) -> int:
        _, m, i, j, rungs = self
        return m + i + j + sum(rungs)

    def is_zero(self) -> bool:
        return self.degree() == 0

    # `==` would do; kept because perfbench's reference checks call it
    def equal(self, other: "LadderElem") -> bool:
        """Monoid equality, which is `==`: both operands are canonical."""
        return self == other

    def add(self, other: "LadderElem") -> "LadderElem":
        n1, m1, i1, j1, k1 = self
        n2, m2, i2, j2, k2 = other
        if n1 > n2:
            n1, m1, i1, j1, k1, n2, m2, i2, j2, k2 = n2, m2, i2, j2, k2, n1, m1, i1, j1, k1
        i1, k1 = _raise(m1, i1, j1, k1, n2 - n1)
        return _ladder(n2, m1 + m2, i1 + i2, j1 + j2, tuple(map(operator.add, k1, k2)))

    def scale(self, c: int) -> "LadderElem":
        if c < 0:
            raise ValueError("negative multiplier")
        level, m, i, j, rungs = self
        return _ladder(level, c * m, c * i, c * j, tuple(c * k for k in rungs))

    def leq(self, other: "LadderElem") -> "LadderElem | None":
        """Algebraic order; returns a complement witness c with self + c = other,
        or None.

        Derived criterion (validated against complement search on truncations):
        at the common level, m1 <= m2, rung coefficients componentwise <=, and
        i1 + j1 <= i2 + j2 when m2 > 0, respectively i1 <= i2 and j1 <= j2 when
        m2 = 0.  Raising never changes m, so m1 > m2 is settled before it; the
        rungs are compared as the lower-level operand is raised, and the
        complement is built only when the answer is yes.  The m test reads
        the fields by index, before unpacking, which a tuple subclass pays
        for in full.
        """
        if self[1] > other[1]:
            return None
        n1, m1, i1, j1, k1 = self
        n2, m2, i2, j2, k2 = other
        for p, q in zip(k1, k2):
            if p > q:
                return None
        r1, r2 = i1, i2  # the i coefficients at the common level
        for l in range(n1, n2):  # raise self
            if r1 + j1 > k2[l]:
                return None
            r1 += m1
        for l in range(n2, n1):  # raise other
            if k1[l] > r2 + j2:
                return None
            r2 += m2
        if m2 == 0:
            if m1 or r1 > r2 or j1 > j2:
                return None
        elif r1 + j1 > r2 + j2:
            return None
        _, k1 = _raise(m1, i1, j1, k1, n2 - n1)
        _, k2 = _raise(m2, i2, j2, k2, n1 - n2)
        n, dk = max(n1, n2), tuple(map(operator.sub, k2, k1))
        if m2 == 0:
            return _ladder(n, 0, r2 - r1, j2 - j1, dk)
        return _ladder(n, m2 - m1, r2 + j2 - r1 - j1, 0, dk)

    def format(self) -> str:
        level, m, i, j, rungs = self
        pairs = [(f"x{level}", m), (f"y{level}", i), (f"z{level}", j)]
        return format_term(pairs + [(f"a{l}", c) for l, c in enumerate(rungs, start=1)])

    def __str__(self) -> str:
        return self.format()


def _ladder_elem(level: int, m: int, i: int, j: int, rungs: tuple[int, ...]) -> LadderElem:
    """The LadderElem with exactly these fields, after validating them."""
    if level < 0 or m < 0 or i < 0 or j < 0 or (rungs and min(rungs) < 0):
        raise ValueError("negative coefficient")
    if len(rungs) != level:
        raise ValueError("rung vector length must equal level")
    return _new(LadderElem, (level, m, i, j, rungs))


def _ladder(level: int, m: int, i: int, j: int, rungs: tuple[int, ...]) -> LadderElem:
    """The canonical LadderElem of m*x_n + i*y_n + j*z_n + rungs at level n:
    j is folded into i when m > 0, and the level is lowered while the top rung
    is the one a raising step would have appended (then, when m > 0, the
    lowered i is that rung).  Every element the kernels build comes from here."""
    if m > 0:
        i += j
        j = 0
        while level > 0 and i == m + rungs[-1]:
            i = rungs[-1]
            level -= 1
            rungs = rungs[:-1]
    elif m == 0:
        while level > 0 and rungs[-1] == i + j:
            level -= 1
            rungs = rungs[:-1]
    return _ladder_elem(level, m, i, j, rungs)


def _raise(m: int, i: int, j: int, rungs: tuple[int, ...], steps: int) -> tuple[int, tuple[int, ...]]:
    """(i, rungs) of m*x_n + i*y_n + j*z_n + rungs raised `steps` levels: each
    step appends the rung i + j and adds m to i (m and j never change)."""
    for _ in range(steps):
        rungs += (i + j,)
        i += m
    return i, rungs


# Nothing here constructs it; kept until perfbench/tracing.py stops patching it.
class RawLadder(namedtuple("RawLadder", "level m i j rungs")):
    """A (possibly non-canonical) leveled representation."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Bar monoid elements


class BarElem(tuple):
    """Canonical element of the bar monoid: the tuple (level, i, j, k).

    level: n; i, j: coefficients of ybar0, zbar0; k: coefficient of xbar_n.
    Canonical form: j folded into i when k > 0; level lowered while i >= k;
    level 0 when k = 0.  Construction validates the fields and returns the
    canonical element.
    """

    __slots__ = ()

    level = property(operator.itemgetter(0))
    i = property(operator.itemgetter(1))
    j = property(operator.itemgetter(2))
    k = property(operator.itemgetter(3))

    def __new__(cls, level: int, i: int, j: int, k: int) -> "BarElem":
        return _bar(*_bar_elem(level, i, j, k))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return "BarElem(level={!r}, i={!r}, j={!r}, k={!r})".format(*self)

    @staticmethod
    def zero() -> "BarElem":
        return BarElem(0, 0, 0, 0)

    @staticmethod
    def xbar(n: int) -> "BarElem":
        return BarElem(n, 0, 0, 1)

    @staticmethod
    def ybar() -> "BarElem":
        return BarElem(0, 1, 0, 0)

    @staticmethod
    def zbar() -> "BarElem":
        return BarElem(0, 0, 1, 0)

    def raised(self, target: int) -> tuple[int, int, int]:
        """(i, j) coefficients at `target`; raising uses xbar_n = xbar_{n+1} + ybar0."""
        level, i, j, k = self
        if target < level:
            raise ValueError("target level below stored level")
        return i + k * (target - level), j, k

    def degree(self) -> int:
        _, i, j, k = self
        return i + j + k

    def is_zero(self) -> bool:
        return self.degree() == 0

    # `==` would do; kept because perfbench's reference checks call it
    def equal(self, other: "BarElem") -> bool:
        """Monoid equality, which is `==`: both operands are canonical."""
        return self == other

    def add(self, other: "BarElem") -> "BarElem":
        n1, i1, j1, k1 = self
        n2, i2, j2, k2 = other
        if n1 < n2:
            i1 += k1 * (n2 - n1)
            n1 = n2
        else:
            i2 += k2 * (n1 - n2)
        return _bar(n1, i1 + i2, j1 + j2, k1 + k2)

    def scale(self, c: int) -> "BarElem":
        if c < 0:
            raise ValueError("negative multiplier")
        level, i, j, k = self
        return _bar(level, c * i, c * j, c * k)

    def leq(self, other: "BarElem") -> "BarElem | None":
        """Derived order criterion: with k = xbar coefficient, self <= other iff
        k1 < k2, or k1 = k2 > 0 with i1 + j1 <= i2 + j2 (at a common level),
        or k1 = k2 = 0 with i1 <= i2 and j1 <= j2.  Raising never changes k,
        so k1 > k2 is settled before it, by index and before unpacking; only
        the lower-level operand's ybar count is raised."""
        if self[3] > other[3]:
            return None
        n1, i1, j1, k1 = self
        n2, i2, j2, k2 = other
        if n1 < n2:
            i1 += k1 * (n2 - n1)
            n1 = n2
        else:
            i2 += k2 * (n1 - n2)
        if k2 == 0:
            if i1 <= i2 and j1 <= j2:
                return _bar(0, i2 - i1, j2 - j1, 0)
            return None
        if k1 == k2:
            if i1 + j1 <= i2 + j2:
                return _bar(n1, i2 + j2 - i1 - j1, 0, 0)
            return None
        # k1 < k2: raise t more levels, until the y/z budget of `other` catches up
        gap = (i1 + j1) - (i2 + j2)
        t = 0 if gap <= 0 else -(-gap // (k2 - k1))
        return _bar(n1 + t, (i2 + j2 - i1 - j1) + (k2 - k1) * t, 0, k2 - k1)

    def format(self) -> str:
        level, i, j, k = self
        return format_term(((f"xbar{level}", k), ("ybar0", i), ("zbar0", j)))

    def __str__(self) -> str:
        return self.format()


def _bar_elem(level: int, i: int, j: int, k: int) -> BarElem:
    """The BarElem with exactly these fields, after validating them."""
    if level < 0 or i < 0 or j < 0 or k < 0:
        raise ValueError("negative coefficient")
    return _new(BarElem, (level, i, j, k))


def _bar(level: int, i: int, j: int, k: int) -> BarElem:
    """The canonical BarElem of k*xbar_n + i*ybar0 + j*zbar0 at level n = `level`:
    level 0 when k = 0; else j folded into i and the level lowered by t =
    min(level, i // k) steps of xbar_{n-1} = xbar_n + ybar0, each taking k
    from i.  Every element the kernels build comes from here."""
    if k == 0:
        level = 0
    else:
        i += j
        j = 0
        if level > 0 and i >= k:
            t = min(level, i // k)
            i -= t * k
            level -= t
    return _bar_elem(level, i, j, k)


# ---------------------------------------------------------------------------
# Refinement


def _refine_triples(p1, p2, q1, q2):
    """Refine (m, i, j) triples at a common level under the leveled equality law.

    Returns (extra_levels, matrix): if extra_levels > 0 the caller must raise
    all inputs by that many levels and call again (matrix is None).  The
    normalization (which inputs play which role) is deterministic: rows and
    columns are swapped or transposed only as needed, preferring the identity.
    """
    triples = [p1, p2, q1, q2]
    if all(t[2] == 0 for t in triples):
        return 0, tuple((m, i, 0) for m, i in free_refine(*(t[:2] for t in triples)))
    if all(t[0] == 0 for t in triples):
        return 0, tuple((0, i, j) for i, j in free_refine(*(t[1:] for t in triples)))

    # mixed case: one side must hold a (m=0, j>0) element at slot 2 and an
    # (m>0) element at slot 1
    transpose = not any(t[0] == 0 and t[2] > 0 for t in (p1, p2))
    if transpose:
        p1, p2, q1, q2 = q1, q2, p1, p2
    swap_p = p1[0] == 0
    if swap_p:
        p1, p2 = p2, p1
    swap_q = q1[0] == 0
    if swap_q:
        q1, q2 = q2, q1
    b10, b11, _ = p1
    _, b21, b22 = p2
    g10, g11, g12 = q1
    g20, g21, g22 = q2
    if g20 == 0:
        need = g21 + g22 - b11
        denom = b10
    else:
        need = g21 - b11
        denom = b10 - g20  # = g10 > 0
    if need > 0:
        return -(-need // denom), None
    if g20 == 0:
        z11 = (b10, b11 - g21 - g22, 0)
        z12 = (0, g21, g22)
    else:
        z11 = (g10, b11 - g21, 0)
        z12 = (g20, g21, 0)
    z21 = (0, b21, b22)
    z22 = (0, 0, 0)
    mat = [[z11, z12], [z21, z22]]
    if swap_q:
        mat[0].reverse()
        mat[1].reverse()
    if swap_p:
        mat.reverse()
    if transpose:
        mat = [[mat[0][0], mat[1][0]], [mat[0][1], mat[1][1]]]
    return 0, (mat[0][0], mat[0][1], mat[1][0], mat[1][1])


def _refine(coeffs, build, a, b, c, d):
    """The refinement scheme both monoids share, for `checked_refinement`.

    `coeffs(e, n)` reads (m, i, j, rungs) of e raised to level n, m being the
    x-count; `build(n, m, i, j, rungs)` makes the canonical element.  Follows
    the constructive proof that the monoid has refinement: split off the rung
    parts (free refinement, level by level), raise the level until the
    mixed-case formulas apply, and emit the matrix.
    """
    zero = type(a).zero()
    if a == c and b == d:
        return ((a, zero), (zero, b))
    if a == d and b == c:
        return ((zero, a), (b, zero))
    n = max(e.level for e in (a, b, c, d))
    while True:
        raised = [coeffs(e, n) for e in (a, b, c, d)]
        triples = [(m, i, j) if m == 0 else (m, i + j, 0) for m, i, j, _ in raised]
        extra, mat = _refine_triples(*triples)
        if extra == 0:
            break
        n += extra
    parts = free_refine(*(rungs for *_, rungs in raised))
    entries = [build(n, *mat[s], parts[s]) for s in range(4)]
    return (entries[0], entries[1]), (entries[2], entries[3])


def ladder_refine(a: LadderElem, b: LadderElem, c: LadderElem, d: LadderElem):
    """Total refinement in the ladder monoid: a + b = c + d yields a 2x2 matrix
    of elements whose rows sum to a, b and columns to c, d."""
    return checked_refinement(LadderElem.add, partial(_refine, LadderElem.raised, LadderElem.make), a, b, c, d)


def bar_refine(a: BarElem, b: BarElem, c: BarElem, d: BarElem):
    """Total refinement in the bar monoid (same scheme, no rung parts)."""

    def coeffs(e: BarElem, n: int):
        i, j, k = e.raised(n)
        return k, i, j, ()

    solve = partial(_refine, coeffs, lambda n, k, i, j, _rungs: BarElem(n, i, j, k))
    return checked_refinement(BarElem.add, solve, a, b, c, d)


# ---------------------------------------------------------------------------
# O-ideals, congruences, quotient map


class Ideal(Enum):
    RUNGS = "rungs"  # submonoid generated by all a_n (ladder)
    XFREE = "xfree"  # elements with no x-part (ladder)
    XFREE_BAR = "xfree-bar"  # elements with no xbar-part (bar)
    ZBAR_ONLY = "zbar-only"  # multiples of zbar0 (bar)


LADDER_IDEALS = (Ideal.RUNGS, Ideal.XFREE)
BAR_IDEALS = (Ideal.XFREE_BAR, Ideal.ZBAR_ONLY)


def ideal_member(e, ideal: Ideal) -> bool:
    if ideal in LADDER_IDEALS:
        if not isinstance(e, LadderElem):
            raise TypeError(f"{ideal.value} lives in the ladder monoid")
        if ideal is Ideal.RUNGS:
            return e.m == 0 and e.i == 0 and e.j == 0
        return e.m == 0
    if not isinstance(e, BarElem):
        raise TypeError(f"{ideal.value} lives in the bar monoid")
    if ideal is Ideal.XFREE_BAR:
        return e.k == 0
    return e.k == 0 and e.i == 0


def cong_mod_ideal(e1, e2, ideal: Ideal) -> bool:
    """e1 == e2 modulo the o-ideal: exists a, b in the ideal with e1+a = e2+b.

    Closed forms (derived; validated by bounded a,b-search on truncations):
    RUNGS: equal bar-images; XFREE: equal x-coefficients; XFREE_BAR: equal
    xbar-coefficients; ZBAR_ONLY: equal xbar-coefficients and, when those are
    zero, equal ybar0-coefficients.
    """
    if ideal in LADDER_IDEALS:
        if not (isinstance(e1, LadderElem) and isinstance(e2, LadderElem)):
            raise TypeError(f"{ideal.value} lives in the ladder monoid")
        if ideal is Ideal.RUNGS:
            return to_bar(e1) == to_bar(e2)
        return e1.m == e2.m
    if not (isinstance(e1, BarElem) and isinstance(e2, BarElem)):
        raise TypeError(f"{ideal.value} lives in the bar monoid")
    if ideal is Ideal.XFREE_BAR:
        return e1.k == e2.k
    if e1.k != e2.k:
        return False
    return e1.k > 0 or e1.i == e2.i


def to_bar(e: LadderElem) -> BarElem:
    """The quotient map: drop the rungs; x_n, y_n, z_n map to xbar_n, ybar0, zbar0."""
    level, m, i, j, _ = e
    return _bar(level, i, j, m)


# ---------------------------------------------------------------------------
# Truncated presentations and the standard certificates


@lru_cache(maxsize=None)
def m0_presentation() -> Presentation:
    """The level-0 monoid on x0, y0, z0 with the single mixing relation."""
    return make_presentation("M0", ["x0", "y0", "z0"], [("x0 + y0", "x0 + z0")])


@lru_cache(maxsize=None)
def truncation_presentation(n: int, kind: str = "ladder") -> Presentation:
    """Finitely presented truncation at level n (the oracle domain).

    kind "ladder": generators x0,y0,z0, then a_l,x_l,y_l,z_l for l <= n, with
    the defining relations restricted to levels below n.  kind "bar":
    generators xbar0, ybar0, zbar0, xbar1..xbarn.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    if kind == "ladder":
        names = ["x0", "y0", "z0"]
        for l in range(1, n + 1):
            names += [f"a{l}", f"x{l}", f"y{l}", f"z{l}"]
        rels = [("x0 + y0", "x0 + z0")]
        for l in range(n):
            rels.append((f"y{l}", f"y{l+1} + a{l+1}"))
            rels.append((f"z{l}", f"z{l+1} + a{l+1}"))
            rels.append((f"x{l}", f"x{l+1} + y{l+1}"))
            rels.append((f"x{l}", f"x{l+1} + z{l+1}"))
    elif kind == "bar":
        names = ["xbar0", "ybar0", "zbar0"] + [f"xbar{l}" for l in range(1, n + 1)]
        rels = [("xbar0 + ybar0", "xbar0 + zbar0")]
        for l in range(n):
            rels.append((f"xbar{l}", f"xbar{l+1} + ybar0"))
            rels.append((f"xbar{l}", f"xbar{l+1} + zbar0"))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return make_presentation(f"{kind}{n}", names, rels)


def ladder_word(e: LadderElem, n: int) -> Word:
    """Word for e over truncation_presentation(n, 'ladder'); requires e.level <= n."""
    p = truncation_presentation(n, "ladder")
    m, i, j, rungs = e.raised(n)
    pairs = [(p.gens.index(f"x{n}"), m), (p.gens.index(f"y{n}"), i), (p.gens.index(f"z{n}"), j)]
    pairs += [(p.gens.index(f"a{l}"), c) for l, c in enumerate(rungs, start=1)]
    return Word.of(pairs)


def bar_word(e: BarElem, n: int) -> Word:
    p = truncation_presentation(n, "bar")
    i, j, k = e.raised(n)
    return Word.of([(p.gens.index(f"xbar{n}"), k), (p.gens.index("ybar0"), i), (p.gens.index("zbar0"), j)])


def _from_word(w: Word, n: int, kind: str, zero):
    p = truncation_presentation(n, kind)
    acc = zero
    for idx, exp in w.exps:
        name, digits = _TERM_RE.match(p.gens.names[idx]).group(2, 3)
        acc = acc.add(_GENERATORS[name](int(digits)).scale(exp))
    return acc


def ladder_from_word(w: Word, n: int) -> LadderElem:
    """Interpret a word over the level-n truncation presentation as an element."""
    return _from_word(w, n, "ladder", LadderElem.zero())


def bar_from_word(w: Word, n: int) -> BarElem:
    return _from_word(w, n, "bar", BarElem.zero())


@lru_cache(maxsize=None)
def standard_certificates(n: int, kind: str = "ladder") -> dict[str, CertificateHom]:
    """The separating homomorphisms for the level-n truncation.

    ladder: "state" (positive state into the nonnegative rationals, halving per
    level), "xcount" (counts the x-part), "yz_split" (separates y from z when
    no x is present), "xmix" (pins the y/z budget when an x is present),
    "rung_basis" (sends rungs to independent basis vectors).
    bar: "pair_state", "xcount_bar", "yz_split_bar".
    """
    p = truncation_presentation(n, kind)
    certs: dict[str, CertificateHom] = {}
    if kind == "ladder":
        img_s = {}
        img_f = {}
        img_g = {}
        img_h = {}
        img_r = {}
        for name in p.gens.names:
            letter, l = name[0], int(name[1:])
            img_s[name] = Fraction(1, 2**l)
            img_f[name] = 1 if letter == "x" else 0
            if letter == "x":
                img_g[name] = INF
                img_r[name] = INF
                img_h[name] = vec(**{"b": -l, **{f"a{t}": t - l - 1 for t in range(1, l + 1)}})
            elif letter in ("y", "z"):
                base = "b" if letter == "y" else "c"
                img_g[name] = vec(**{base: 1, **{f"a{t}": 1 for t in range(1, l + 1)}})
                img_r[name] = INF
                img_h[name] = vec(**{"b": 1, **{f"a{t}": 1 for t in range(1, l + 1)}})
            else:  # rungs
                img_g[name] = vec(**{f"a{l}": -1})
                img_r[name] = vec(**{f"a{l}": 1})
                img_h[name] = vec(**{f"a{l}": -1})
        certs["state"] = build_certificate(p, NonnegRationals(), img_s, "state")
        certs["xcount"] = build_certificate(p, NonnegIntegers(), img_f, "xcount")
        certs["yz_split"] = build_certificate(p, FreeAbelianWithInfinity(), img_g, "yz_split")
        certs["xmix"] = build_certificate(p, FreeAbelian(), img_h, "xmix")
        certs["rung_basis"] = build_certificate(p, FreeAbelianWithInfinity(), img_r, "rung_basis")
    else:
        img_t = {"ybar0": (1, 0), "zbar0": (1, 0)}
        img_f = {"ybar0": 0, "zbar0": 0}
        img_g = {"ybar0": (1, 0), "zbar0": (0, 1)}
        for l in range(n + 1):
            img_t[f"xbar{l}"] = (1 - l, 1)
            img_f[f"xbar{l}"] = 1
            img_g[f"xbar{l}"] = INF
        certs["pair_state"] = build_certificate(p, PairMonoid(), img_t, "pair_state")
        certs["xcount_bar"] = build_certificate(p, NonnegIntegers(), img_f, "xcount_bar")
        certs["yz_split_bar"] = build_certificate(p, NonnegPlaneWithInfinity(), img_g, "yz_split_bar")
    return certs


# ---------------------------------------------------------------------------
# Enumeration and term parsing


def enumerate_ladder(max_level: int, max_degree: int) -> list[LadderElem]:
    """All canonical ladder elements of level <= max_level and degree <= max_degree."""
    levels = range(max_level + 1)
    elems = (_ladder(n, t[0], t[1], t[2], t[3:]) for n in levels for t in compositions(3 + n, max_degree))
    return list(dict.fromkeys(elems))  # drops repeats, keeping first-seen order


def enumerate_bar(max_level: int, max_degree: int) -> list[BarElem]:
    elems = (_bar(n, *t) for n in range(max_level + 1) for t in compositions(3, max_degree))
    return list(dict.fromkeys(elems))


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*\s*)?([A-Za-z]+)(\d*)$")


# generator name -> the generator of that name at a level index; ybar and zbar
# exist only at index 0, which parse_elem checks
_GENERATORS = {
    "x": LadderElem.x,
    "y": LadderElem.y,
    "z": LadderElem.z,
    "a": LadderElem.a,
    "xbar": BarElem.xbar,
    "ybar": lambda _: BarElem.ybar(),
    "zbar": lambda _: BarElem.zbar(),
}


def parse_elem(text: str):
    """Parse `x0 + y0`, `3*a3`, `xbar2 + 2*ybar0`, `u`, `0` into an element.

    Returns a LadderElem or BarElem depending on the generator names used;
    mixing the two families is an error.
    """
    text = text.strip()
    if text == "0" or not text:
        return LadderElem.zero()
    ladder_terms: list[LadderElem] = []
    bar_terms: list[BarElem] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        name, digits = m.group(2), m.group(3)
        if name == "u" and not digits:
            gen = LadderElem.unit()
        elif not digits:
            raise ValueError(f"generator {chunk!r} needs a level index")
        elif name in ("ybar", "zbar") and int(digits) != 0:
            raise ValueError(f"{name} only exists at index 0")
        elif name in _GENERATORS:
            gen = _GENERATORS[name](int(digits))
        else:
            raise ValueError(f"unknown generator {chunk!r}")
        (bar_terms if isinstance(gen, BarElem) else ladder_terms).append(gen.scale(coeff))
    if ladder_terms and bar_terms:
        raise ValueError("cannot mix ladder and bar generators in one term")
    acc = BarElem.zero() if bar_terms else LadderElem.zero()
    for t in ladder_terms or bar_terms:
        acc = acc.add(t)
    return acc
