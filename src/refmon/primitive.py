"""Monoids presented by a finite set of primes with a transitive antisymmetric
relation: generators D, one relation e + f = f per related pair e < f
(self-pairs p < p are allowed and make p idempotent).

The canonical form keeps only the maximal primes of the support and caps
idempotent coefficients at one.  It is derived, not quoted from anywhere:
the tests gate it behind exhaustive agreement with the rewriting oracle on
the exported presentation.

The algebraic order has a closed form on canonical elements.  For e1, e2
with coefficients c1, c2, e1 <= e2 iff

- every prime of supp(e1) is in supp(e2) or strictly below a prime of
  supp(e2), and
- c1(q) <= c2(q) for every non-idempotent q in supp(e2).

Necessity: the support of e1 + c is the set of maximal primes of
supp(e1) | supp(c), and a maximal non-idempotent prime q has coefficient
c1(q) + c(q) there.  For sufficiency, `prim_leq` builds the complement c
supported on supp(e2): c(q) = c2(q) - c1(q) for non-idempotent q, and for
idempotent q, c(q) = 1 when q is absent from e1 and 0 otherwise.  Every
raw vector c' with e1 + c' = e2 has at least these coefficients on supp(e2)
(a prime of supp(e2) missing from both e1 and c' would be missing from the
sum), and this c is itself such a vector with zeros off supp(e2), so it is
the least one in product order.

Poset file format (UTF-8, `#` comments):

    poset <name>
    primes <id> <id> ...
    below <e> <f>        # meaning e is absorbed by f

Transitive closure is NOT taken automatically; non-transitive input is
rejected to force explicitness.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .presentation import Presentation, make_presentation
from .targets import INF, CertificateHom, NonnegIntegersWithInfinity, build_certificate
from .words import ParseError, Word, checked_refinement, compositions, directives, format_term, free_refine


class PrimePoset(namedtuple("PrimePoset", "primes below")):
    """primes: tuple of names; below: frozenset of pairs (e, f) meaning e < f,
    (p, p) allowed.

    Two tables, built once by the constructor, serve the arithmetic:
    `above` maps each prime with a prime strictly above it to the frozenset
    of those primes (it is empty on a poset with no pair e < f, e != f), and
    `idempotents` is the frozenset of the primes p with p < p.  They live in
    the instance dict, outside the tuple, so equality and hashing still read
    only `primes` and `below`."""

    def __new__(cls, primes: tuple[str, ...], below: frozenset) -> "PrimePoset":
        ps = set(primes)
        if len(ps) != len(primes):
            raise ValueError("duplicate prime")
        for e, f in below:
            if e not in ps or f not in ps:
                raise ValueError(f"relation pair ({e!r}, {f!r}) uses unknown prime")
        for e, f in below:
            if e != f and (f, e) in below:
                raise ValueError(f"antisymmetry violated by pair ({e!r}, {f!r})")
        for e, f in below:
            for f2, g in below:
                if f2 == f and (e, g) not in below:
                    raise ValueError(f"transitivity violated by triple ({e!r}, {f!r}, {g!r})")
        self = super().__new__(cls, primes, below)
        above: dict[str, set] = {}
        for e, f in below:
            if e != f:
                above.setdefault(e, set()).add(f)
        self.above = {e: frozenset(fs) for e, fs in above.items()}
        self.idempotents = frozenset(e for e, f in below if e == f)
        return self

    def lt(self, e: str, f: str) -> bool:
        return (e, f) in self.below

    def idempotent(self, p: str) -> bool:
        return (p, p) in self.below


def validate_poset(primes, rel) -> PrimePoset:
    return PrimePoset(tuple(primes), frozenset(tuple(p) for p in rel))


class PrimElem(namedtuple("PrimElem", "poset coeffs")):
    """Canonical element: sorted (prime, coefficient) pairs, support an
    antichain, idempotent coefficients capped at 1."""

    __slots__ = ()

    def degree(self) -> int:
        return sum(c for _, c in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def format(self) -> str:
        return format_term(self.coeffs)

    def __str__(self) -> str:
        return self.format()


def normalize(poset: PrimePoset, raw) -> PrimElem:
    """Delete every supported prime strictly below another supported prime
    (one simultaneous pass; a fixed point since the relation is transitive),
    then cap idempotents at 1."""
    return _canonical(poset, {p: c for p, c in dict(raw).items() if c})


def _canonical(poset: PrimePoset, support: dict) -> PrimElem:
    """`normalize` of a raw element given as a dict of nonzero coefficients:
    one `isdisjoint` test per supported prime against the primes above it,
    and no pass at all when no prime has one."""
    above, idem = poset.above, poset.idempotents
    if above:
        support = {p: c for p, c in support.items() if p not in above or above[p].isdisjoint(support)}
    if idem:
        return PrimElem(poset, tuple(sorted((p, 1) if p in idem else (p, c) for p, c in support.items())))
    return PrimElem(poset, tuple(sorted(support.items())))


def prim_add(e1: PrimElem, e2: PrimElem) -> PrimElem:
    if e1.poset is not e2.poset and e1.poset != e2.poset:
        raise ValueError("poset mismatch")
    acc = dict(e1.coeffs)
    for p, c in e2.coeffs:
        acc[p] = acc.get(p, 0) + c
    return _canonical(e1.poset, acc)


def prim_leq(e1: PrimElem, e2: PrimElem) -> PrimElem | None:
    """The least complement c with e1 + c = e2, or None when e1 is not below
    e2, by the closed-form order criterion in the module docstring: c2(q) -
    c1(q) on a non-idempotent q of supp(e2), 1 on an idempotent q of supp(e2)
    that e1 lacks, 0 elsewhere.  Being least in product order, c is also the
    first complement in lexicographic order over the primes."""
    if e1.poset is not e2.poset and e1.poset != e2.poset:
        raise ValueError("poset mismatch")
    poset = e1.poset
    above, idem = poset.above, poset.idempotents
    c1 = dict(e1.coeffs)
    top = dict(e2.coeffs)
    for p in c1:
        if p not in top and (p not in above or above[p].isdisjoint(top)):
            return None
    comp = []
    for q, c in e2.coeffs:
        if q in idem:
            if q not in c1:
                comp.append((q, 1))
        else:
            d = c - c1.get(q, 0)
            if d < 0:
                return None
            if d:
                comp.append((q, d))
    return PrimElem(poset, tuple(comp))


def prim_refine(a: PrimElem, b: PrimElem, c: PrimElem, d: PrimElem):
    """The matrix ((z11, z12), (z21, z22)) refining a + b = c + d, in closed
    form.  Lift the elements to raw prime counts.  For each prime p whose raw
    count differs between a + b and c + d, add the difference to the first
    element on the smaller side that absorbs p: its support holds a q with (p,
    q) in `below` (q above p, or q = p idempotent).  The raw sums are then
    equal; refine them prime by prime in the free monoid, and normalize.

    Such an element exists.  The support S of s = a + b is the set of maximal
    primes of the raw support of either side.  A non-idempotent p in S has
    count s(p) on both sides and needs no padding; an idempotent p in S lies
    in the support of an element on each side; any other p that occurs lies
    below a q in S, which lies in the support of an element on each side.
    Padding changes no element: a padded prime is below a supported prime,
    deleted by `normalize`, or an idempotent supported prime, capped back at
    1.  `normalize` is the quotient map, so the entries sum to a, b, c and d;
    `checked_refinement` re-verifies all four sums."""
    return checked_refinement(prim_add, _prim_matrix, a, b, c, d)


def _prim_matrix(a: PrimElem, b: PrimElem, c: PrimElem, d: PrimElem):
    """The padded free refinement of `prim_refine`, normalized."""
    poset = a.poset
    rows = [dict(e.coeffs) for e in (a, b, c, d)]
    for p in poset.primes:
        diff = sum(r.get(p, 0) for r in rows[:2]) - sum(r.get(p, 0) for r in rows[2:])
        if diff:
            row = next(r for r in (rows[2:] if diff > 0 else rows[:2]) if any((p, q) in poset.below for q in r))
            row[p] = row.get(p, 0) + abs(diff)
    parts = free_refine(*(tuple(r.get(p, 0) for p in poset.primes) for r in rows))
    z11, z12, z21, z22 = (normalize(poset, zip(poset.primes, v)) for v in parts)
    return (z11, z12), (z21, z22)


def presentation_of(poset: PrimePoset) -> Presentation:
    rels = [(f"{e} + {f}", f) for e, f in sorted(poset.below)]
    return make_presentation("prim", list(poset.primes), rels)


def elem_word(e: PrimElem) -> Word:
    return Word.of([(e.poset.primes.index(p), c) for p, c in e.coeffs])


def prime_certificates(poset: PrimePoset) -> dict[str, CertificateHom]:
    """One separating certificate per prime p: counts p, absorbs everything
    strictly above p into infinity, ignores the rest.  Jointly these separate
    all distinct canonical forms (pick a maximal prime where they differ)."""
    p_pres = presentation_of(poset)
    target = NonnegIntegersWithInfinity()
    certs = {}
    for p in poset.primes:
        images = {}
        for q in poset.primes:
            if q == p:
                images[q] = INF if poset.idempotent(p) else 1
            elif poset.lt(p, q):
                images[q] = INF
            else:
                images[q] = 0
        certs[f"count_{p}"] = build_certificate(p_pres, target, images, f"count_{p}")
    return certs


def enumerate_elements(poset: PrimePoset, max_degree: int) -> list[PrimElem]:
    """All canonical elements with a raw representative of degree <= max_degree."""
    elems = (normalize(poset, zip(poset.primes, t)) for t in compositions(len(poset.primes), max_degree))
    return list(dict.fromkeys(elems))  # drops repeats, keeping first-seen order


def enumerate_posets(names) -> list[PrimePoset]:
    """Every transitive antisymmetric relation on the given primes (self-pairs
    included).  Exponential in len(names)**2; intended for small test sweeps."""
    names = tuple(names)
    pairs = [(e, f) for e in names for f in names]
    out = []
    for size in range(len(pairs) + 1):
        for chosen in combinations(pairs, size):
            try:
                out.append(PrimePoset(names, frozenset(chosen)))
            except ValueError:
                continue
    return out


def parse_poset(text: str) -> PrimePoset:
    primes: list[str] | None = None
    rel: list[tuple[str, str]] = []
    for lineno, key, rest in directives(text):
        if key == "poset":
            continue
        if key == "primes":
            if primes is not None:
                raise ParseError("duplicate primes line", lineno)
            primes = rest.split()
        elif key == "below":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected: below <e> <f>", lineno)
            rel.append((parts[0], parts[1]))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if primes is None:
        raise ParseError("no primes line")
    try:
        return PrimePoset(tuple(primes), frozenset(rel))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
