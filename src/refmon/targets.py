"""Target monoids for certificate homomorphisms, with exact arithmetic.

A certificate homomorphism maps generators of a presentation into one of
these targets; it is validated against every relation at construction time
and can then separate congruence classes (different images imply different
elements).  All arithmetic is exact: big integers, Fraction rationals, and
integer vectors over named bases, with an absorbing infinity where needed.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Any, Mapping

from .presentation import Presentation
from .words import Word


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()


def vec(**coeffs: int) -> tuple:
    """Integer vector over named basis elements, canonically sorted."""
    return tuple(sorted((k, v) for k, v in coeffs.items() if v))


def vec_add(u: tuple, v: tuple) -> tuple:
    acc = dict(u)
    for k, val in v:
        acc[k] = acc.get(k, 0) + val
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def vec_scale(n: int, u: tuple) -> tuple:
    return tuple((k, n * v) for k, v in u) if n else ()


class NonnegRationals:
    def zero(self):
        return Fraction(0)

    def add(self, u, v):
        return u + v

    def scale(self, n, u):
        return n * u

    def validate(self, u) -> None:
        if not isinstance(u, (int, Fraction)) or u < 0:
            raise ValueError(f"not a nonnegative rational: {u!r}")


class NonnegIntegers:
    def zero(self):
        return 0

    def add(self, u, v):
        return u + v

    def scale(self, n, u):
        return n * u

    def validate(self, u) -> None:
        if not isinstance(u, int) or u < 0:
            raise ValueError(f"not a nonnegative integer: {u!r}")


class NonnegIntegersWithInfinity(NonnegIntegers):
    def add(self, u, v):
        if u is INF or v is INF:
            return INF
        return u + v

    def scale(self, n, u):
        if u is INF:
            return INF if n else 0
        return n * u

    def validate(self, u) -> None:
        if u is INF:
            return
        super().validate(u)


class FreeAbelian:
    """Finite integer vectors over a countable named basis (a group, so any
    integer coefficients are allowed)."""

    def zero(self):
        return ()

    def add(self, u, v):
        return vec_add(u, v)

    def scale(self, n, u):
        return vec_scale(n, u)

    def validate(self, u) -> None:
        if not isinstance(u, tuple):
            raise ValueError(f"not a basis vector: {u!r}")


class FreeAbelianWithInfinity(FreeAbelian):
    def add(self, u, v):
        if u is INF or v is INF:
            return INF
        return vec_add(u, v)

    def scale(self, n, u):
        if u is INF:
            return INF if n else ()
        return vec_scale(n, u)

    def validate(self, u) -> None:
        if u is INF:
            return
        super().validate(u)


class PairMonoid:
    """Pairs (p, q) with q > 0, or q = 0 and p >= 0: the conical submonoid
    (Z+ x {0}) + (Z x N) of Z^2."""

    def zero(self):
        return (0, 0)

    def add(self, u, v):
        return (u[0] + v[0], u[1] + v[1])

    def scale(self, n, u):
        return (n * u[0], n * u[1])

    def validate(self, u) -> None:
        p, q = u
        if q < 0 or (q == 0 and p < 0):
            raise ValueError(f"outside the conical submonoid: {u!r}")


class NonnegPlaneWithInfinity:
    """Pairs of nonnegative integers, plus an absorbing infinity."""

    def zero(self):
        return (0, 0)

    def add(self, u, v):
        if u is INF or v is INF:
            return INF
        return (u[0] + v[0], u[1] + v[1])

    def scale(self, n, u):
        if u is INF:
            return INF if n else (0, 0)
        return (n * u[0], n * u[1])

    def validate(self, u) -> None:
        if u is INF:
            return
        if u[0] < 0 or u[1] < 0:
            raise ValueError(f"negative coordinate: {u!r}")


class CertificateHom(namedtuple("CertificateHom", "presentation target images name", defaults=("hom",))):
    """A relation-respecting map from a presentation's generators into a target.

    Constructed only through build_certificate, which checks every relation.
    """

    __slots__ = ()

    def apply(self, w: Word):
        t = self.target
        acc = t.zero()
        for idx, exp in w.exps:
            acc = t.add(acc, t.scale(exp, self.images[idx]))
        return acc


def build_certificate(
    p: Presentation,
    target: Any,
    images: Mapping[str, Any] | Mapping[int, Any],
    name: str = "hom",
) -> CertificateHom:
    """Validate generator images against every relation; error names the
    offending relation.  A generator is keyed by its name or its index; a
    key naming no generator, or a generator keyed twice, is a ValueError."""
    img_list: list = [None] * len(p.gens)
    keys: dict[int, Any] = {}  # generator index -> the key that gave its image
    for key, val in images.items():
        # a bool is an int to Python, but names no generator
        if type(key) is int and 0 <= key < len(img_list):
            idx = key
        elif isinstance(key, str):
            idx = p.gens.index(key)
        else:
            raise ValueError(f"bad generator key {key!r}")
        if idx in keys:
            raise ValueError(f"generator {p.gens.names[idx]!r} given twice, as {keys[idx]!r} and {key!r}")
        keys[idx] = key
        img_list[idx] = val
    missing = [p.gens.names[i] for i, v in enumerate(img_list) if v is None]
    if missing:
        raise ValueError(f"missing images for generators: {missing}")
    for v in img_list:
        target.validate(v)
    hom = CertificateHom(p, target, tuple(img_list), name)
    for rel in p.relations:
        lhs, rhs = hom.apply(rel.lhs), hom.apply(rel.rhs)
        if lhs != rhs:
            raise ValueError(f"relation violated by {name}: {rel.format(p.gens)} (images {lhs!r} != {rhs!r})")
    return hom
