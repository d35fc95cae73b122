"""A uniform facade over the workbench's monoids for the property lab.

Every oracle exposes elements up to a degree bound, three-valued
equal/leq/refine, total add, and zero.  Exact oracles (the ladder and bar
monoids, primitive monoids) have canonical hashable elements and never
answer Unknown; presentation oracles delegate to the bounded rewriting
engine and may.  `below` is the order's verdict alone, True, False or None
for Unknown: an exact oracle reads it straight off its kernel, without the
Decision that `leq` builds around the complement.  The free monoid of rank
n is the primitive monoid of an antichain of n primes e0, e1, ..., so
`free_oracle` is a primitive oracle with the free monoid's certificates.  A
primitive oracle certifies the properties its poset proves, and is
`finitely_generated`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

from . import primitive, wild
from .decisions import FAILS, HOLDS, UNKNOWN, Decision, SearchBound
from .presentation import Presentation
from .rewrite import ClassCache, decide_equal, decide_leq, find_refinement
from .words import Word, compositions


class MonoidOracle:
    """One monoid as the lab sees it: elements up to a degree, three-valued
    `equal`, `leq` and `refine`, total `add`, and optional capabilities.

    `below(x, y)` is `leq`'s verdict without its complement: True, False,
    or None for Unknown.  The lab's order-only tests call it.  An exact
    oracle passes one built on its kernel; otherwise, and whenever `replace`
    changes `leq` without naming `below`, it is read off `leq`'s Decision,
    so the two never disagree.

    Every oracle refines: an exact oracle in closed form, always Holds; a
    presentation oracle by bounded search, which may answer Fails or Unknown.
    A failed precondition a + b = c + d raises ValueError.

    `certified` maps a property id of the lab to the reason the oracle's own
    mathematics proves it; the lab answers Holds with that reason as the note
    and sweeps nothing.  Every exact oracle certifies refinement and Riesz
    decomposition by its closed-form `refine`; the ladder, bar and free
    oracles also certify what their states and homogeneous order prove, the
    ladder and bar oracles separativity by their coordinates, and every
    primitive oracle what its poset proves.  The lab docstring's
    Certificates paragraph quotes each reason with its proof.

    `reports` is the lab's memo: `check_property` keeps each report under
    (property, bound, samples), and a repeated question gets the first
    report back, its first `elapsed` included.  It is not a constructor
    argument, and `replace` starts the copy with an empty memo: a copy with
    other capabilities may answer differently.

    A plain class, unlike the package's tuple records: its callables are
    attributes that a tracer may rebind.
    """

    def __init__(
        self,
        name: str,
        zero: object,
        add: Callable,
        equal: Callable,  # (x, y) -> Decision
        leq: Callable,  # (x, y) -> Decision; Holds witness is a complement
        elements: Callable,  # max_degree -> tuple, enumerated once per degree
        refine: Callable,  # (a, b, c, d) -> Decision; Holds witness is ((z11, z12), (z21, z22))
        # optional capabilities
        # element -> True only when z is cancellable (x + z = y + z forces x =
        # y), such as the ladder's elements of x-count 0; None if the oracle
        # has none.  Exact oracles only: the cancellative sweep skips every
        # such z.
        cancellable: Callable | None = None,
        generators: tuple = (),  # deeper generators for irreducibles; empty: the degree-1 elements
        exact: bool = False,  # canonical hashable elements, equality `==`, never Unknown
        fmt: Callable = str,
        certified: Mapping[str, str] | None = None,  # property id -> reason
        # True when the monoid is finitely generated, like a primitive or a
        # finitely presented monoid; not the ladder and bar monoids, which
        # are inductive limits
        finitely_generated: bool = False,
        below: Callable | None = None,  # (x, y) -> True, False or None; None: read off `leq`
    ) -> None:
        if cancellable is not None and not exact:
            raise ValueError("only an exact oracle may name cancellable elements")
        self.name = name
        self.zero = zero
        self.add = add
        self.equal = equal
        self.leq = leq
        self.below = below or (lambda x, y: _TRUTH[leq(x, y).verdict])
        self.elements = elements
        self.refine = refine
        self.cancellable = cancellable
        self.generators = generators
        self.exact = exact
        self.fmt = fmt
        self.certified = {} if certified is None else certified
        self.finitely_generated = finitely_generated
        self.reports: dict = {}

    def replace(self, **changes) -> "MonoidOracle":
        """A copy with `changes` to its constructor arguments and an empty
        report memo.  A new `leq` brings its own `below` unless `changes`
        names one."""
        kept = {k: v for k, v in vars(self).items() if k != "reports"}
        if "leq" in changes:
            del kept["below"]
        return MonoidOracle(**{**kept, **changes})

    def is_zero(self, x) -> Decision:
        return self.equal(x, self.zero)


_TRUTH = {HOLDS: True, FAILS: False, UNKNOWN: None}

# m*x <= m*y iff x <= y, read off the closed-form order criterion
_HOMOGENEOUS_ORDER = "homogeneous order certificate"
# a faithful additive map into the nonnegative rationals: the ladder monoid's
# wild.standard_certificates(n)["state"], the free monoid's degree
_POSITIVE_STATE = dict.fromkeys(
    ("conical", "stably-finite", "antisymmetric", "archimedean"), "positive state certificate"
)
# a faithful additive map into the pointed cone {q > 0} u {q = 0, p >= 0} of
# Z^2: wild.standard_certificates(n, "bar")["pair_state"]; not archimedean,
# since n*zbar0 <= xbar0 for every n
_PAIR_STATE = dict.fromkeys(("conical", "stably-finite", "antisymmetric"), "pair state certificate")
# 2x = x + y forces x = y: x cancels when its x-count (xbar count) is 0, and
# else the coordinates at a common level fix it
_COORDINATES = dict.fromkeys(("separative", "strongly-separative"), "coordinate certificate")
# the closed-form order of a primitive monoid, read off its poset: proved in
# lab.py's Certificates paragraph, and granted by `_poset_certified`
_POSET_ORDER = "primitive poset certificate"
# every exact oracle's `refine` solves each a + b = c + d in closed form, and
# x + c = y1 + y2 refines to x = z11 + z12 with z11 <= y1 and z12 <= y2
_CLOSED_FORM_REFINEMENT = dict.fromkeys(
    ("refinement", "riesz-decomposition"), "closed-form refinement certificate"
)


def _per_degree(enumerate_elements):
    """`enumerate_elements` as a tuple, computed once per degree: the lab's
    checks on one oracle all sweep the same elements."""
    return lru_cache(maxsize=None)(lambda d: tuple(enumerate_elements(d)))


def _exact(name, zero, add, leq, refine, enumerate_elements, certified=None, **capabilities) -> MonoidOracle:
    """The oracle of a monoid with canonical elements: equality is `==`;
    `leq` returns a complement or None, and `refine` the matrix of a + b =
    c + d (raising ValueError when that fails); neither is ever Unknown.
    `below` tests the kernel's complement against None and builds no
    Decision.
    Closed-form refinement certifies refinement and Riesz decomposition, on
    top of the builder's own `certified`."""

    def exact_leq(x, y):
        c = leq(x, y)
        return Decision.holds(witness=c) if c is not None else Decision.fails()

    return MonoidOracle(
        name=name,
        zero=zero,
        add=add,
        equal=lambda x, y: Decision.holds() if x == y else Decision.fails(),
        leq=exact_leq,
        below=lambda x, y: leq(x, y) is not None,
        elements=_per_degree(enumerate_elements),
        refine=lambda a, b, c, d: Decision.holds(witness=refine(a, b, c, d), note="exact refinement"),
        exact=True,
        certified={**_CLOSED_FORM_REFINEMENT, **(certified or {})},
        **capabilities,
    )


def ladder_oracle(level: int) -> MonoidOracle:
    """Exact oracle for the ladder monoid, elements enumerated up to `level`."""
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    return _exact(
        f"ladder(level={level})",
        wild.LadderElem.zero(),
        wild.LadderElem.add,
        wild.LadderElem.leq,
        wild.ladder_refine,
        lambda d: wild.enumerate_ladder(level, d),
        cancellable=lambda e: e[1] == 0,  # x-count 0
        generators=tuple(wild.enumerate_ladder(level + 2, 1)),
        certified={**_POSITIVE_STATE, **_COORDINATES, "unperforated": _HOMOGENEOUS_ORDER},
    )


def bar_oracle(level: int) -> MonoidOracle:
    """Exact oracle for the bar monoid.  It has no positive state, since the
    monoid is not archimedean; its pair state certifies the rest.  Its
    `cancellable` elements are those of xbar count 0 (lab.py's "Cancellable
    elements" paragraph proves it)."""
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    return _exact(
        f"bar(level={level})",
        wild.BarElem.zero(),
        wild.BarElem.add,
        wild.BarElem.leq,
        wild.bar_refine,
        lambda d: wild.enumerate_bar(level, d),
        cancellable=lambda e: e[3] == 0,  # xbar count 0
        generators=tuple(wild.enumerate_bar(level + 2, 1)),
        certified={**_PAIR_STATE, **_COORDINATES, "unperforated": _HOMOGENEOUS_ORDER},
    )


def _poset_certified(poset: primitive.PrimePoset) -> dict[str, str]:
    """The properties the poset alone proves of its primitive monoid: four
    always, strong separativity when no prime is idempotent, and stable
    finiteness, cancellation and the archimedean property when `below` is
    empty (an antichain)."""
    props = ["conical", "antisymmetric", "unperforated", "separative"]
    if not poset.idempotents:
        props.append("strongly-separative")
    if not poset.below:
        props += ["stably-finite", "cancellative", "archimedean"]
    return dict.fromkeys(props, _POSET_ORDER)


def _primitive(poset: primitive.PrimePoset, name: str, certified=None) -> MonoidOracle:
    """The exact oracle of the primitive monoid of `poset`, a finitely
    generated refinement monoid; the builder's `certified` take precedence
    over the poset's."""
    return _exact(
        name,
        primitive.normalize(poset, {}),
        primitive.prim_add,
        primitive.prim_leq,
        primitive.prim_refine,
        lambda d: primitive.enumerate_elements(poset, d),
        certified={**_poset_certified(poset), **(certified or {})},
        finitely_generated=True,
    )


def free_oracle(rank: int) -> MonoidOracle:
    """The free commutative monoid of the given rank: the primitive monoid of
    `rank` unrelated primes e0, e1, ...."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    return _primitive(
        primitive.PrimePoset(tuple(f"e{i}" for i in range(rank)), frozenset()),
        f"free({rank})",
        certified={**_POSITIVE_STATE, "unperforated": _HOMOGENEOUS_ORDER},
    )


def primitive_oracle(poset: primitive.PrimePoset, name: str | None = None) -> MonoidOracle:
    """Exact oracle for the primitive monoid of `poset`, named `name` or
    else the poset's name."""
    return _primitive(poset, name or poset.name)


def presentation_oracle(
    p: Presentation,
    bound: SearchBound,
    certs: Sequence = (),
) -> MonoidOracle:
    """Three-valued oracle over a finitely presented monoid via bounded
    rewriting; elements are raw words (not canonical), and `below` reads
    `decide_leq`'s verdict."""

    cache = ClassCache(p, bound)

    def elements(max_degree: int):
        return (Word.of([(i, c) for i, c in enumerate(t) if c]) for t in compositions(len(p.gens), max_degree))

    return MonoidOracle(
        name=p.name,
        zero=Word(),
        add=lambda x, y: x.add(y),
        equal=lambda x, y: decide_equal(p, x, y, bound, certs, cache),
        leq=lambda x, y: decide_leq(p, x, y, bound, cache),
        elements=_per_degree(elements),
        refine=lambda a, b, c, d: find_refinement(p, a, b, c, d, bound, certs, cache),
        fmt=lambda w: w.format(p.gens),
        finitely_generated=True,
    )
