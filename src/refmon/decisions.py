"""Three-valued verdicts and search bounds.

Every bounded search in this package returns a Decision rather than a bare
boolean: the congruence classes involved are typically infinite, so "not
found within the bound" must stay distinct from "provably absent".

SearchBound, Decision and the package's other records are namedtuple
subclasses: immutable, hashed and compared as the tuple of their fields in
C, and defined at import without the generated methods a dataclass
compiles.  A record that validates its fields does so in `__new__`, which
a namedtuple's `_make` and `_replace` skip, so such a record is never
rebuilt through them.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Any

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

_new = tuple.__new__


class SearchBound(namedtuple("SearchBound", "max_degree max_class_size max_coefficient", defaults=(6, 20000, 5))):
    """Caps for bounded enumeration.

    max_degree caps the total degree of any word considered (including
    intermediate words on rewrite paths); max_class_size caps congruence-class
    enumeration; max_coefficient caps multipliers and searched coefficients.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SearchBound":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.max_class_size < 1 or self.max_coefficient < 1:
            raise ValueError("max_class_size and max_coefficient must be >= 1")
        return self


class Decision(namedtuple("Decision", "verdict witness counterexample bound note", defaults=(None, None, None, ""))):
    """Holds(witness) / Fails(counterexample) / Unknown(bound).

    Holds and Fails always carry a machine-checkable witness respectively
    counterexample; Unknown records the bound that was exhausted.  Decision
    validates no field, so the constructors below build the tuple directly
    (`_new`, in field order), without the generated `__new__`'s keywords.
    """

    __slots__ = ()

    @staticmethod
    def holds(witness: Any = None, note: str = "") -> "Decision":
        if witness is None and not note:
            return _BARE_HOLDS
        return _new(Decision, (HOLDS, witness, None, None, note))

    @staticmethod
    def fails(counterexample: Any = None, note: str = "") -> "Decision":
        if counterexample is None and not note:
            return _BARE_FAILS
        return _new(Decision, (FAILS, None, counterexample, None, note))

    @staticmethod
    def unknown(bound: SearchBound | None = None, note: str = "") -> "Decision":
        if note:
            return _new(Decision, (UNKNOWN, None, None, bound, note))
        bare = _BARE_UNKNOWN.get(bound)
        if bare is None:
            bare = _BARE_UNKNOWN[bound] = Decision(UNKNOWN, bound=bound)
        return bare

    @property
    def is_holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.verdict == FAILS

    @property
    def is_unknown(self) -> bool:
        return self.verdict == UNKNOWN

    def __bool__(self) -> bool:
        # deliberate: forces callers to test .is_holds / .is_fails explicitly
        raise TypeError("Decision is three-valued; test .is_holds / .is_fails")


# Decisions are immutable, so the bare ones (no witness, counterexample or note)
# that exact oracles return by the hundred thousand can be one shared object,
# and the bare Unknowns that bounded searches return one per bound.
_BARE_HOLDS = Decision(HOLDS)
_BARE_FAILS = Decision(FAILS)
_BARE_UNKNOWN: dict[SearchBound | None, Decision] = {}
