"""Generator sets and words (exponent multisets) over them.

Word equality (`==`) is *raw* multiset equality, deliberately distinct from
monoid equality, which is decided by the rewriting oracle (rewrite.decide_equal).
"""
from __future__ import annotations

import re
from collections import namedtuple
from itertools import combinations, product
from operator import sub
from typing import Iterable, Iterator


class ParseError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SPACED = re.compile(r"^(\d+)\s+(\S+)$")  # the `k name` summand


class GeneratorSet(namedtuple("GeneratorSet", "names")):
    # no __slots__: the instance dict holds `_table`, name -> index, built
    # once; `index`, `in` and parse_term read it
    def __new__(cls, names: tuple[str, ...]) -> "GeneratorSet":
        self = super().__new__(cls, names)
        table: dict[str, int] = {}
        for idx, name in enumerate(names):
            if not _IDENT.match(name):
                raise ParseError(f"invalid generator name {name!r}")
            if name in table:
                raise ParseError(f"duplicate generator {name!r}")
            table[name] = idx
        self._table = table
        return self

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._table[name]
        except KeyError:
            raise ParseError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._table


class Word(namedtuple("Word", "exps", defaults=((),))):
    """Sparse exponent map, stored as a sorted tuple of (gen index, exponent>0)."""

    __slots__ = ()

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]] = ()) -> "Word":
        acc: dict[int, int] = {}
        for idx, exp in pairs:
            if exp < 0:
                raise ValueError("negative exponent")
            if exp:
                acc[idx] = acc.get(idx, 0) + exp
        return Word(tuple(sorted(acc.items())))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    # The kernels below take canonical words (sorted indices, positive
    # exponents), as every constructor but a bare Word(...) makes them, and
    # return canonical words without Word.of's checks.

    def add(self, other: "Word") -> "Word":
        """Componentwise sum; an empty operand gives the other one back."""
        if not other.exps:
            return self
        if not self.exps:
            return other
        acc = dict(self.exps)
        for i, e in other.exps:
            acc[i] = acc.get(i, 0) + e
        return Word(tuple(sorted(acc.items())))

    def contains(self, other: "Word") -> bool:
        """Componentwise >= (the rewrite-applicability test): one walk along
        both sorted exponent tuples."""
        mine = iter(self.exps)
        for i, e in other.exps:
            for j, f in mine:
                if j >= i:
                    break
            else:
                return False
            if j != i or f < e:
                return False
        return True

    def sub(self, other: "Word") -> "Word":
        """Componentwise difference; requires self.contains(other).  Entries
        keep their sorted order, since an entry is only lowered or deleted."""
        if not other.exps:
            return self
        mine = dict(self.exps)
        for i, e in other.exps:
            left = mine.get(i, 0) - e
            if left > 0:
                mine[i] = left
            elif left:
                raise ValueError("word subtraction underflow")
            else:
                del mine[i]
        return Word(tuple(mine.items()))

    def scale(self, m: int) -> "Word":
        if m < 0:
            raise ValueError("negative multiplier")
        return Word(tuple((i, e * m) for i, e in self.exps)) if m else Word()

    def is_zero(self) -> bool:
        return not self.exps

    def meet(self, other: "Word") -> "Word":
        """Componentwise minimum."""
        ot = dict(other.exps)
        return Word(tuple((i, min(e, ot[i])) for i, e in self.exps if i in ot and min(e, ot[i])))

    def subwords(self) -> Iterator["Word"]:
        """All componentwise-dominated words, in lexicographic order."""
        idxs = [i for i, _ in self.exps]
        for es in product(*(range(e + 1) for _, e in self.exps)):
            yield Word(tuple((i, e) for i, e in zip(idxs, es) if e))

    def format(self, gens: GeneratorSet) -> str:
        return format_term((gens.names[i], e) for i, e in self.exps)

    def sort_key(self) -> tuple:
        return (self.degree(), self.exps)


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Every n-tuple of nonnegative integers with sum <= d, in lexicographic
    order.  Stars and bars: n bar positions b_1 < ... < b_n in range(n + d)
    give the tuple with entries b_k - b_{k-1} - 1 (b_0 = -1), and bars in
    lexicographic order give tuples in lexicographic order."""
    for bars in combinations(range(n + d), n):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))


def free_refine(a, b, c, d) -> tuple[tuple[int, ...], ...]:
    """(z11, z12, z21, z22) refining a + b = c + d for count vectors:
    z11 = min(a, c), z12 = a - z11, z21 = c - z11, z22 = b - z21."""
    z11 = tuple(map(min, a, c))
    z21 = tuple(map(sub, c, z11))
    return z11, tuple(map(sub, a, z11)), z21, tuple(map(sub, b, z21))


def checked_refinement(add, solve, a, b, c, d):
    """`solve(a, b, c, d)`, the matrix ((z11, z12), (z21, z22)) refining a + b
    = c + d, with its rows and columns re-verified under `add`.  A failed
    precondition raises ValueError; a matrix that does not verify is a bug
    and raises AssertionError naming the first row or column that fails."""
    if add(a, b) != add(c, d):
        raise ValueError("precondition a + b = c + d does not hold")
    matrix = solve(a, b, c, d)
    (z11, z12), (z21, z22) = matrix
    sums = (("row 1", z11, z12, a), ("row 2", z21, z22, b), ("column 1", z11, z21, c), ("column 2", z12, z22, d))
    for label, u, v, want in sums:
        got = add(u, v)
        if got != want:
            raise AssertionError(f"refinement {label} does not verify: {got} != {want}")
    return matrix


def directives(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, rest) for each directive line of the line-oriented
    file formats: `#` starts a comment, and blank lines are skipped but
    counted."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, rest = line.partition(" ")
            yield lineno, key, rest.strip()


def format_term(pairs: Iterable[tuple[str, int]]) -> str:
    """The term `k*<id> + ...` of (name, k) pairs, the syntax parse_term
    reads: k = 1 is omitted, k = 0 skipped, and `0` is the empty term."""
    return " + ".join(name if k == 1 else f"{k}*{name}" for name, k in pairs if k) or "0"


def parse_term(text: str, gens: GeneratorSet, line: int | None = None) -> Word:
    """Parse `k*<id> + ...` (coefficient 1 may be omitted; `0` is the empty word)."""
    text = text.strip()
    if text == "0" or text == "":
        return Word()
    table = gens._table
    acc: dict[int, int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty summand in term", line)
        if "*" in chunk:
            coeff_s, _, name = chunk.partition("*")
            try:
                coeff = int(coeff_s.strip())
            except ValueError:
                raise ParseError(f"bad coefficient {coeff_s.strip()!r}", line) from None
            if coeff < 0:
                raise ParseError("negative coefficient", line)
            name = name.strip()
        else:
            m = _SPACED.match(chunk)
            coeff, name = (int(m[1]), m[2]) if m else (1, chunk)
        idx = table.get(name)
        if idx is None:
            raise ParseError(f"unknown generator {name!r}", line)
        if coeff:
            acc[idx] = acc.get(idx, 0) + coeff
    return Word(tuple(sorted(acc.items())))
