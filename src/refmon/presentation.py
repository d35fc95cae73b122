"""Finitely presented commutative monoids: the Presentation container and its
line-oriented file format.

Format (UTF-8, `#` starts a comment):

    monoid <name>
    generators <id> <id> ...
    relation <term> = <term>

where a term is `k*<id> + ...` (coefficient 1 may be omitted, `0` is empty).
`make_presentation` builds the workbench's builtin presentations from
relations written in the same term syntax, read by the same `parse_term`.
"""
from __future__ import annotations

from collections import namedtuple

from .words import GeneratorSet, ParseError, Word, directives, parse_term


class Relation(namedtuple("Relation", "lhs rhs")):
    __slots__ = ()

    def format(self, gens: GeneratorSet) -> str:
        return f"{self.lhs.format(gens)} = {self.rhs.format(gens)}"


class Presentation(namedtuple("Presentation", "gens relations name", defaults=((), "M"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Presentation":
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.gens)
        for rel in self.relations:
            for word in (rel.lhs, rel.rhs):
                for idx, _ in word.exps:
                    if not 0 <= idx < n:
                        raise ValueError(f"relation references generator index {idx} out of range")
        return self

    def word(self, text: str) -> Word:
        return parse_term(text, self.gens)

    def format(self) -> str:
        lines = [f"monoid {self.name}", "generators " + " ".join(self.gens.names)]
        lines += [f"relation {r.format(self.gens)}" for r in self.relations]
        return "\n".join(lines) + "\n"


def make_presentation(name: str, gen_names: list[str], relations: list[tuple[str, str]]) -> Presentation:
    """The presentation on `gen_names` whose relations are (lhs, rhs) terms,
    such as ("y0", "y1 + a1") or ("q_e1_e2", "0"); a relation whose sides
    are equal words is dropped, as in the file format."""
    gens = GeneratorSet(tuple(gen_names))
    rels = []
    for lhs_s, rhs_s in relations:
        lhs, rhs = parse_term(lhs_s, gens), parse_term(rhs_s, gens)
        if lhs != rhs:
            rels.append(Relation(lhs, rhs))
    return Presentation(gens, tuple(rels), name)


def parse_presentation(text: str) -> Presentation:
    name = None
    gens: GeneratorSet | None = None
    rels: list[Relation] = []
    for lineno, key, rest in directives(text):
        if key == "monoid":
            if not rest:
                raise ParseError("missing monoid name", lineno)
            name = rest
        elif key == "generators":
            if gens is not None:
                raise ParseError("duplicate generators line", lineno)
            try:
                gens = GeneratorSet(tuple(rest.split()))
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
        elif key == "relation":
            if gens is None:
                raise ParseError("relation before generators line", lineno)
            if "=" not in rest:
                raise ParseError("relation needs '='", lineno)
            lhs_s, _, rhs_s = rest.partition("=")
            lhs = parse_term(lhs_s, gens, lineno)
            rhs = parse_term(rhs_s, gens, lineno)
            if lhs != rhs:
                rels.append(Relation(lhs, rhs))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if gens is None:
        raise ParseError("no generators line")
    return Presentation(gens, tuple(rels), name or "M")
