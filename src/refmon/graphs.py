"""Directed graphs, separated graphs, (E, C, S) triples, and their monoid
presentations.

A separated graph attaches to each vertex a partition C_v of its outgoing
arrows; its monoid is presented by the vertices with one relation
v = sum of r(e) over e in X, per (v, X in C_v).  The triple presentation adds
q_Z generators for nonempty subsets Z of partition members, and the tilde
construction replaces designated emitters by chains of fresh vertices to make
the graph row-finite.

File format (UTF-8, `#` comments):

    graph <name>
    vertices <id> <id> ...
    arrow <id> <v> -> <w>
    separation <v> : {<arrow> ...} {<arrow> ...}
    emitter <v> : <arrow> <arrow> ... depth <n>
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .presentation import Presentation, make_presentation
from .words import ParseError, directives


class DirectedGraph(namedtuple("DirectedGraph", "vertices arrows name", defaults=("E",))):
    """vertices: tuple of names; arrows: tuple of (name, source, range).  No
    __slots__: the instance dict holds the cached_property table, as in
    SeparatedGraph."""

    def __new__(cls, *args, **kwargs) -> "DirectedGraph":
        self = super().__new__(cls, *args, **kwargs)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            dup = next(v for i, v in enumerate(self.vertices) if v in self.vertices[:i])
            raise ValueError(f"duplicate vertex {dup!r}")
        seen = set()
        for a, s, r in self.arrows:
            if a in seen:
                raise ValueError(f"duplicate arrow {a!r}")
            seen.add(a)
            if s not in vs or r not in vs:
                raise ValueError(f"arrow {a!r} references unknown vertex {s if s not in vs else r!r}")
        return self

    def rng(self, arrow: str) -> str:
        return self._range[arrow]

    @cached_property
    def _range(self) -> dict:
        return {a: r for a, _, r in self.arrows}

    def out_arrows(self, v: str) -> tuple[str, ...]:
        return tuple(a for a, s, _ in self.arrows if s == v)


class SeparatedGraph(namedtuple("SeparatedGraph", "graph separation")):
    """graph: DirectedGraph; separation: per vertex v, the pair (v, classes),
    classes a tuple of disjoint nonempty arrow tuples partitioning s^-1(v)."""

    def __new__(cls, graph: DirectedGraph, separation: tuple) -> "SeparatedGraph":
        self = super().__new__(cls, graph, separation)
        sep = self._classes
        if len(sep) != len(self.separation):
            raise ValueError("duplicate separation entry for a vertex")
        for v in sep:
            if v not in self.graph.vertices:
                raise ValueError(f"separation for unknown vertex {v!r}")
        for v in self.graph.vertices:
            out = set(self.graph.out_arrows(v))
            classes = sep.get(v, ())
            covered: set[str] = set()
            for members in classes:
                if not members:
                    raise ValueError(f"empty separation class at {v!r}")
                for a in members:
                    if a not in out:
                        raise ValueError(f"separation at {v!r} lists arrow {a!r} not emitted by it")
                    if a in covered:
                        raise ValueError(f"arrow {a!r} appears in two separation classes at {v!r}")
                    covered.add(a)
            if covered != out:
                missing = sorted(out - covered)
                raise ValueError(f"separation at {v!r} is not a partition of its arrows (missing {missing})")
        return self

    def classes_at(self, v: str) -> tuple[tuple[str, ...], ...]:
        return self._classes.get(v, ())

    @cached_property
    def _classes(self) -> dict:
        return dict(self.separation)

    def all_classes(self) -> list[tuple[str, tuple[str, ...]]]:
        out = []
        for v in self.graph.vertices:
            for cls in self.classes_at(v):
                out.append((v, cls))
        return out


def unseparation(g: DirectedGraph) -> SeparatedGraph:
    """C_v = {s^-1(v)} for every non-sink v."""
    sep = tuple((v, (out,)) for v in g.vertices if (out := g.out_arrows(v)))
    return SeparatedGraph(g, sep)


def present_finitely_separated(sg: SeparatedGraph) -> Presentation:
    """Generators = vertices; one relation v = sum of r(e) over e in X per class."""
    g = sg.graph
    rels = [(v, " + ".join(map(g.rng, cls))) for v, cls in sg.all_classes()]
    return make_presentation(g.name, list(g.vertices), rels)


def _q_name(z: tuple[str, ...]) -> str:
    return "q_" + "_".join(sorted(z))


def present_triple(sg: SeparatedGraph, z_cap: int = 3) -> Presentation:
    """The (E, C, S) presentation with S = every separation class (C_fin for
    a finite graph): q_Z generators for nonempty Z inside a separation class,
    |Z| <= z_cap or Z the whole class.

    Relations: v = q_Z + sum r(e) over Z; q_Z1 = q_Z2 + sum over Z2 \\ Z1 for
    Z1 subset of Z2; q_X = 0 for every class X.  Two distinct subsets with
    the same q name (arrows a, b and a_b both give q_a_b), or a subset named
    like a vertex (vertex q_a and arrow a), raise ValueError.
    """
    if z_cap < 1:
        raise ValueError("z_cap must be >= 1")
    g = sg.graph
    vertices = set(g.vertices)
    subsets_by_class: list[tuple[str, tuple[str, ...], list[tuple[str, ...]]]] = []
    owner: dict[str, tuple[str, ...]] = {}  # q name -> its subset, in first-seen order
    for v, cls in sg.all_classes():
        members = tuple(sorted(cls))
        subs = [
            z for size in range(1, len(members) + 1) if size <= z_cap or size == len(members)
            for z in combinations(members, size)
        ]
        subsets_by_class.append((v, cls, subs))
        for z in subs:
            name = _q_name(z)
            if name in vertices:
                raise ValueError(f"vertex {name!r} and arrow subset {list(z)} are both named {name!r}")
            other = owner.setdefault(name, z)
            if other != z:
                raise ValueError(f"arrow subsets {list(other)} and {list(z)} are both named {name!r}")

    def q_plus(q: tuple[str, ...], arrows) -> str:
        return " + ".join([_q_name(q)] + [g.rng(a) for a in arrows])

    rels = []
    for v, cls, subs in subsets_by_class:
        rels += [(v, q_plus(z, z)) for z in subs]
        for z1 in subs:
            for z2 in subs:
                if z1 != z2 and set(z1) <= set(z2):
                    rels.append((_q_name(z1), q_plus(z2, (a for a in z2 if a not in z1))))
        rels.append((_q_name(cls), "0"))
    return make_presentation(g.name + "_triple", list(g.vertices) + list(owner), rels)


def tilde_construction(
    g: DirectedGraph,
    emitter_order: dict[str, list[str]],
    depth: int,
) -> DirectedGraph:
    """Replace each designated emitter v by a chain of fresh vertices w_v_n.

    Arrows: non-emitter arrows kept; the first enumerated arrow of v kept,
    plus v -> w_v_1; then w_v_n -> w_v_{n+1} and w_v_n -> r(e_{v,n+1}) for
    n < depth.  The result is row-finite by construction.  A chain vertex
    that is already a vertex, or a chain arrow whose name already names an
    arrow, raises ValueError naming it and its emitter.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for v, order in emitter_order.items():
        if v not in g.vertices:
            raise ValueError(f"emitter {v!r} is not a vertex")
        if len(set(order)) != len(order):
            raise ValueError(f"emitter enumeration for {v!r} repeats an arrow")
        if set(order) != set(g.out_arrows(v)):
            raise ValueError(f"emitter enumeration for {v!r} must list exactly its arrows")
    vertices = list(g.vertices)
    arrows: list[tuple[str, str, str]] = []
    for a, s, r in g.arrows:
        if s not in emitter_order:
            arrows.append((a, s, r))
    # every arrow name of g, and each chain arrow's as it is made
    names = {a for a, _, _ in g.arrows}
    for v in g.vertices:
        if v not in emitter_order:
            continue
        order = emitter_order[v]
        chain = [f"w_{v}_{n}" for n in range(1, depth + 1)]
        for w in chain:
            if w in vertices:
                raise ValueError(f"chain vertex {w!r} of emitter {v!r} is already a vertex")
        vertices += chain
        if order:
            a0 = order[0]
            arrows.append((a0, v, g.rng(a0)))
        made = [(f"{v}__{chain[0]}", v, chain[0])]
        for n in range(1, depth):
            made.append((f"{chain[n-1]}__{chain[n]}", chain[n - 1], chain[n]))
            if n < len(order):
                made.append((f"{chain[n-1]}__r{n}", chain[n - 1], g.rng(order[n])))
        for a, _, _ in made:
            if a in names:
                raise ValueError(f"chain arrow {a!r} of emitter {v!r} is already an arrow")
            names.add(a)
        arrows += made
    return DirectedGraph(tuple(vertices), tuple(arrows), g.name + "_tilde")


# ---------------------------------------------------------------------------
# Built-in graphs


def _top(x: str, y: str, z: str) -> tuple[list, list]:
    """Arrows and separation of the top vertex u: two classes, u -> x, y and
    u -> x, z."""
    arrows = [("e1", "u", x), ("e2", "u", y), ("f1", "u", x), ("f2", "u", z)]
    return arrows, [("u", (("e1", "e2"), ("f1", "f2")))]


def builtin_graph(which: str, n: int = 1) -> SeparatedGraph:
    """The workbench's standard separated graphs.

    "ec": top vertex u over x0, y0, z0 with two separation classes at u,
    extended downward n levels with rung vertices a_l; its monoid
    presentation matches the level-n ladder truncation once u is eliminated.
    "e0c0": "ec" at level 0, the top alone.
    "ebar": the rungless variant over xbar_l, ybar0, zbar0.
    """
    which = which.lower()
    if which == "e0c0":
        which, n = "ec", 0
    elif n < 1:
        raise ValueError("truncation level must be >= 1")
    if which == "ec":
        vs = ["u"]
        for l in range(n + 1):
            vs += [f"x{l}", f"y{l}", f"z{l}"]
        vs += [f"a{l}" for l in range(1, n + 1)]
        arrows, sep = _top("x0", "y0", "z0")
        for l in range(n):
            arrows += [
                (f"gy{l}", f"y{l}", f"y{l+1}"),
                (f"ga{l}", f"y{l}", f"a{l+1}"),
                (f"hz{l}", f"z{l}", f"z{l+1}"),
                (f"ha{l}", f"z{l}", f"a{l+1}"),
                (f"px{l}", f"x{l}", f"x{l+1}"),
                (f"py{l}", f"x{l}", f"y{l+1}"),
                (f"qx{l}", f"x{l}", f"x{l+1}"),
                (f"qz{l}", f"x{l}", f"z{l+1}"),
            ]
            sep += [
                (f"y{l}", ((f"gy{l}", f"ga{l}"),)),
                (f"z{l}", ((f"hz{l}", f"ha{l}"),)),
                (f"x{l}", ((f"px{l}", f"py{l}"), (f"qx{l}", f"qz{l}"))),
            ]
        name = f"EC{n}" if n else "E0C0"
        return SeparatedGraph(DirectedGraph(tuple(vs), tuple(arrows), name), tuple(sep))
    if which == "ebar":
        vs = ["u", "xbar0", "ybar0", "zbar0"] + [f"xbar{l}" for l in range(1, n + 1)]
        arrows, sep = _top("xbar0", "ybar0", "zbar0")
        for l in range(n):
            arrows += [
                (f"px{l}", f"xbar{l}", f"xbar{l+1}"),
                (f"py{l}", f"xbar{l}", "ybar0"),
                (f"qx{l}", f"xbar{l}", f"xbar{l+1}"),
                (f"qz{l}", f"xbar{l}", "zbar0"),
            ]
            sep.append((f"xbar{l}", ((f"px{l}", f"py{l}"), (f"qx{l}", f"qz{l}"))))
        return SeparatedGraph(DirectedGraph(tuple(vs), tuple(arrows), f"EBAR{n}"), tuple(sep))
    raise ValueError(f"unknown builtin graph {which!r}")


# ---------------------------------------------------------------------------
# File format


class GraphFile(namedtuple("GraphFile", "graph separation emitters depth", defaults=(None, (), None))):
    """Parsed graph file: the graph, optional separation, optional emitter
    designations (v, arrow names) for the tilde construction and their
    depth."""

    __slots__ = ()

    def separated(self) -> SeparatedGraph:
        if self.separation is None:
            return unseparation(self.graph)
        return SeparatedGraph(self.graph, self.separation)


def parse_graph(text: str) -> GraphFile:
    name = "E"
    vertices: list[str] | None = None
    arrows: list[tuple[str, str, str]] = []
    separation: dict[str, list[tuple[str, ...]]] = {}
    have_sep = False
    emitters: list[tuple[str, tuple[str, ...]]] = []
    depth: int | None = None
    for lineno, key, rest in directives(text):
        if key == "graph":
            name = rest or name
        elif key == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            vertices = rest.split()
        elif key == "arrow":
            parts = rest.split()
            if len(parts) != 4 or parts[2] != "->":
                raise ParseError("expected: arrow <id> <v> -> <w>", lineno)
            arrows.append((parts[0], parts[1], parts[3]))
        elif key == "separation":
            have_sep = True
            v, _, body = rest.partition(":")
            v = v.strip()
            classes = []
            for m in _iter_braced(body, lineno):
                classes.append(tuple(m))
            if not classes:
                raise ParseError("separation line needs at least one {…} class", lineno)
            separation.setdefault(v, []).extend(classes)
        elif key == "emitter":
            v, _, body = rest.partition(":")
            v = v.strip()
            toks = body.split()
            if "depth" not in toks:
                raise ParseError("emitter line needs a trailing `depth <n>`", lineno)
            di = toks.index("depth")
            try:
                d = int(toks[di + 1])
            except (IndexError, ValueError):
                raise ParseError("bad depth value", lineno) from None
            if d < 1:
                raise ParseError("depth must be >= 1", lineno)
            if depth is not None and depth != d:
                raise ParseError("conflicting depth values", lineno)
            depth = d
            emitters.append((v, tuple(toks[:di])))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if vertices is None:
        raise ParseError("no vertices line")
    try:
        g = DirectedGraph(tuple(vertices), tuple(arrows), name)
        sep = None
        if have_sep:
            sep = tuple((v, tuple(classes)) for v, classes in separation.items())
            SeparatedGraph(g, sep)  # validate now, with no line info but a clear message
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return GraphFile(g, sep, tuple(emitters), depth)


def _iter_braced(body: str, lineno: int):
    rest = body
    while rest.strip():
        rest = rest.strip()
        if not rest.startswith("{"):
            raise ParseError("expected '{' in separation classes", lineno)
        end = rest.find("}")
        if end < 0:
            raise ParseError("unclosed '{' in separation classes", lineno)
        yield rest[1:end].split()
        rest = rest[end + 1:]


def format_graph(gf: GraphFile) -> str:
    g = gf.graph
    lines = [f"graph {g.name}", "vertices " + " ".join(g.vertices)]
    lines += [f"arrow {a} {s} -> {r}" for a, s, r in g.arrows]
    if gf.separation is not None:
        for v, classes in gf.separation:
            body = " ".join("{" + " ".join(cls) + "}" for cls in classes)
            lines.append(f"separation {v} : {body}")
    for v, order in gf.emitters:
        lines.append(f"emitter {v} : " + " ".join(order) + f" depth {gf.depth}")
    return "\n".join(lines) + "\n"
