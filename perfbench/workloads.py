"""Seeded inputs and reference verdicts for the three benchmark workloads.

Everything here runs in the benchmark's parent process, before the measured
process starts, so the measured process receives only generated inputs.  A
reference verdict is "h" (holds), "f" (fails) or None (no reference: the
verdict is recorded but not scored).  Irreducible sets are references too,
as sorted name tuples.

Terms are kept as {generator name: count} dicts and handed to the program as
text, so the inputs do not depend on the program's word representation.
"""
from __future__ import annotations

import random

from refmon import graphs, suite, wild

# The benchmark's search bound is the program's default bound (SearchBound()).
EQ_SWEEP_SETS = (("ladder", 2, 5), ("bar", 3, 6))  # (kind, level, max word degree)
# Requests per pass of cli-mixed: per builtin target for eq, leq and refine,
# and per truncation for each `wild` operation; plus the standard suite.
CLI_CELLS = {"eq": 72, "leq": 64, "refine": 20}
CLI_WILD_CELL = 44
LAB_SAMPLES = 100

LAB_PROPERTIES = (
    "conical",
    "stably-finite",
    "separative",
    "strongly-separative",
    "cancellative",
    "unperforated",
    "antisymmetric",
    "archimedean",
    "refinement",
    "riesz-decomposition",
    "riesz-interpolation",
)
LAB_OPS = LAB_PROPERTIES + ("irreducibles", "wildness")
# Checks that hit the known defect bounded-search-fails (KNOWN_DEFECTS in
# run.py), left out of the lab sheet.
LAB_LEFT_OUT = {("ladder:2", "riesz-decomposition"), ("prim-chain", "refinement")}

# Oracles of the lab sheet: name -> (spec handed to the worker, max degree,
# max coefficient).  The posets get a smaller coefficient cap: prim_leq's
# complement search grows with the cube of the largest coefficient.
LAB_ORACLES = {
    "ladder:2": ({"kind": "ladder", "level": 2}, 5, 5),
    "bar:3": ({"kind": "bar", "level": 3}, 6, 5),
    "m0": ({"kind": "m0"}, 3, 5),
    "prim-free": ({"kind": "poset", "primes": ["p", "q", "r"], "below": []}, 2, 3),
    "prim-chain": (
        {"kind": "poset", "primes": ["p", "q", "r"], "below": [["p", "q"], ["q", "r"], ["p", "r"]]},
        2,
        3,
    ),
}

# Verdicts the mathematics settles, for the lab sheet at the bounds above.
# Omitted entries are unscored.  Reasons, per monoid:
# - ladder, bar: refinement monoids (hence Riesz decomposition), not
#   cancellative (x0 + y0 = x0 + z0); ladder has a faithful positive state
#   (conical, stably finite, antisymmetric, archimedean); bar's pair state
#   (xbar_l -> (1 - l, 1), ybar0, zbar0 -> (1, 0)) lands in a group and is
#   zero only on 0, so bar is stably finite and antisymmetric, no relation has
#   an empty side (conical), and n*zbar0 <= xbar0 for every n (not
#   archimedean).
# - m0: degree is a faithful additive invariant (conical, stably finite,
#   antisymmetric, archimedean); by the equality rule in `m0_equal`, 2x = 2y
#   and 2x = x + y each force x = y, and m*x <= m*y forces x <= y; x0 + y0 =
#   x0 + z0 has no refinement, and y0 <= x0 + z0 has no Riesz decomposition.
# - prim-free: the free commutative monoid on three generators, a lattice
#   cone: every property holds.
# - prim-chain (p < q < r): every element is k times one prime; p + q = q
#   breaks stable finiteness and cancellation and gives n*p <= q for all n;
#   the order is "higher prime, or same prime and smaller k", which is
#   antisymmetric, separative, strongly separative and unperforated; primitive
#   monoids are refinement monoids (Pierce), hence Riesz decomposition.
H, F = "h", "f"
LAB_TRUTH = {
    "ladder:2": {"conical": H, "stably-finite": H, "cancellative": F, "antisymmetric": H,
                 "archimedean": H, "refinement": H, "riesz-decomposition": H, "wildness": H,
                 "irreducibles": ("a1", "a2")},
    "bar:3": {"conical": H, "stably-finite": H, "cancellative": F, "antisymmetric": H,
              "archimedean": F, "refinement": H, "riesz-decomposition": H, "wildness": H,
              "irreducibles": ("ybar0", "zbar0")},
    "m0": {"conical": H, "stably-finite": H, "separative": H, "strongly-separative": H,
           "cancellative": F, "unperforated": H, "antisymmetric": H, "archimedean": H,
           "refinement": F, "riesz-decomposition": F, "wildness": H,
           "irreducibles": ("x0", "y0", "z0")},
    "prim-free": {**{p: H for p in LAB_PROPERTIES}, "wildness": F, "irreducibles": ("p", "q", "r")},
    "prim-chain": {"conical": H, "stably-finite": F, "separative": H, "strongly-separative": H,
                   "cancellative": F, "unperforated": H, "antisymmetric": H, "archimedean": F,
                   "refinement": H, "riesz-decomposition": H, "irreducibles": ("p",)},
}

CLI_TARGETS = (
    "m0", "ladder:1", "ladder:2", "ladder:3", "bar:1", "bar:2", "bar:3",
    "e0c0", "ec:1", "ec:2", "ec:3", "ebar:1", "ebar:2", "ebar:3",
)


# ---------------------------------------------------------------------------
# Terms


def fmt(term: dict, order) -> str:
    parts = [g if term[g] == 1 else f"{term[g]}*{g}" for g in order if term.get(g)]
    return " + ".join(parts) if parts else "0"


def _plus(u: dict, v: dict) -> dict:
    out = dict(u)
    for g, c in v.items():
        out[g] = out.get(g, 0) + c
    return out


def _parse_text_term(text: str) -> dict:
    out: dict = {}
    text = text.strip()
    if text in ("", "0"):
        return out
    for chunk in text.split("+"):
        coeff, _, name = chunk.strip().rpartition("*")
        out[name.strip()] = out.get(name.strip(), 0) + int(coeff or 1)
    return out


class Presented:
    """Generators and relations of a presentation, read from its text format."""

    def __init__(self, text: str):
        self.gens: list[str] = []
        self.rels: list[tuple[dict, dict]] = []
        for line in text.splitlines():
            key, _, rest = line.partition(" ")
            if key == "generators":
                self.gens = rest.split()
            elif key == "relation":
                lhs, _, rhs = rest.partition("=")
                self.rels.append((_parse_text_term(lhs), _parse_text_term(rhs)))

    def random_word(self, rng: random.Random, lo: int, hi: int | None = None) -> dict:
        """A word of degree lo, or of a random degree in [lo, hi]."""
        w: dict = {}
        for _ in range(lo if hi is None else rng.randint(lo, hi)):
            g = rng.choice(self.gens)
            w[g] = w.get(g, 0) + 1
        return w

    def walk(self, rng: random.Random, w: dict, steps: int) -> dict:
        """Apply `steps` random relation moves: the result equals w by construction."""
        w = dict(w)
        for _ in range(steps):
            moves = [
                (src, dst)
                for lhs, rhs in self.rels
                for src, dst in ((lhs, rhs), (rhs, lhs))
                if all(w.get(g, 0) >= c for g, c in src.items())
            ]
            if not moves:
                break
            src, dst = rng.choice(moves)
            for g, c in src.items():
                w[g] -= c
            w = {g: c for g, c in _plus(w, dst).items() if c}
        return w

    def text(self, w: dict) -> str:
        return fmt(w, self.gens)


def _presented(target: str) -> Presented:
    """m0, ladder:N or bar:N."""
    name, _, arg = target.partition(":")
    p = wild.m0_presentation() if target == "m0" else wild.truncation_presentation(int(arg), name)
    return Presented(p.format())


# ---------------------------------------------------------------------------
# Independent references


def m0_equal(u: dict, v: dict) -> bool:
    """Hand rule for x0 + y0 = x0 + z0: equal x0 counts, then equal y0 + z0
    counts when x0 > 0, else equal y0 and z0 counts."""
    ux, uy, uz = (u.get(g, 0) for g in ("x0", "y0", "z0"))
    vx, vy, vz = (v.get(g, 0) for g in ("x0", "y0", "z0"))
    if ux != vx:
        return False
    return uy + uz == vy + vz if ux else (uy, uz) == (vy, vz)


def m0_leq(u: dict, v: dict) -> bool:
    """u + c = v for some c, by the same rule."""
    ux, uy, uz = (u.get(g, 0) for g in ("x0", "y0", "z0"))
    vx, vy, vz = (v.get(g, 0) for g in ("x0", "y0", "z0"))
    if ux > vx:
        return False
    return uy + uz <= vy + vz if vx else (uy <= vy and uz <= vz)


def _unvertex(target: str, w: dict) -> dict:
    """Eliminate the graph vertex u (u = x0 + y0) so the word lives in m0, a
    ladder truncation or a bar truncation."""
    w = dict(w)
    u = w.pop("u", 0)
    if u:
        x, y = ("xbar0", "ybar0") if target.startswith("ebar") else ("x0", "y0")
        w = _plus(w, {x: u, y: u})
    return w


def reference(target: str, op: str, u: dict, v: dict, truncated: bool = True):
    """'h' / 'f' for eq and leq over a CLI target, from the m0 rule or the
    wild canonical forms.  Equality in a truncation is equality in the whole
    monoid.  So is the ladder order: the complement lives at the level of its
    arguments.  A bar complement may need a higher level than the truncation
    has (ybar0 <= xbar1 holds through xbar2), so in bar:N it must have level
    <= N; `truncated=False` asks about the whole monoid (the `wild` command)."""
    name, _, arg = target.partition(":")
    if name in ("e0c0", "ec", "ebar"):
        u, v = _unvertex(target, u), _unvertex(target, v)
    if name in ("m0", "e0c0"):
        ok = m0_equal(u, v) if op == "eq" else m0_leq(u, v)
    else:
        order = sorted(set(u) | set(v))
        a, b = wild.parse_elem(fmt(u, order)), wild.parse_elem(fmt(v, order))
        if op == "eq":
            ok = a.equal(b)
        else:
            c = a.leq(b)
            ok = c is not None and not (truncated and name in ("bar", "ebar") and c.level > int(arg))
    return H if ok else F


# ---------------------------------------------------------------------------
# Workloads


def _compositions(n: int, d: int):
    if n == 0:
        yield ()
        return
    for first in range(d + 1):
        for rest in _compositions(n - 1, d - first):
            yield (first,) + rest


def eq_sweep(seed: int) -> dict:
    """Every coefficient word up to the degree bound, decided against its
    class representative (the least word of its class in enumeration order).
    The seed sets the order of the classes.  A class's words are decided one
    after another, so the same call of each class pays for enumerating the
    representative at every seed."""
    sets, blocks = [], []
    for kind, level, deg in EQ_SWEEP_SETS:
        pres = _presented(f"{kind}:{level}")
        classes: dict = {}
        for t in _compositions(len(pres.gens), deg):
            text = pres.text(dict(zip(pres.gens, t)))
            classes.setdefault(wild.parse_elem(text), []).append(text)
        blocks += [[[len(sets), w, words[0]] for w in words[1:]] for words in classes.values()]
        sets.append({"kind": kind, "level": level})
    random.Random(seed).shuffle(blocks)
    requests = [r for block in blocks for r in block]
    return {"sets": sets, "requests": requests, "refs": [H] * len(requests)}


def _cli_request(rng: random.Random, pres: dict, kind: str, target: str, op: str, k: int):
    """The k-th CLI request of a cell, and its reference.  Even k gives a
    pair equal (or ordered) by construction, odd k a random pair; k also
    cycles the word degrees."""
    p = pres[target]
    built = k % 2 == 0
    if op == "refine":
        # c + d splits the word a + b itself into two nonzero parts, so that
        # no request hits a known defect (KNOWN_DEFECTS in run.py): the
        # precondition a + b = c + d is never Unknown, and no term is `0`.
        a, b = p.random_word(rng, 1 + k // 2 % 2), p.random_word(rng, 1, 2)
        units = [g for g, n in _plus(a, b).items() for _ in range(n)]
        c: dict = {}
        for g in rng.sample(units, rng.randint(1, len(units) - 1)):
            c[g] = c.get(g, 0) + 1
        d = {g: n - c.get(g, 0) for g, n in _plus(a, b).items()}
        words = [p.text(t) for t in (a, b, c, d)]
        # the ladder and bar monoids have refinement; truncations may not
        ref = H if kind == "wild" else None
    else:
        u = p.random_word(rng, 1 + k // 2 % 4)
        if not built:
            v = p.random_word(rng, 1 + k // 8 % 4)
        elif op == "eq":
            v = p.walk(rng, u, rng.randint(1, 3))
        elif target[0] == "e" and rng.random() < 0.5:
            # range(e) <= source(e) for a random graph arrow
            u, v = p.arrow(rng)
        else:
            v = p.walk(rng, _plus(u, p.random_word(rng, 1, 2)), rng.randint(1, 3))
        words = [p.text(u), p.text(v)]
        ref = reference(target, op, u, v, truncated=kind != "wild")
        if built and ref != H:
            raise AssertionError(f"reference disagrees with construction: {op} {target} {words}")
    argv = ["wild", op, *words] if kind == "wild" else [op, target, *words]
    return argv, ref


class _GraphPresented(Presented):
    def __init__(self, target: str):
        name, _, arg = target.partition(":")
        sg = graphs.builtin_graph(name, int(arg or 1))
        super().__init__(graphs.present_finitely_separated(sg).format())
        self.arrows = [(r, s) for _, s, r in sg.graph.arrows]

    def arrow(self, rng: random.Random) -> tuple[dict, dict]:
        r, s = rng.choice(self.arrows)
        return {r: 1}, {s: 1}


def cli_mixed(seed: int) -> dict:
    """A stream of CLI requests over every builtin target, with the standard
    suite's cases at seeded positions; each request runs with a fresh cache.
    Each (command, target) cell gets a fixed number of requests, half built
    and half random, with word degrees cycling through 1..4, so that seeds
    change the words but not the mix."""
    rng = random.Random(seed)
    pres = {t: _GraphPresented(t) if t[0] == "e" else _presented(t) for t in CLI_TARGETS}
    cells = [(op, op, t, n) for op, n in CLI_CELLS.items() for t in CLI_TARGETS]
    cells += [("wild", op, t, CLI_WILD_CELL) for op in ("eq", "leq", "refine") for t in CLI_TARGETS[1:7]]
    reqs = [_cli_request(rng, pres, kind, target, op, k) for kind, op, target, n in cells for k in range(n)]
    rng.shuffle(reqs)
    codes = {0: H, 1: F}
    for case in suite.standard_suite().cases:
        reqs.insert(rng.randrange(len(reqs) + 1), (list(case.command), codes[case.expect]))
    return {"requests": [r[0] for r in reqs], "refs": [r[1] for r in reqs]}


def lab_sheet(seed: int) -> dict:
    """All eleven property checks, irreducibles and the wildness certificate
    on five oracles, but for the two in LAB_LEFT_OUT.  The seed sets the order of the oracles; each oracle's
    checks run together in a fixed order, so the check that fills the m0
    oracle's shared cache is the same at every seed."""
    names = list(LAB_ORACLES)
    random.Random(seed).shuffle(names)
    pairs = [(o, op) for o in names for op in LAB_OPS if (o, op) not in LAB_LEFT_OUT]
    return {
        "oracles": {
            name: {**spec, "max_degree": deg, "max_coefficient": coeff}
            for name, (spec, deg, coeff) in LAB_ORACLES.items()
        },
        "samples": LAB_SAMPLES,
        "requests": [list(p) for p in pairs],
        "refs": [LAB_TRUTH[o].get(op) for o, op in pairs],
    }


GENERATORS = {"eq-sweep": eq_sweep, "cli-mixed": cli_mixed, "lab-sheet": lab_sheet}
