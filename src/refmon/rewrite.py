"""Bounded word-problem engine for finitely presented commutative monoids.

The congruence generated by the relations is explored breadth-first: a
relation side that embeds componentwise into a word may be replaced by the
other side, in either direction.  Classes are typically infinite, so every
answer is a three-valued Decision; `exhausted=True` means the returned set is
the entire congruence class.

Degree caps apply to intermediate words too: an equality whose shortest proof
passes through a high-degree word may come back Unknown.  That is documented
behaviour, not a bug.

What a search bound b explores from w is the connected component of w in the
graph whose nodes are the words of degree <= b.max_degree and whose edges are
single relation moves; `exhausted` says that no move leaves that graph.  Both
are the same from every member of the component, so ClassCache shares one
result among all of them, unless the class-size cap cut the search short.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import add
from typing import Sequence

from .decisions import Decision, SearchBound
from .presentation import Presentation
from .words import Word


class ClassResult(namedtuple("ClassResult", "words exhausted parents root", defaults=(None, None))):
    """words: frozenset[Word]; exhausted: bool; parents: parent pointers for
    path extraction, word -> previous word or None for the root; root: Word."""

    __slots__ = ()


def _moves(p: Presentation) -> list[tuple]:
    """Each relation direction src -> dst as (support pairs of src, dense
    exponent delta, degree delta), in relation order, lhs -> rhs first."""
    moves = []
    for rel in p.relations:
        delta = [0] * len(p.gens)
        for i, e in rel.lhs.exps:
            delta[i] -= e
        for i, e in rel.rhs.exps:
            delta[i] += e
        moves.append((rel.lhs.exps, tuple(delta), sum(delta)))
        moves.append((rel.rhs.exps, tuple(-d for d in delta), -sum(delta)))
    return moves


def _word(t: bytes | tuple[int, ...]) -> Word:
    return Word(tuple(compress(enumerate(t), t)))


def enumerate_class(p: Presentation, w: Word, b: SearchBound) -> ClassResult:
    """Breadth-first closure of {w} under the relations, capped by b.

    exhausted is True iff no word was discarded for degree and the frontier
    was never truncated by max_class_size; in that case the returned set is
    the entire congruence class of w.  If fewer than max_class_size words come
    back, the size cap never fired and the set is the whole component of w
    (see the module docstring): enumerating from any member gives the same
    words and the same exhausted flag.  When the cap fires, the kept words are
    those found first with each round's frontier in Word.sort_key order.

    During the search a word is its dense exponent vector, as bytes (a tuple
    if max_degree > 255); it becomes a Word once, at the end.
    """
    if w.degree() > b.max_degree:
        return ClassResult(frozenset([w]), exhausted=False, parents={w: None}, root=w)
    moves = _moves(p)
    # bytes hold exponents up to 255 in far less memory than a tuple, and no
    # free list keeps them alive after the search
    pack = bytes if b.max_degree < 256 else tuple
    start = [0] * len(p.gens)
    for i, e in w.exps:
        start[i] = e
    start = pack(start)
    seen: dict = {start: None}
    frontier = [(start, w.degree())]
    exhausted = True
    max_degree, cap = b.max_degree, b.max_class_size
    while frontier:
        nxt = []
        for cur, deg in frontier:
            for src, delta, ddeg in moves:
                for i, e in src:
                    if cur[i] < e:
                        break
                else:
                    if deg + ddeg > max_degree:
                        exhausted = False
                        continue
                    new = pack(map(add, cur, delta))
                    if new not in seen:
                        seen[new] = cur
                        nxt.append((new, deg + ddeg))
        if len(seen) > cap:
            # This round overflowed the cap: redo it, keeping the first words
            # found with the frontier in Word.sort_key order, and stop.
            exhausted = False
            for new, _ in nxt:
                del seen[new]
            for cur, deg in sorted(frontier, key=lambda f: _word(f[0]).sort_key()):
                for src, delta, ddeg in moves:
                    if len(seen) >= cap:
                        break
                    if deg + ddeg <= max_degree and all(cur[i] >= e for i, e in src):
                        seen.setdefault(pack(map(add, cur, delta)), cur)
            break
        frontier = nxt
    words = {t: _word(t) for t in seen}
    parents = {words[t]: None if par is None else words[par] for t, par in seen.items()}
    return ClassResult(frozenset(parents), exhausted, parents=parents, root=w)


class ClassCache:
    """Memoizes enumerate_class per (presentation, bound).

    A result with fewer than max_class_size words is a whole component (see
    the module docstring), so it is stored under every one of its words and
    the component is enumerated once.  A result the size cap cut short
    depends on where the search started, so it is stored under its root only.
    `ordered` gives a class's words in Word.sort_key order, sorted once.
    """

    def __init__(self, p: Presentation, b: SearchBound):
        self.p = p
        self.b = b
        self._cache: dict[Word, ClassResult] = {}
        self._order: dict[frozenset, list[Word]] = {}

    def get(self, w: Word) -> ClassResult:
        res = self._cache.get(w)
        if res is None:
            res = enumerate_class(self.p, w, self.b)
            if len(res.words) < self.b.max_class_size:
                self._cache.update(dict.fromkeys(res.words, res))
            else:
                self._cache[w] = res
        return res

    def ordered(self, res: ClassResult) -> list[Word]:
        """res.words in Word.sort_key order, sorted on first use; the caller
        must not change the list."""
        order = self._order.get(res.words)
        if order is None:
            order = self._order[res.words] = sorted(res.words, key=Word.sort_key)
        return order


def _path_to(res: ClassResult, target: Word) -> list[Word]:
    path = [target]
    while res.parents[path[-1]] is not None:
        path.append(res.parents[path[-1]])
    path.reverse()
    return path


def _path(res: ClassResult, x: Word, y: Word) -> list[Word]:
    """Rewrite path x -> ... -> y inside one result: up the search tree from x
    to the last word shared with the root's path to y, then down to y."""
    px, py = _path_to(res, x), _path_to(res, y)
    k = 1
    while k < min(len(px), len(py)) and px[k] == py[k]:
        k += 1
    return px[k - 1:][::-1] + py[k:]


def decide_equal(
    p: Presentation,
    u: Word,
    v: Word,
    b: SearchBound,
    certs: Sequence = (),
    cache: ClassCache | None = None,
) -> Decision:
    """Bounded equality in the presented monoid.

    Holds carries a rewrite path u -> ... -> v.  Fails carries either a
    separating certificate homomorphism or the two exhausted, disjoint classes.
    A certificate over another presentation raises ValueError: a map that
    respects other relations separates nothing here.
    """
    if u == v:
        return Decision.holds(witness=[u], note="raw-equal")
    for h in certs:
        if h.presentation is not p and h.presentation != p:
            raise ValueError("certificate over wrong presentation")
        iu, iv = h.apply(u), h.apply(v)
        if iu != iv:
            return Decision.fails(
                counterexample={"certificate": h.name, "image_u": iu, "image_v": iv},
                note="separated by certificate",
            )
    cache = cache or ClassCache(p, b)
    cu = cache.get(u)
    if v in cu.words:
        return Decision.holds(witness=_path(cu, u, v), note="rewrite path")
    cv = cache.get(v)
    meet = cu.words & cv.words
    if meet:
        m = min(meet, key=Word.sort_key)
        path = _path(cu, u, m) + _path(cv, m, v)[1:]
        return Decision.holds(witness=path, note="rewrite path via common word")
    if cu.exhausted and cv.exhausted:
        return Decision.fails(
            counterexample={"class_u_size": len(cu.words), "class_v_size": len(cv.words)},
            note="exhausted disjoint classes",
        )
    return Decision.unknown(b)


def decide_leq(
    p: Presentation,
    u: Word,
    v: Word,
    b: SearchBound,
    cache: ClassCache | None = None,
) -> Decision:
    """Algebraic order: u <= v iff u + z = v for some z.

    Holds carries the complement word z (w - u for a class representative w of
    v that dominates u componentwise).
    """
    cache = cache or ClassCache(p, b)
    cv = cache.get(v)
    for w in cache.ordered(cv):
        if w.contains(u):
            return Decision.holds(witness=w.sub(u), note="via representative")
    if cv.exhausted:
        return Decision.fails(counterexample={"class_v_size": len(cv.words)}, note="no dominating representative")
    return Decision.unknown(b)


def find_refinement(
    p: Presentation,
    a: Word,
    bw: Word,
    c: Word,
    d: Word,
    b: SearchBound,
    certs: Sequence = (),
    cache: ClassCache | None = None,
) -> Decision:
    """Search for a 2x2 refinement matrix for a + bw = c + d.

    Candidates: for class representatives ra of a and rc of c, split ra as
    z11 + z12 with z11 embedded in rc; z21 := rc - z11; then z22 ranges over
    rb - z21 for representatives rb of bw, and d = z12 + z22 is checked.
    The search is complete relative to the enumerated classes, so Fails is
    only returned when every involved class is exhausted and every candidate
    was rejected definitively.  A precondition a + bw = c + d that fails
    raises ValueError; one that is Unknown at the bound gives Unknown.
    """
    cache = cache or ClassCache(p, b)
    pre = decide_equal(p, a.add(bw), c.add(d), b, certs, cache)
    if pre.is_fails:
        raise ValueError("precondition a + b = c + d does not hold")
    if pre.is_unknown:
        return Decision.unknown(b, note="precondition a + b = c + d is unknown at this bound")
    ca, cb, cc = cache.get(a), cache.get(bw), cache.get(c)
    all_definite = ca.exhausted and cb.exhausted and cc.exhausted
    reps_a, reps_b, reps_c = (cache.ordered(r) for r in (ca, cb, cc))
    for ra in reps_a:
        for rc in reps_c:
            for z11 in ra.meet(rc).subwords():
                z12 = ra.sub(z11)
                z21 = rc.sub(z11)
                for rb in reps_b:
                    if not rb.contains(z21):
                        continue
                    z22 = rb.sub(z21)
                    chk = decide_equal(p, z12.add(z22), d, b, certs, cache)
                    if chk.is_holds:
                        matrix = ((z11, z12), (z21, z22))
                        ver = verify_refinement(p, matrix, a, bw, c, d, b, certs, cache)
                        if ver.is_holds:
                            return Decision.holds(witness=matrix, note="verified refinement")
                        all_definite = False
                    elif chk.is_unknown:
                        all_definite = False
    if all_definite:
        return Decision.fails(note="search space exhausted, no refinement")
    return Decision.unknown(b)


def verify_refinement(
    p: Presentation,
    matrix,
    a: Word,
    bw: Word,
    c: Word,
    d: Word,
    b: SearchBound,
    certs: Sequence = (),
    cache: ClassCache | None = None,
) -> Decision:
    """Re-verify the four row/column equalities of a refinement matrix."""
    cache = cache or ClassCache(p, b)
    (z11, z12), (z21, z22) = matrix
    checks = [
        (z11.add(z12), a),
        (z21.add(z22), bw),
        (z11.add(z21), c),
        (z12.add(z22), d),
    ]
    for got, want in checks:
        dec = decide_equal(p, got, want, b, certs, cache)
        if not dec.is_holds:
            return dec
    return Decision.holds(witness=matrix)
