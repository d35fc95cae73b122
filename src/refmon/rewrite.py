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

During the search a word is one int: generator i's exponent is the digit
at bit width * i, and width is the least that puts max_degree below a
digit's top bit, its guard bit.  With guard the guard bits alone, a move's
source src embeds into cur iff (cur + guard - src) & guard == guard, as each
digit cur_i + 2^(width - 1) - src_i keeps its guard bit iff cur_i >= src_i
and carries into no other.  The move adds dst - src.  Moves are tried in
relation order, so the words are met in the order a search over exponent
vectors meets them, and the results are that search's.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .decisions import Decision, SearchBound
from .presentation import Presentation
from .words import Word


class ClassResult(namedtuple("ClassResult", "words exhausted parents root", defaults=(None, None))):
    """words: frozenset[Word]; exhausted: bool; parents: parent pointers for
    path extraction, word -> previous word or None for the root; root: Word."""

    __slots__ = ()


class _Pairs(dict):
    """Exponent -> the pair (index, exponent) of one generator, made once and
    shared by every word decoded with it."""

    def __init__(self, index: int):
        self.index = index

    def __missing__(self, e: int) -> tuple[int, int]:
        pair = self[e] = (self.index, e)
        return pair


@lru_cache(maxsize=64)
def _packing(p: Presentation, max_degree: int) -> tuple[int, int, tuple, list[_Pairs]]:
    """(digit width, guard, moves, pairs) of p, kept for the 64 latest equal
    (p, max_degree).  Each relation direction src -> dst, lhs -> rhs first,
    is a move (guard - src, dst - src, degree delta); one whose src has
    degree above max_degree never applies, and is left out so that no src
    digit reaches the guard bit."""
    width = max_degree.bit_length() + 1
    guard = _encode(Word(tuple((i, 2 ** (width - 1)) for i in range(len(p.gens)))), width)
    moves = []
    for rel in p.relations:
        for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if src.degree() <= max_degree:
                s = _encode(src, width)
                moves.append((guard - s, _encode(dst, width) - s, dst.degree() - src.degree()))
    return width, guard, tuple(moves), [_Pairs(i) for i in range(len(p.gens))]


def _encode(w: Word, width: int) -> int:
    return sum(e << width * i for i, e in w.exps)


def _decode(code: int, width: int, pairs: list[_Pairs]) -> Word:
    mask, exps = (1 << width) - 1, []
    for row in pairs:
        if not code:
            break
        if code & mask:
            exps.append(row[code & mask])
        code >>= width
    return Word(tuple(exps))


def enumerate_class(p: Presentation, w: Word, b: SearchBound) -> ClassResult:
    """Breadth-first closure of {w} under the relations, capped by b.

    exhausted is True iff no word was discarded for degree and the frontier
    was never truncated by max_class_size; in that case the returned set is
    the entire congruence class of w.  If fewer than max_class_size words come
    back, the size cap never fired and the set is the whole component of w
    (see the module docstring): enumerating from any member gives the same
    words and the same exhausted flag.  When the cap fires, the kept words are
    those found first with each round's frontier in Word.sort_key order.

    During the search a word is its packed code, and trying a move is one
    addition and one mask (see the module docstring); each word becomes a
    Word once, at the end.
    """
    if w.degree() > b.max_degree:
        return ClassResult(frozenset([w]), exhausted=False, parents={w: None}, root=w)
    max_degree, cap = b.max_degree, b.max_class_size
    width, guard, moves, pairs = _packing(p, max_degree)
    start = _encode(w, width)
    seen: dict = {start: None}
    frontier = [(start, w.degree())]
    exhausted = True
    while frontier:
        nxt = []
        for cur, deg in frontier:
            for test, delta, ddeg in moves:
                if (cur + test) & guard == guard:
                    if deg + ddeg > max_degree:
                        exhausted = False
                        continue
                    new = cur + delta
                    if new not in seen:
                        seen[new] = cur
                        nxt.append((new, deg + ddeg))
        if len(seen) > cap:
            # This round overflowed the cap: redo it, keeping the first words
            # found with the frontier in Word.sort_key order, and stop.
            exhausted = False
            for new, _ in nxt:
                del seen[new]
            for cur, deg in sorted(frontier, key=lambda f: _decode(f[0], width, pairs).sort_key()):
                for test, delta, ddeg in moves:
                    if len(seen) >= cap:
                        break
                    if deg + ddeg <= max_degree and (cur + test) & guard == guard:
                        seen.setdefault(cur + delta, cur)
            break
        frontier = nxt
    words = {c: _decode(c, width, pairs) for c in seen}
    parents = {words[c]: None if par is None else words[par] for c, par in seen.items()}
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
    was rejected definitively; it carries the size of the exhausted search,
    the classes of a, bw and c and the number of candidates tried.  A
    precondition a + bw = c + d that fails raises ValueError; one that is
    Unknown at the bound gives Unknown.

    Raw-equal words are equal with no search, as decide_equal answers them
    first, so the precondition and each candidate's z12 + z22 = d go to
    decide_equal only when the words differ.
    """
    cache = cache or ClassCache(p, b)
    lhs, rhs = a.add(bw), c.add(d)
    if lhs != rhs:
        pre = decide_equal(p, lhs, rhs, b, certs, cache)
        if pre.is_fails:
            raise ValueError("precondition a + b = c + d does not hold")
        if pre.is_unknown:
            return Decision.unknown(b, note="precondition a + b = c + d is unknown at this bound")
    ca, cb, cc = cache.get(a), cache.get(bw), cache.get(c)
    all_definite = ca.exhausted and cb.exhausted and cc.exhausted
    reps_a, reps_b, reps_c = (cache.ordered(r) for r in (ca, cb, cc))
    tried = 0
    for ra in reps_a:
        for rc in reps_c:
            for z11 in ra.meet(rc).subwords():
                z12 = ra.sub(z11)
                z21 = rc.sub(z11)
                for rb in reps_b:
                    if not rb.contains(z21):
                        continue
                    tried += 1
                    z22 = rb.sub(z21)
                    total = z12.add(z22)
                    if total != d:
                        chk = decide_equal(p, total, d, b, certs, cache)
                        if chk.is_unknown:
                            all_definite = False
                        if not chk.is_holds:
                            continue
                    matrix = ((z11, z12), (z21, z22))
                    if verify_refinement(p, matrix, a, bw, c, d, b, certs, cache).is_holds:
                        return Decision.holds(witness=matrix, note="verified refinement")
                    all_definite = False
    if all_definite:
        searched = {
            "class_a_size": len(ca.words),
            "class_b_size": len(cb.words),
            "class_c_size": len(cc.words),
            "candidates": tried,
        }
        return Decision.fails(counterexample=searched, note="search space exhausted, no refinement")
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
    """Re-verify the four row/column equalities of a refinement matrix; a
    raw-equal one holds with no search, as in decide_equal."""
    cache = cache or ClassCache(p, b)
    (z11, z12), (z21, z22) = matrix
    checks = [
        (z11.add(z12), a),
        (z21.add(z22), bw),
        (z11.add(z21), c),
        (z12.add(z22), d),
    ]
    for got, want in checks:
        if got == want:
            continue
        dec = decide_equal(p, got, want, b, certs, cache)
        if not dec.is_holds:
            return dec
    return Decision.holds(witness=matrix)
