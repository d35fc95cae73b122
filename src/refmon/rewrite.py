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
vectors meets them, and the results are that search's.  A word tries only
the moves its nonzero digits allow (see _packing).  A result keeps its codes
and decodes a word when a caller first reads it: decide_equal decodes only
the path it returns.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

from .decisions import Decision, SearchBound
from .presentation import Presentation
from .words import Word


class ClassResult:
    """One class search.  codes: packed code -> its parent's code, None at
    the root, in search order (a root above the degree bound is its own
    code); exhausted: bool; root: the Word searched from; decoded: code ->
    Word, each decoded on first use.  words (frozenset[Word]) and parents
    (word -> previous word or None) are read through decoded."""

    __slots__ = ("codes", "exhausted", "root", "decoded")

    def __init__(self, codes: dict, exhausted: bool, root: Word, decoded: dict):
        self.codes, self.exhausted, self.root, self.decoded = codes, exhausted, root, decoded

    @property
    def words(self) -> frozenset[Word]:
        return frozenset(map(self.decoded.__getitem__, self.codes))

    @property
    def parents(self) -> dict[Word, Word | None]:
        w = self.decoded
        return {w[c]: None if par is None else w[par] for c, par in self.codes.items()}


class _Memo(dict):
    """key -> fn(key, *args), made on first use and kept."""

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def __missing__(self, key):
        value = self[key] = self.fn(key, *self.args)
        return value


# 8 bounds a move table to 256 entries and skips 64% of the moves tried on
# the benchmark's workloads (every generator: 76-78%, 5x the entries; 4: 43-45%).
_TRACKED = 8


@lru_cache(maxsize=64)
def _packing(p: Presentation, max_degree: int) -> tuple:
    """(digit width, guard, fill, need, moves, pairs) of p, kept for the 64
    latest equal (p, max_degree).  Each relation direction src -> dst, lhs
    -> rhs first, is a move (guard - src, dst - src, degree delta); one
    whose src has degree above max_degree never applies, and is left out so
    that no src digit reaches the guard bit.  A word's support, (code +
    fill) & need with fill one below the guard bit in every digit, keeps
    the guard bits of its nonzero digits among the _TRACKED generators that
    sources use most; moves maps it to the moves whose source it covers
    there, in relation order, so it holds at most 2^_TRACKED entries.
    pairs[i] maps an exponent e to (i, e), one pair shared by every word
    decoded."""
    width = max_degree.bit_length() + 1

    def digits(indices, e: int) -> int:
        return _encode(Word(tuple((i, e) for i in indices)), width)

    top, every = 2 ** (width - 1), range(len(p.gens))
    guard, moves, uses = digits(every, top), [], Counter()
    for rel in p.relations:
        for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if src.degree() <= max_degree:
                s = _encode(src, width)
                moves.append((src, (guard - s, _encode(dst, width) - s, dst.degree() - src.degree())))
                uses.update(i for i, _ in src.exps)
    need = digits(sorted(uses, key=uses.get, reverse=True)[:_TRACKED], top)
    moves = [(digits((i for i, _ in src.exps), top) & need, move) for src, move in moves]
    table = _Memo(lambda support: tuple(move for src, move in moves if src & support == src))
    return width, guard, guard - digits(every, 1), need, table, [_Memo(lambda e, i: (i, e), i) for i in every]


def _encode(w: Word, width: int) -> int:
    return sum(e << width * i for i, e in w.exps)


def _code(w: Word, width: int, max_degree: int) -> int | Word:
    """w's packed code, or w itself above the degree bound."""
    return w if w.degree() > max_degree else _encode(w, width)


def _decode(code: int, width: int, pairs: list[_Memo]) -> Word:
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
    addition and one mask, over the moves its support allows (see the module
    docstring).  Only a round that overflows the cap decodes, to sort.
    """
    if w.degree() > b.max_degree:
        return ClassResult({w: None}, False, w, {w: w})
    max_degree, cap = b.max_degree, b.max_class_size
    width, guard, fill, need, table, pairs = _packing(p, max_degree)
    start = _encode(w, width)
    seen: dict = {start: None}
    frontier = [(start, w.degree())]
    exhausted = True
    while frontier:
        nxt = []
        for cur, deg in frontier:
            for test, delta, ddeg in table[(cur + fill) & need]:
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
                for test, delta, ddeg in table[(cur + fill) & need]:
                    if len(seen) >= cap:
                        break
                    if deg + ddeg <= max_degree and (cur + test) & guard == guard:
                        seen.setdefault(cur + delta, cur)
            break
        frontier = nxt
    return ClassResult(seen, exhausted, w, _Memo(_decode, width, pairs))


class ClassCache:
    """Memoizes enumerate_class per (presentation, bound), on codes.

    `codes` maps each asked word to its code (the word itself above the
    degree bound), encoded once.  A result is stored under each word asked
    for it, and under codes: a result with fewer than max_class_size codes
    is a whole component (see the module docstring), so it is stored under
    every one of its codes and the component is enumerated once; a result
    the size cap cut short depends on where the search started, so it is
    stored under its root's code alone.  `ordered` gives a class's words in
    Word.sort_key order, decoded and sorted once; `no_rep` gives decide_leq's
    "no dominating representative" Fails of an exhausted class, built once.
    """

    def __init__(self, p: Presentation, b: SearchBound):
        self.p = p
        self.b = b
        self.codes = _Memo(_code, _packing(p, b.max_degree)[0], b.max_degree)
        self._results: dict = {}
        self._order = _Memo(lambda res: sorted(map(res.decoded.__getitem__, res.codes), key=Word.sort_key))
        self.no_rep = _Memo(lambda res: Decision.fails(
            counterexample={"class_v_size": len(res.codes)}, note="no dominating representative"))

    def get(self, w: Word) -> ClassResult:
        res = self._results.get(w)
        if res is None:
            code = self.codes[w]
            res = self._results.get(code)
            if res is None:
                res = enumerate_class(self.p, w, self.b)
                if len(res.codes) < self.b.max_class_size:
                    self._results.update(dict.fromkeys(res.codes, res))
                else:
                    self._results[code] = res
            self._results[w] = res
        return res

    def ordered(self, res: ClassResult) -> list[Word]:
        """res's words in Word.sort_key order, decoded and sorted on first
        use; the caller must not change the list."""
        return self._order[res]


def _path_to(res: ClassResult, target) -> list:
    """The codes from res's root to the code target."""
    path = [target]
    while res.codes[path[-1]] is not None:
        path.append(res.codes[path[-1]])
    path.reverse()
    return path


def _path(res: ClassResult, x, y) -> list:
    """The codes of a rewrite path x -> ... -> y inside one result: up the
    search tree from x to the last code shared with the root's path to y,
    then down to y."""
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
    cu, y = cache.get(u), cache.codes[v]
    if y in cu.codes:
        x = cache.codes[u]
        cu.decoded[x], cu.decoded[y] = u, v  # the ends need no decoding
        return Decision.holds(witness=list(map(cu.decoded.__getitem__, _path(cu, x, y))), note="rewrite path")
    cv = cache.get(v)
    if not cu.codes.keys().isdisjoint(cv.codes):
        x = cache.codes[u]
        m = min(cu.codes.keys() & cv.codes.keys(), key=lambda c: cu.decoded[c].sort_key())
        path = _path(cu, x, m) + _path(cv, m, y)[1:]
        return Decision.holds(witness=list(map(cu.decoded.__getitem__, path)), note="rewrite path via common word")
    if cu.exhausted and cv.exhausted:
        return Decision.fails(
            counterexample={"class_u_size": len(cu.codes), "class_v_size": len(cv.codes)},
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
        return cache.no_rep[cv]
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
            "class_a_size": len(ca.codes),
            "class_b_size": len(cb.codes),
            "class_c_size": len(cc.codes),
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
