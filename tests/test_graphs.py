"""Separated graphs, their monoid presentations, and the tilde construction."""
import random

import pytest

from refmon import graphs, wild
from refmon.cli import main
from refmon.decisions import SearchBound
from refmon.graphs import (
    DirectedGraph,
    SeparatedGraph,
    builtin_graph,
    format_graph,
    parse_graph,
    present_finitely_separated,
    present_triple,
    tilde_construction,
    unseparation,
)
from refmon.rewrite import ClassCache, decide_equal, decide_leq
from refmon.words import ParseError

B = SearchBound(max_degree=6)


# -- graph and separation validation


def test_graph_validation():
    with pytest.raises(ValueError, match="^duplicate vertex 'v'$"):
        DirectedGraph(("u", "v", "v"), ())
    with pytest.raises(ValueError, match="^duplicate arrow 'a'$"):
        DirectedGraph(("v",), (("a", "v", "v"), ("a", "v", "v")))
    with pytest.raises(ValueError, match="^arrow 'a' references unknown vertex 'w'$"):
        DirectedGraph(("v",), (("a", "v", "w"),))
    with pytest.raises(ValueError, match="^arrow 'a' references unknown vertex 'u'$"):
        DirectedGraph(("v",), (("a", "u", "v"),))


def test_separation_must_partition():
    g = DirectedGraph(("v", "w"), (("a", "v", "w"), ("b", "v", "w")))
    with pytest.raises(ValueError, match="not a partition"):
        SeparatedGraph(g, (("v", (("a",),)),))
    with pytest.raises(ValueError, match="two separation classes"):
        SeparatedGraph(g, (("v", (("a", "b"), ("a",))),))
    with pytest.raises(ValueError, match="not emitted"):
        SeparatedGraph(g, (("v", (("a", "b"),)), ("w", (("a",),))))
    with pytest.raises(ValueError, match="empty separation class"):
        SeparatedGraph(g, (("v", (("a", "b"), ())),))
    # the valid partition
    SeparatedGraph(g, (("v", (("a",), ("b",)),),))


def test_unseparation_single_class_per_vertex():
    g = DirectedGraph(("v", "w"), (("a", "v", "w"), ("b", "v", "w")))
    sg = unseparation(g)
    assert sg.classes_at("v") == (("a", "b"),)
    assert sg.classes_at("w") == ()


# -- presentations


def test_e0c0_presentation():
    p = present_finitely_separated(builtin_graph("e0c0"))
    assert p.gens.names == ("u", "x0", "y0", "z0")
    assert len(p.relations) == 2
    assert decide_equal(p, p.word("x0 + y0"), p.word("x0 + z0"), B).is_holds
    assert decide_equal(p, p.word("u"), p.word("x0 + y0"), B).is_holds
    assert decide_equal(p, p.word("y0"), p.word("z0"), B).is_fails


def test_unseparated_e0c0_collapses_y_and_z():
    sg = builtin_graph("e0c0")
    p = present_finitely_separated(unseparation(sg.graph))
    # u = 2 x0 + y0 + z0 is the only relation; y0 and z0 stay distinct here too
    assert len(p.relations) == 1
    assert decide_equal(p, p.word("u"), p.word("2*x0 + y0 + z0"), B).is_holds
    assert decide_equal(p, p.word("x0 + y0"), p.word("x0 + z0"), B).is_fails


def test_graph_monoid_is_conical():
    p = present_finitely_separated(builtin_graph("e0c0"))
    for g in p.gens.names:
        assert decide_equal(p, p.word(g), p.word("0"), B).is_fails


def test_triple_presentation_has_q_generators_and_relations():
    p = present_triple(builtin_graph("e0c0"))
    assert "q_e1" in p.gens.names and "q_e1_e2" in p.gens.names
    # q of a full class vanishes, so v = sum r(e) survives
    assert decide_equal(p, p.word("q_e1_e2"), p.word("0"), B).is_holds
    assert decide_equal(p, p.word("u"), p.word("x0 + y0"), B).is_holds
    # the partial q generators record the missing summand
    assert decide_equal(p, p.word("u"), p.word("q_e2 + y0"), B).is_holds
    assert decide_equal(p, p.word("q_e2"), p.word("x0"), B).is_holds


def test_triple_agrees_with_finitely_separated_on_vertices():
    """With S = all classes, the triple monoid restricted to vertex words
    agrees with the plain separated-graph monoid at small degree."""
    sg = builtin_graph("ec", 1)
    p1 = present_finitely_separated(sg)
    p2 = present_triple(sg)
    b = SearchBound(max_degree=4)
    c1, c2 = ClassCache(p1, b), ClassCache(p2, b)
    rng = random.Random(41)
    names = p1.gens.names
    for _ in range(60):
        w1 = " + ".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
        w2 = " + ".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
        d1 = decide_equal(p1, p1.word(w1), p1.word(w2), b, cache=c1)
        d2 = decide_equal(p2, p2.word(w1), p2.word(w2), b, cache=c2)
        if d1.is_unknown or d2.is_unknown:
            continue
        assert d1.is_holds == d2.is_holds, (w1, w2)


def test_z_cap_limits_subset_generators():
    g = DirectedGraph(
        ("v", "w"),
        tuple((f"a{i}", "v", "w") for i in range(4)),
    )
    sg = unseparation(g)
    p = present_triple(sg, z_cap=2)
    # pairs yes, triples no, but the full class of size 4 is kept
    assert "q_a0_a1" in p.gens.names
    assert all(len(nm.split("_")) != 4 for nm in p.gens.names if nm.startswith("q_"))
    assert "q_a0_a1_a2_a3" in p.gens.names
    with pytest.raises(ValueError):
        present_triple(sg, z_cap=0)


COLLIDING = """\
vertices v w x y
arrow a v -> w
arrow b v -> x
arrow a_b v -> y
separation v : {a b a_b}
"""


def test_triple_rejects_two_subsets_with_one_q_name(tmp_path, capsys):
    """{a_b} and {a, b} would both be q_a_b, one generator standing for two
    subsets; the presentation is refused rather than silently merged."""
    sg = parse_graph(COLLIDING).separated()
    with pytest.raises(ValueError, match=r"subsets \['a_b'\] and \['a', 'b'\] are both named 'q_a_b'"):
        present_triple(sg, z_cap=2)
    path = tmp_path / "collide.graph"
    path.write_text(COLLIDING)
    assert main(["graph-monoid", str(path), "--triple", "--zcap", "2"]) == 3
    assert "both named 'q_a_b'" in capsys.readouterr().err
    # without the colliding arrow the names are distinct and the build succeeds
    distinct = parse_graph(COLLIDING.replace("a_b", "c")).separated()
    assert {"q_a_b", "q_c"} <= set(present_triple(distinct, z_cap=2).gens.names)


SHADOWED = """\
vertices v w q_a
arrow a v -> w
arrow b v -> w
"""


def test_triple_rejects_a_subset_named_like_a_vertex():
    """The q name of {a} is the vertex q_a's: the error names both, rather
    than a duplicate generator."""
    sg = parse_graph(SHADOWED).separated()
    with pytest.raises(ValueError, match=r"^vertex 'q_a' and arrow subset \['a'\] are both named 'q_a'$"):
        present_triple(sg)
    renamed = parse_graph(SHADOWED.replace("q_a", "u")).separated()
    assert {"u", "q_a", "q_b", "q_a_b"} <= set(present_triple(renamed).gens.names)


# -- builtins vs the exact truncations


def test_ec_matches_ladder_truncation():
    """Eliminating u, the EC presentation proves the ladder truncation's
    relations and separates what the exact arithmetic separates."""
    n = 1
    p = present_finitely_separated(builtin_graph("ec", n))
    b = SearchBound(max_degree=8)
    cache = ClassCache(p, b)
    assert decide_equal(p, p.word("x0"), p.word("x1 + y1"), b, cache=cache).is_holds
    assert decide_equal(p, p.word("y0"), p.word("y1 + a1"), b, cache=cache).is_holds
    assert decide_equal(p, p.word("u"), p.word("x0 + y0"), b, cache=cache).is_holds
    E = wild.enumerate_ladder(n, 3)
    rng = random.Random(43)
    for _ in range(120):
        e1, e2 = rng.choice(E), rng.choice(E)
        w1 = wild.ladder_word(e1, n).format(wild.truncation_presentation(n, "ladder").gens)
        w2 = wild.ladder_word(e2, n).format(wild.truncation_presentation(n, "ladder").gens)
        dec = decide_equal(p, p.word(w1), p.word(w2), b, cache=cache)
        if dec.is_unknown:
            continue
        assert dec.is_holds == e1.equal(e2), (w1, w2)


def test_ebar_matches_bar_truncation():
    n = 1
    p = present_finitely_separated(builtin_graph("ebar", n))
    b = SearchBound(max_degree=8)
    cache = ClassCache(p, b)
    assert decide_equal(p, p.word("xbar0"), p.word("xbar1 + ybar0"), b, cache=cache).is_holds
    assert decide_equal(p, p.word("xbar0"), p.word("xbar1 + zbar0"), b, cache=cache).is_holds
    E = wild.enumerate_bar(n, 3)
    rng = random.Random(47)
    for _ in range(120):
        e1, e2 = rng.choice(E), rng.choice(E)
        w1 = wild.bar_word(e1, n).format(wild.truncation_presentation(n, "bar").gens)
        w2 = wild.bar_word(e2, n).format(wild.truncation_presentation(n, "bar").gens)
        dec = decide_equal(p, p.word(w1), p.word(w2), b, cache=cache)
        if dec.is_unknown:
            continue
        assert dec.is_holds == e1.equal(e2), (w1, w2)


def test_path_order_one_step():
    # a vertex dominates the ranges of any one separation class
    p = present_finitely_separated(builtin_graph("e0c0"))
    assert decide_leq(p, p.word("x0"), p.word("u"), B).is_holds
    assert decide_leq(p, p.word("z0"), p.word("u"), B).is_holds


def test_e0c0_is_the_top_of_ec():
    """e0c0 is ec at level 0: the same vertices, arrows and separation, in
    the same order, as the graph file E0C0 in tests/test_cli.py."""
    e0c0, ec = builtin_graph("e0c0"), builtin_graph("ec", 1)
    assert format_graph(graphs.GraphFile(e0c0.graph, e0c0.separation)) == (
        "graph E0C0\nvertices u x0 y0 z0\narrow e1 u -> x0\narrow e2 u -> y0\n"
        "arrow f1 u -> x0\narrow f2 u -> z0\nseparation u : {e1 e2} {f1 f2}\n"
    )
    assert ec.graph.arrows[:4] == e0c0.graph.arrows and ec.separation[0] == e0c0.separation[0]


def test_builtin_errors():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_graph("nope")
    with pytest.raises(ValueError):
        builtin_graph("ec", 0)


# -- tilde construction


def test_tilde_example():
    g = DirectedGraph(("v", "z"), (("e1", "v", "z"), ("e2", "v", "z"), ("e3", "v", "z")))
    t = tilde_construction(g, {"v": ["e1", "e2", "e3"]}, depth=2)
    assert set(t.vertices) == {"v", "z", "w_v_1", "w_v_2"}
    assert t.out_arrows("v") == ("e1", "v__w_v_1")
    assert set(t.out_arrows("w_v_1")) == {"w_v_1__w_v_2", "w_v_1__r1"}
    assert t.rng("w_v_1__r1") == "z"
    # the chain replaces the fan: every emitter and chain vertex emits <= 2 arrows
    assert all(len(t.out_arrows(v)) <= 2 for v in ("v", "w_v_1", "w_v_2"))
    # monoid relations of the unseparated tilde graph
    p = present_finitely_separated(unseparation(t))
    assert decide_equal(p, p.word("v"), p.word("z + w_v_1"), B).is_holds
    assert decide_equal(p, p.word("w_v_1"), p.word("z + w_v_2"), B).is_holds


def test_tilde_without_emitters_is_identity():
    g = builtin_graph("e0c0").graph
    t = tilde_construction(g, {}, depth=3)
    assert t.vertices == g.vertices
    assert t.arrows == g.arrows


def test_tilde_validates_enumeration():
    g = DirectedGraph(("v", "z"), (("e1", "v", "z"), ("e2", "v", "z")))
    with pytest.raises(ValueError, match="exactly its arrows"):
        tilde_construction(g, {"v": ["e1"]}, depth=2)
    with pytest.raises(ValueError, match="repeats"):
        tilde_construction(g, {"v": ["e1", "e1"]}, depth=2)
    with pytest.raises(ValueError, match="not a vertex"):
        tilde_construction(g, {"q": []}, depth=2)
    with pytest.raises(ValueError, match="depth"):
        tilde_construction(g, {"v": ["e1", "e2"]}, depth=0)


def test_tilde_refuses_a_chain_vertex_that_is_already_a_vertex():
    g = DirectedGraph(("v", "a", "b", "w_v_2"), (("e", "v", "a"), ("f", "v", "b")))
    with pytest.raises(ValueError, match="^chain vertex 'w_v_2' of emitter 'v' is already a vertex$"):
        tilde_construction(g, {"v": ["e", "f"]}, depth=2)
    assert "w_v_2" in tilde_construction(g, {"v": ["e", "f"]}, depth=1).vertices


@pytest.mark.parametrize(
    "taken, depth",
    [("v__w_v_1", 1), ("w_v_1__w_v_2", 2), ("w_v_1__r1", 2), ("w_v_2__w_v_3", 3)],
)
def test_tilde_refuses_a_chain_arrow_that_is_already_an_arrow(taken, depth):
    # each name the chain of emitter v makes: v -> w_v_1, w_v_n -> w_v_{n+1}
    # and w_v_n -> r(f), here held by an arrow a -> b that is not v's
    g = DirectedGraph(("v", "a", "b"), (("e", "v", "a"), ("f", "v", "b"), (taken, "a", "b")))
    with pytest.raises(ValueError, match=f"^chain arrow '{taken}' of emitter 'v' is already an arrow$"):
        tilde_construction(g, {"v": ["e", "f"]}, depth=depth)
    # a chain too short to make the name keeps the arrow
    if depth > 1:
        assert (taken, "a", "b") in tilde_construction(g, {"v": ["e", "f"]}, depth=depth - 1).arrows



# -- file format


SAMPLE = """\
# two-class separation at u
graph demo
vertices u x y z
arrow e1 u -> x
arrow e2 u -> y
arrow f1 u -> x
arrow f2 u -> z
separation u : {e1 e2} {f1 f2}
emitter u : e1 e2 f1 f2 depth 2
"""


def test_parse_graph_roundtrip():
    gf = parse_graph(SAMPLE)
    assert gf.graph.name == "demo"
    assert len(gf.graph.out_arrows("u")) == 4
    assert gf.separated().classes_at("u") == (("e1", "e2"), ("f1", "f2"))
    assert gf.emitters == (("u", ("e1", "e2", "f1", "f2")),)
    assert gf.depth == 2
    again = parse_graph(format_graph(gf))
    assert again == gf


def test_parse_graph_errors():
    with pytest.raises(ParseError, match="no vertices"):
        parse_graph("graph g\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("vertices v\narrow a v w\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_graph("vertices v\nfrobnicate\n")
    with pytest.raises(ParseError, match="unclosed"):
        parse_graph("vertices v\narrow a v -> v\nseparation v : {a\n")
    with pytest.raises(ParseError, match="depth"):
        parse_graph("vertices v\narrow a v -> v\nemitter v : a\n")
    with pytest.raises(ParseError, match="not a partition"):
        parse_graph("vertices v w\narrow a v -> w\narrow b v -> w\nseparation v : {a}\n")


def test_parse_graph_without_separation_uses_unseparation():
    gf = parse_graph("vertices v w\narrow a v -> w\narrow b v -> w\n")
    assert gf.separation is None
    assert gf.separated().classes_at("v") == (("a", "b"),)
