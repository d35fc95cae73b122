"""CLI surface: exit codes, output formats, file-based conversions, suite."""
import json

import pytest

from refmon import lab, primitive, suite
from refmon.cli import INPUT_ERROR, _bound, build_parser, main
from refmon.decisions import SearchBound

POSET_TEXT = "poset P\nprimes p q\nbelow p p\nbelow p q\n"

GRAPH_TEXT = """\
graph demo
vertices u x y z
arrow e1 u -> x
arrow e2 u -> y
arrow f1 u -> x
arrow f2 u -> z
separation u : {e1 e2} {f1 f2}
"""

TILDE_TEXT = """\
graph fan
vertices v z
arrow e1 v -> z
arrow e2 v -> z
arrow e3 v -> z
emitter v : e1 e2 e3 depth 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eq / leq / refine


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "m0", "x0 + y0", "x0 + z0")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "eq", "m0", "y0", "z0")
    assert code == 1 and "fails" in out
    code, _, _ = run(capsys, "eq", "m0", "x0 + y0", "2*x0 + y0", "--max-degree", "1")
    assert code == 2  # degree cap too small to settle anything


def test_eq_json_format(capsys):
    code, out, _ = run(capsys, "eq", "m0", "x0 + y0", "x0 + z0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"]["verdict"] == "holds"
    assert payload["monoid"] == "M0"
    assert payload["decision"]["witness"] == ["x0 + y0", "x0 + z0"]


@pytest.mark.parametrize(
    "argv, path, terms",
    [
        (("leq", "m0", "x0", "x0 + z0"), ("decision", "witness"), "y0"),
        (("refine", "m0", "x0", "y0", "y0", "x0"), ("decision", "witness"), [["0", "x0"], ["y0", "0"]]),
        (
            ("check", "m0", "--prop", "cancellative", "--max-degree", "3"),
            ("reports", 0, "decision", "counterexample"),
            ["z0", "y0", "x0"],
        ),
    ],
)
def test_json_format_prints_words_as_terms(capsys, argv, path, terms):
    _, out, _ = run(capsys, *argv, "--format", "json")
    got = json.loads(out)
    for step in path:
        got = got[step]
    assert got == terms


def test_leq_prints_complement(capsys):
    code, out, _ = run(capsys, "leq", "m0", "y0", "x0 + z0")
    assert code == 0
    assert "complement x0" in out


def test_refine_prints_matrix(capsys):
    code, out, _ = run(capsys, "refine", "ladder:1", "x0", "y0", "x0", "z0", "--max-degree", "8")
    assert code == 0
    assert "x1" in out and "a1" in out
    code, _, _ = run(capsys, "refine", "m0", "x0", "y0", "x0", "z0", "--max-degree", "4")
    assert code == 1


def test_refine_with_unknown_precondition_is_unknown(capsys):
    # eq on the same pair is Unknown at this bound, so refine must not error
    code, _, _ = run(capsys, "eq", "ladder:1", "x0", "x1 + y1", "--max-degree", "1")
    assert code == 2
    code, out, err = run(capsys, "refine", "ladder:1", "x0", "0", "x1", "y1", "--max-degree", "1")
    assert code == 2 and "unknown" in out and not err
    code, out, err = run(capsys, "refine", "ec:1", "u + y1", "u + x1", "x0 + y0 + z0 + x1 + 2*y1", "x1")
    assert code == 2 and "unknown" in out and not err


def test_check_and_refine_agree_on_m0_refinement(capsys):
    # x0 + y0 = x0 + z0 has no refinement in M0: the property check and the
    # direct refine command must both say so
    code, out, _ = run(capsys, "check", "m0", "--prop", "refinement", "--max-degree", "3")
    assert code == 1 and "refinement: fails" in out
    code, out, _ = run(capsys, "refine", "m0", "x0", "y0", "x0", "z0")
    assert code == 1 and out.rstrip().endswith(": fails")


@pytest.mark.parametrize("degree", [None, "2", "3", "4", "5", "6", "7"])
def test_m0_refinement_fails_on_its_generators_at_every_degree(capsys, degree):
    """m0 is not a refinement monoid, and the generator pass shows it by the
    mixing relation, at every bound: z0 + x0 = y0 + x0 has no refinement."""
    bound = () if degree is None else ("--max-degree", degree)
    code, out, _ = run(capsys, "check", "m0", "--prop", "refinement", *bound, "--format", "json")
    (report,) = json.loads(out)["reports"]
    assert code == 1 and report["decision"]["verdict"] == "fails"
    assert report["decision"]["counterexample"] == ["z0", "x0", "y0", "x0"]


def test_bad_words_are_reported(capsys):
    code, _, err = run(capsys, "eq", "m0", "x0 + nope", "x0")
    assert code == INPUT_ERROR
    assert err == "error: unknown generator 'nope'\n"
    code, _, err = run(capsys, "eq", "m0", "x0 +", "x0")
    assert code == INPUT_ERROR
    assert err == "error: empty summand in term\n"


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/monoid.txt")
    assert code == INPUT_ERROR
    assert "error:" in err


# -- parse


def test_parse_builtin(capsys):
    code, out, _ = run(capsys, "parse", "bar:1")
    assert code == 0
    assert "generators xbar0 ybar0 zbar0 xbar1" in out


# The graph builtins, literally: a rewrite of the builders that reorders
# generators or relations changes these.
GRAPH_PARSES = {
    "e0c0": """\
monoid E0C0
generators u x0 y0 z0
relation u = x0 + y0
relation u = x0 + z0
""",
    "ec:1": """\
monoid EC1
generators u x0 y0 z0 x1 y1 z1 a1
relation u = x0 + y0
relation u = x0 + z0
relation x0 = x1 + y1
relation x0 = x1 + z1
relation y0 = y1 + a1
relation z0 = z1 + a1
""",
    "ebar:1": """\
monoid EBAR1
generators u xbar0 ybar0 zbar0 xbar1
relation u = xbar0 + ybar0
relation u = xbar0 + zbar0
relation xbar0 = ybar0 + xbar1
relation xbar0 = zbar0 + xbar1
""",
}


@pytest.mark.parametrize("target", list(GRAPH_PARSES))
def test_parse_builtin_graph_monoid_literally(capsys, target):
    assert run(capsys, "parse", target) == (0, GRAPH_PARSES[target], "")


def test_parse_file(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("monoid T\ngenerators a b\nrelation a + b = b\n")
    code, out, _ = run(capsys, "parse", str(f))
    assert code == 0
    assert "monoid T" in out and "relation a + b = b" in out


# -- check


def test_check_single_property(capsys):
    code, out, _ = run(
        capsys, "check", "free:2", "--prop", "cancellative", "--max-degree", "3"
    )
    assert code == 0
    assert "cancellative: holds" in out


def test_check_fails_sets_exit(capsys):
    code, out, _ = run(
        capsys, "check", "ladder:2", "--prop", "cancellative", "--max-degree", "3"
    )
    assert code == 1
    assert "cancellative: fails" in out


def test_check_json_shows_the_unperforation_certificate(capsys):
    code, out, _ = run(capsys, "check", "ladder:2", "--prop", "unperforated", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["property"] == "unperforated"
    assert report["decision"]["verdict"] == "holds"
    assert report["decision"]["note"] == "homogeneous order certificate"


def test_check_json_reports_bound(capsys):
    code, out, _ = run(
        capsys, "check", "free:1", "--prop", "conical", "--max-degree", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"]["max_degree"] == 2
    assert payload["reports"][0]["property"] == "conical"


def test_check_json_reports_the_default_bound(capsys):
    code, out, _ = run(capsys, "check", "free:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["bound"] == SearchBound()._asdict()
    parser = build_parser()
    assert parser.parse_args(["check", "free:1"]).samples == lab.SAMPLES
    for argv in (["check", "free:1"], ["wildness", "m0"], ["eq", "m0", "x0", "y0"]):
        assert _bound(parser.parse_args(argv)) == SearchBound(), argv


@pytest.mark.parametrize("command", ["check", "wildness"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("ladder:-1", "truncation level must be >= 1"),
        ("ladder:0", "truncation level must be >= 1"),
        ("bar:-2", "truncation level must be >= 1"),
        ("free:-1", "rank must be >= 0"),
        ("free:x", "bad level 'x' in target 'free:x'"),
        ("bar:1.5", "bad level '1.5' in target 'bar:1.5'"),
        ("ec:y", "bad level 'y' in target 'ec:y'"),
    ],
)
def test_bad_oracle_target_rejected(capsys, command, spec, message):
    code, out, err = run(capsys, command, spec, "--max-degree", "2")
    assert code == INPUT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_unknown_property_rejected(capsys):
    code, _, err = run(capsys, "check", "free:1", "--prop", "frobnicate")
    assert code == INPUT_ERROR
    assert "unknown property id" in err


# -- wild calculator


def test_wild_ops(capsys):
    code, out, _ = run(capsys, "wild", "eq", "x0 + y0", "x0 + z0")
    assert code == 0 and "True" in out
    code, _, _ = run(capsys, "wild", "eq", "y0", "z0")
    assert code == 1
    code, out, _ = run(capsys, "wild", "leq", "3*a3", "u")
    assert code == 0 and "complement" in out
    code, _, _ = run(capsys, "wild", "leq", "4*a3", "u")
    assert code == 1
    code, out, _ = run(capsys, "wild", "add", "y0", "z0")
    assert code == 0
    code, out, _ = run(capsys, "wild", "q", "x1 + a2")
    assert code == 0 and "xbar1" in out


def test_wild_refine_json(capsys):
    code, out, _ = run(capsys, "wild", "refine", "x0", "y0", "x0", "z0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["x1", "z1"], ["y1", "a1"]]


def test_wild_arity_and_errors(capsys):
    for argv, message in (
        (("eq", "x0"), "wild eq needs 2 term(s)"),
        (("refine", "x0", "y0"), "wild refine needs 4 term(s)"),
        (("q", "xbar0"), "q maps ladder elements to bar elements"),
        (("refine", "x0", "x0", "y0", "y0"), "precondition a + b = c + d does not hold"),
    ):
        code, out, err = run(capsys, "wild", *argv)
        assert code == INPUT_ERROR
        assert out == ""
        assert err == f"error: {message}\n"


def test_wild_zero_term_takes_the_other_terms_family(capsys):
    code, out, _ = run(capsys, "wild", "refine", "xbar1", "zbar0", "xbar1 + zbar0", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["matrix"] == [["xbar1", "0"], ["zbar0", "0"]]
    code, out, _ = run(capsys, "wild", "add", "ybar0", "0")
    assert code == 0 and "= ybar0" in out
    code, out, _ = run(capsys, "wild", "leq", "0", "xbar2")
    assert code == 0 and "complement xbar2" in out
    code, out, _ = run(capsys, "wild", "eq", "0", "0")  # no family named: ladder
    assert code == 0


def test_wild_mixed_families_rejected(capsys):
    for argv in (("eq", "x0", "xbar0"), ("add", "ybar0", "y0"), ("refine", "x0", "0", "xbar0", "0")):
        code, _, err = run(capsys, "wild", *argv)
        assert code == INPUT_ERROR
        assert err.strip() == "error: cannot mix ladder and bar terms"


# -- graph and poset conversions


def test_graph_monoid_from_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(GRAPH_TEXT)
    code, out, _ = run(capsys, "graph-monoid", str(f))
    assert code == 0
    assert "relation u = x + y" in out
    assert "relation u = x + z" in out


def test_graph_monoid_triple(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(GRAPH_TEXT)
    code, out, _ = run(capsys, "graph-monoid", str(f), "--triple", "--zcap", "2")
    assert code == 0
    assert "q_e1_e2" in out
    assert "relation q_e1_e2 = 0" in out


def test_graph_monoid_triple_names_a_vertex_clash(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("vertices v w q_a\narrow a v -> w\narrow b v -> w\n")
    code, out, err = run(capsys, "graph-monoid", str(f), "--triple")
    assert (code, out) == (INPUT_ERROR, "")
    assert err == "error: vertex 'q_a' and arrow subset ['a'] are both named 'q_a'\n"


E0C0_GRAPH = """\
graph E0C0
vertices u x0 y0 z0
arrow e1 u -> x0
arrow e2 u -> y0
arrow f1 u -> x0
arrow f2 u -> z0
separation u : {e1 e2} {f1 f2}
"""


def test_graph_monoid_triple_of_e0c0_literally(tmp_path, capsys):
    """Every q_Z with |Z| <= zcap, plus each whole class, which is in S and
    so vanishes, even above the cap."""
    f = tmp_path / "e0c0.txt"
    f.write_text(E0C0_GRAPH)
    assert run(capsys, "graph-monoid", str(f), "--triple", "--zcap", "1") == (
        0,
        """\
monoid E0C0_triple
generators u x0 y0 z0 q_e1 q_e2 q_e1_e2 q_f1 q_f2 q_f1_f2
relation u = x0 + q_e1
relation u = y0 + q_e2
relation u = x0 + y0 + q_e1_e2
relation q_e1 = y0 + q_e1_e2
relation q_e2 = x0 + q_e1_e2
relation q_e1_e2 = 0
relation u = x0 + q_f1
relation u = z0 + q_f2
relation u = x0 + z0 + q_f1_f2
relation q_f1 = z0 + q_f1_f2
relation q_f2 = x0 + q_f1_f2
relation q_f1_f2 = 0
""",
        "",
    )


def test_tilde_roundtrip(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(TILDE_TEXT)
    code, out, _ = run(capsys, "tilde", str(f))
    assert code == 0
    assert "w_v_1" in out and "w_v_2" in out
    g2 = tmp_path / "tilde.txt"
    g2.write_text(out)
    code, out2, _ = run(capsys, "graph-monoid", str(g2))
    assert code == 0
    assert "relation v = z + w_v_1" in out2


def test_tilde_requires_emitters(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(GRAPH_TEXT)
    for argv in (("tilde", str(f)), ("graph-monoid", str(f), "--tilde")):
        code, out, err = run(capsys, *argv)
        assert code == INPUT_ERROR
        assert out == ""
        assert err == "error: graph file has no emitter lines\n"


def test_tilde_names_a_chain_vertex_clash(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("vertices v a b w_v_1\narrow e v -> a\narrow f v -> b\nemitter v : e f depth 2\n")
    for argv in (("tilde", str(f)), ("graph-monoid", str(f), "--tilde")):
        assert run(capsys, *argv) == (INPUT_ERROR, "", "error: chain vertex 'w_v_1' of emitter 'v' is already a vertex\n")


def test_tilde_names_a_chain_arrow_clash(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("vertices v a b\narrow e v -> a\narrow f v -> b\narrow v__w_v_1 a -> b\nemitter v : e f depth 2\n")
    for argv in (("tilde", str(f)), ("graph-monoid", str(f), "--tilde")):
        assert run(capsys, *argv) == (INPUT_ERROR, "", "error: chain arrow 'v__w_v_1' of emitter 'v' is already an arrow\n")


def test_graph_file_errors_name_the_vertex(tmp_path, capsys):
    f = tmp_path / "g.txt"
    for text, message in (
        ("vertices v a v\n", "duplicate vertex 'v'"),
        ("vertices v a\narrow e v -> b\n", "arrow 'e' references unknown vertex 'b'"),
    ):
        f.write_text(text)
        assert run(capsys, "graph-monoid", str(f)) == (INPUT_ERROR, "", f"error: {message}\n")


def test_poset_conversion(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(POSET_TEXT)
    code, out, _ = run(capsys, "poset", str(f))
    assert code == 0
    assert "relation 2*p = p" in out
    assert "relation p + q = q" in out


def test_poset_parse_error(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("primes p q\nbelow p q\nbelow q p\n")
    code, _, err = run(capsys, "poset", str(f))
    assert code == INPUT_ERROR
    assert "antisymmetry" in err


CHAIN_TEXT = "poset chain\nprimes p q\nbelow p q\n"


def test_check_reads_a_poset_file(tmp_path, capsys):
    """The lab's commands read a poset file as its primitive oracle: on the
    chain p < q, p + q = q refutes cancellation."""
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_TEXT)
    code, out, _ = run(capsys, "check", str(f), "--prop", "separative,cancellative", "--format", "json")
    assert code == 1
    reports = {r["property"]: r["decision"] for r in json.loads(out)["reports"]}
    assert reports["separative"] == {"verdict": "holds", "note": "primitive poset certificate"}
    assert reports["cancellative"]["verdict"] == "fails"


def test_wildness_reads_a_poset_file(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_TEXT.replace("poset chain\n", ""))  # a first `primes` directive
    code, out, _ = run(capsys, "wildness", str(f))
    assert code == 1
    assert out == "prim: wildness: fails (finitely generated refinement monoid, tame by definition)\n"


def test_check_refuses_a_non_transitive_poset_file(tmp_path, capsys):
    f = tmp_path / "p.poset"
    f.write_text("poset P\nprimes p q r\nbelow p q\nbelow q r\n")
    for cmd in ("check", "wildness"):
        code, out, err = run(capsys, cmd, str(f))
        assert (code, out) == (INPUT_ERROR, "")
        assert "transitivity" in err


def test_eq_leq_refine_and_parse_read_a_poset_file(tmp_path, capsys):
    """A poset file is the presentation of its primitive monoid, with the
    prime certificates, for the rewriting commands too."""
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_TEXT)
    assert run(capsys, "eq", str(f), "p + q", "q") == (0, "chain: p + q = q: holds (rewrite path)\n", "")
    code, out, _ = run(capsys, "eq", str(f), "p", "q", "--format", "json")
    assert code == 1
    assert json.loads(out)["decision"]["counterexample"] == {"certificate": "count_p", "image_u": 1, "image_v": "inf"}
    assert run(capsys, "leq", str(f), "p", "q") == (0, "chain: p <= q: holds, complement q\n", "")
    code, out, _ = run(capsys, "refine", str(f), "p", "q", "0", "q")
    assert code == 0 and out.startswith("chain: refine p + q = 0 + q: holds\n")
    assert run(capsys, "parse", str(f)) == (0, "monoid chain\ngenerators p q\nrelation p + q = q\n", "")


def test_two_poset_files_keep_their_names(tmp_path, capsys):
    """Each poset file's monoid carries the name on its `poset` line, in
    every command; a file without one is `prim`."""
    chain, vee, bare = tmp_path / "chain.poset", tmp_path / "vee.poset", tmp_path / "bare.poset"
    chain.write_text(CHAIN_TEXT)
    vee.write_text("poset vee\nprimes p q r\nbelow p r\nbelow q r\n")
    bare.write_text(CHAIN_TEXT.replace("poset chain\n", ""))
    for f, name in ((chain, "chain"), (vee, "vee"), (bare, "prim")):
        assert run(capsys, "parse", str(f))[1].startswith(f"monoid {name}\n")
        assert run(capsys, "eq", str(f), "p", "p") == (0, f"{name}: p = p: holds (raw-equal)\n", "")
        assert run(capsys, "wildness", str(f))[1].startswith(f"{name}: wildness: fails")
        assert run(capsys, "check", str(f), "--prop", "separative")[1].startswith(f"monoid {name}, bound")
    assert primitive.parse_poset(chain.read_text()) == primitive.parse_poset(bare.read_text())
    # a `poset` line with no name, or a second one, is an input error
    for text, msg in (("poset\n", "line 1: missing poset name"), ("poset chain\nposet vee\n", "line 2: duplicate poset line")):
        bare.write_text(text + CHAIN_TEXT.replace("poset chain\n", ""))
        code, out, err = run(capsys, "parse", str(bare))
        assert (code, out) == (INPUT_ERROR, "") and msg in err


@pytest.mark.parametrize(
    "argv",
    [("eq", "ladder:x", "x0", "x0"), ("leq", "Bar:2x", "x0", "x0"), ("refine", "ec:y", "u", "u", "u", "u")],
    ids=lambda argv: argv[0],
)
def test_a_bad_level_names_the_target(capsys, argv):
    target = argv[1]
    level = target.partition(":")[2]
    assert run(capsys, *argv) == (INPUT_ERROR, "", f"error: bad level {level!r} in target {target!r}\n")


# -- wildness and suite


def test_wildness_command(capsys):
    code, out, _ = run(capsys, "wildness", "ladder:2", "--max-degree", "3")
    assert code == 0
    assert "not cancellative" in out
    code, out, _ = run(capsys, "wildness", "free:2", "--max-degree", "3")
    assert code == 1
    assert "fails (finitely generated refinement monoid, tame by definition)" in out
    code, out, _ = run(capsys, "wildness", "m0", "--max-degree", "3")
    assert code == 2
    assert "consistent with tame" in out


def test_builtin_suite_all_pass(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "suite", "--report", str(report_path))
    assert code == 0, out
    report = json.loads(report_path.read_text())
    assert report["passed"] == report["total"]
    assert all(c["status"] == "pass" for c in report["cases"])


def test_suite_manifest_mismatch(tmp_path, capsys):
    manifest = {
        "cases": [
            {"name": "good", "command": ["wild", "eq", "y0", "y0"], "expect": "holds"},
            {"name": "bad expectation", "command": ["wild", "eq", "y0", "z0"], "expect": "holds"},
        ]
    }
    f = tmp_path / "cases.json"
    f.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "suite", str(f))
    assert code == 1
    assert "MISMATCH" in out
    assert "1/2 passed" in out


def test_suite_reports_input_errors_per_case(tmp_path, capsys):
    """An input error, usage errors included, ends its own case with exit 3
    and status "error", whatever the case expected, keeps its stderr in the
    report, and the run goes on."""
    f = tmp_path / "g.txt"
    f.write_text(GRAPH_TEXT)
    bad = [
        (["wild", "eq", "x0"], "fails"),
        (["wild", "q", "xbar0"], "fails"),
        (["wild", "refine", "x0", "x0", "y0", "y0"], "fails"),
        (["tilde", str(f)], "fails"),
        (["graph-monoid", str(f), "--tilde"], "fails"),
        (["eq", str(tmp_path), "a", "b"], "fails"),
        (["eq", "m0", "x0 + nope", "x0"], "fails"),
        (["check", "nosuchfile.txt"], "fails"),
        (["eq", "m0", "x0"], "unknown"),  # usage error: rhs missing
    ]
    cases = [{"name": f"bad {i}", "command": c, "expect": e} for i, (c, e) in enumerate(bad)]
    cases.append({"name": "good", "command": ["wild", "eq", "y0", "y0"], "expect": "holds"})
    m, r = tmp_path / "cases.json", tmp_path / "report.json"
    m.write_text(json.dumps({"cases": cases}))
    code, out, err = run(capsys, "suite", str(m), "--report", str(r))
    assert code == 1, out
    report = json.loads(r.read_text())["cases"]
    assert [c["exit"] for c in report] == [INPUT_ERROR] * len(bad) + [0]
    assert [c["status"] for c in report] == ["error"] * len(bad) + ["pass"]
    assert all(c["stderr"].count("error: ") == 1 for c in report[:-1]) and report[-1]["stderr"] == ""
    assert "the following arguments are required: rhs" in report[-2]["stderr"]
    assert f"suite: 1/{len(bad) + 1} passed" in out
    assert err.count("error: ") == len(bad)


def test_usage_errors_exit_with_the_input_error_code(capsys):
    for argv in (("eq", "m0", "x0"), ("eq", "m0", "x0", "y0", "--max-degree", "many"), ("frobnicate",)):
        code, out, err = run(capsys, *argv)
        assert code == INPUT_ERROR
        assert out == ""
        assert err.startswith("usage: refmon") and "\nerror: refmon" in err


@pytest.mark.parametrize(
    "target, counterexample", [("ladder:2", ["y0", "z0", "x0"]), ("bar:2", ["ybar0", "zbar0", "xbar0"])]
)
def test_check_json_shows_elements_as_terms(capsys, target, counterexample):
    code, out, _ = run(capsys, "check", target, "--prop", "cancellative", "--max-degree", "3", "--format", "json")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["decision"]["counterexample"] == counterexample


def test_manifest_validation():
    for expect in ("maybe", [0], 1.5, True, False, 7, -1):
        with pytest.raises(ValueError, match="bad expect value"):
            suite.load_manifest(json.dumps({"cases": [{"name": "x", "command": [], "expect": expect}]}))
    m = suite.load_manifest(json.dumps({"cases": [{"name": "x", "command": ["parse", "m0"], "expect": 0}]}))
    assert m.cases[0].expect == 0


@pytest.mark.parametrize(
    "manifest",
    [
        {"cases": [{"command": ["wild", "eq", "y0", "y0"]}]},  # no name
        {"cases": [{"name": "x"}]},  # no command
        [{"name": "x", "command": ["wild", "eq", "y0", "y0"]}],  # not an object
        {"cases": [{"name": "x", "command": "wild eq y0 y0"}]},  # command not a list
    ],
)
def test_malformed_manifest_is_an_input_error(tmp_path, capsys, manifest):
    f = tmp_path / "cases.json"
    f.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "suite", str(f))
    assert code == INPUT_ERROR and out == ""
    assert err.count("error: ") == 1 and "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_check_needs_a_sample(capsys, samples):
    """No sampled equation proves nothing, so it is an input error, not
    Holds."""
    code, out, err = run(capsys, "check", "m0", "--prop", "refinement", "--samples", samples)
    assert code == INPUT_ERROR and out == ""
    assert err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eq", "m0", "x0", "y0", "--max-coeff", "3"),
        ("leq", "m0", "x0", "y0", "--max-coeff", "3"),
        ("refine", "m0", "x0", "y0", "y0", "x0", "--max-coeff", "3"),
        ("wildness", "bar:2", "--samples", "5"),
    ],
)
def test_options_that_change_nothing_are_usage_errors(capsys, argv):
    """The rewriting commands read no coefficient cap, and wildness runs only
    exhaustive checks, so neither takes the option."""
    code, out, err = run(capsys, *argv)
    assert code == INPUT_ERROR and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "ladder:1", "--prop", "refinement,riesz-decomposition"),
        ("check", "ladder:2", "--prop", "refinement,riesz-decomposition", "--max-degree", "4"),
    ],
)
def test_refinement_and_riesz_decomposition_agree_on_the_ladder(capsys, argv):
    """Refinement implies Riesz decomposition, so one run never reports the
    first holding and the second failing."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "\nrefinement: holds" in out and "\nriesz-decomposition: holds" in out


def test_check_ladder_fails_only_cancellation(capsys):
    code, out, _ = run(capsys, "check", "ladder:1")
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines() if ": fails" in line] == ["cancellative"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="m0 riesz-interpolation reads holds at --max-degree 3 and fails at 4 (ROADMAP items 1 and 10)",
)
def test_raising_the_degree_bound_never_swaps_holds_and_fails(capsys):
    """Raising a bound never flips Holds to Fails or Fails to Holds.  The
    sampled Riesz interpolation check on m0 breaks this today: its Holds at
    degree 3 is wrong (ROADMAP item 1 refutes it by a complete search), and
    its Fails at degree 4 only means no interpolant among the sampled lower
    bounds.  Once item 1 makes that check answer by proof, this test passes
    and the marker must go; item 10 generalizes it to every bound and
    target."""
    verdicts = set()
    for degree in ("3", "4"):
        _, out, _ = run(capsys, "check", "m0", "--prop", "riesz-interpolation", "--max-degree", degree)
        verdicts.add(out.splitlines()[-1].split(": ")[1].split()[0])
    assert verdicts != {"holds", "fails"}
