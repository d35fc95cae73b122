"""Golden outputs of refmon, compared with the files beside this script by
tests/test_golden.py.

Each file holds one group of outputs: every `refmon` command runs in-process
through `refmon.cli.main` and shows its command line, its exit code and its
stdout (and stderr, when there is any); `lab.txt` holds the thirteen lab
operations on five oracles at fixed bounds.  Set iteration order reaches some
outputs, so the files are made and compared under PYTHONHASHSEED=0.

Rewrite the files after a deliberate change of output with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/regen.py

and review the diff: it shows every verdict, witness and note that moved.
"""
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from refmon import cli, lab, oracles, primitive, wild
from refmon.decisions import SearchBound

HERE = Path(__file__).resolve().parent
GRAPH = HERE / "graph.txt"

# every builtin target of eq, leq, refine and parse
TARGETS = (
    "m0", "ladder:1", "ladder:2", "ladder:3", "bar:1", "bar:2", "bar:3",
    "e0c0", "ec:1", "ec:2", "ec:3", "ebar:1", "ebar:2", "ebar:3",
)


def _terms(target: str) -> dict:
    """One fixed question per operation, in the target's generator names:
    y0 = z0 fails, by certificate or by exhausted classes; y0 <= x0 + z0
    holds with a complement; x0 + y0 = x0 + z0 refines, but in m0."""
    g = "bar0" if "bar" in target else "0"
    x, y, z = f"x{g}", f"y{g}", f"z{g}"
    return {"eq": (y, z), "leq": (y, f"{x} + {z}"), "refine": (x, y, x, z)}


def _run(argv, shown=None) -> str:
    """The command line (as `shown`, if given), exit code and output of one
    in-process `refmon` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    text = f"$ refmon {shlex.join(shown or argv)}\nexit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    return text


def _check_json(argv) -> str:
    """`refmon check --format json` without its timings."""
    head, _, body = _run(argv).partition("\n{")
    payload = json.loads("{" + body)
    for report in payload["reports"]:
        del report["elapsed_s"]
    return f"{head}\n{json.dumps(payload, indent=2, sort_keys=True)}\n"


def _lab_oracles() -> dict:
    """The lab-sheet oracles: name -> (fresh oracle, bound)."""
    m0 = SearchBound(max_degree=3, max_coefficient=5)
    posets = {
        "prim-free": primitive.validate_poset(["p", "q", "r"], []),
        "prim-chain": primitive.validate_poset(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")]),
    }
    return {
        "ladder:2": (oracles.ladder_oracle(2), SearchBound(max_degree=5, max_coefficient=5)),
        "bar:3": (oracles.bar_oracle(3), SearchBound(max_degree=6, max_coefficient=5)),
        "m0": (oracles.presentation_oracle(wild.m0_presentation(), m0), m0),
        **{
            name: (oracles.primitive_oracle(poset, name), SearchBound(max_degree=2, max_coefficient=3))
            for name, poset in posets.items()
        },
    }


def _shown(o, xs) -> str:
    """A tuple of elements of `o` by its `fmt`, and of multipliers."""
    return "(" + ", ".join(str(x) if isinstance(x, int) else o.fmt(x) for x in xs) + ")"


def _lab_line(o, name: str, rep) -> str:
    """The report's line, with its counterexample, and the witness of a
    wildness report: notes and tuples of elements by property."""
    dec = rep.verdict
    line = f"{name}: {rep.line()}"
    if dec.counterexample is not None:
        line += f" counterexample {_shown(o, dec.counterexample)}"
    if isinstance(dec.witness, dict):
        shown = (f"{k}: {v if isinstance(v, str) else _shown(o, v)}" for k, v in dec.witness.items())
        line += " witness {" + ", ".join(shown) + "}"
    return line


def _lab() -> str:
    lines = []
    for name, (o, b) in _lab_oracles().items():
        lines.append(f"# {name} at {b.as_dict()}, 100 samples")
        for prop in lab.PROPERTIES:
            lines.append(_lab_line(o, name, lab.check_property(o, prop, b, samples=100)))
        found, unknown = lab.irreducibles(o, b)
        shown = [sorted(o.fmt(x) for x in xs) for xs in (found, unknown)]
        lines.append(f"{name}: irreducibles: {shown[0]}, unknown {shown[1]}")
        lines.append(_lab_line(o, name, lab.wildness_certificate(o, b, samples=100)))
    return "\n".join(lines) + "\n"


def outputs() -> dict:
    """File name -> golden text."""
    wild_examples = (("leq", "3*a3", "u"), ("refine", "x0", "y0", "x0", "z0", "--format", "json"), ("q", "x1 + a2"))
    return {
        "suite.txt": _run(["suite"]),
        "check.txt": "".join(
            _check_json(["check", t, "--max-degree", "3", "--format", "json"])
            for t in ("ladder:2", "bar:3", "m0", "free:2")
        ),
        "wildness.txt": "".join(_run(["wildness", t]) for t in ("ladder:2", "bar:2", "m0")),
        "wild.txt": "".join(_run(["wild", *argv]) for argv in wild_examples),
        **{
            f"{op}.txt": "".join(_run([op, t, *_terms(t)[op], "--format", "json"]) for t in TARGETS)
            for op in ("eq", "leq", "refine")
        },
        "parse.txt": "".join(_run(["parse", t]) for t in TARGETS),
        "graph-monoid.txt": _run(
            ["graph-monoid", str(GRAPH), "--triple", "--zcap", "2"],
            ["graph-monoid", "tests/golden/graph.txt", "--triple", "--zcap", "2"],
        ),
        "lab.txt": _lab(),
    }


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.exit("run with PYTHONHASHSEED=0: set order reaches some outputs")
    for name, text in outputs().items():
        (HERE / name).write_text(text)
        print(f"wrote {HERE.name}/{name}")
