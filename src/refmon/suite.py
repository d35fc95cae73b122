"""Batch suite runner: executes CLI command lines in-process and compares
exit codes against expectations.

Manifest JSON:

    {"cases": [
        {"name": "...", "command": ["eq", "m0", "x0 + y0", "x0 + z0"],
         "expect": "holds", "comment": "why this case exists"}
    ]}

expect is one of holds / fails / unknown (mapped to exit codes 0 / 1 / 2) or
an integer exit code from 0 to 3.  A case whose command exits with the input
error code 3 when it expected something else gets status "error"; its
stderr is kept in the report either way.
"""
from __future__ import annotations

import io
import json
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

_EXPECT_CODES = {"holds": 0, "fails": 1, "unknown": 2}


class SuiteCase(namedtuple("SuiteCase", "name command expect comment", defaults=("",))):
    """command: tuple of argument strings; expect: the exit code 0-3."""

    __slots__ = ()


class SuiteManifest(namedtuple("SuiteManifest", "cases")):
    """cases: tuple of SuiteCase."""

    __slots__ = ()


def load_manifest(text: str) -> SuiteManifest:
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("cases"), list):
        raise ValueError("a suite manifest must be an object with a 'cases' list")
    cases = []
    for raw in data["cases"]:
        ok = isinstance(raw, dict) and isinstance(raw.get("name"), str) and isinstance(raw.get("command"), list)
        if not ok or not all(isinstance(arg, str) for arg in raw["command"]):
            raise ValueError(f"suite case {raw!r} needs a string 'name' and a list of strings as 'command'")
        expect = raw.get("expect", 0)
        code = _EXPECT_CODES.get(expect) if isinstance(expect, str) else expect
        # a bool is an int to Python, but names no exit code
        if type(code) is not int or not 0 <= code <= 3:
            raise ValueError(f"bad expect value {expect!r} in case {raw['name']!r}")
        cases.append(
            SuiteCase(
                name=raw["name"],
                command=tuple(raw["command"]),
                expect=code,
                comment=raw.get("comment", ""),
            )
        )
    return SuiteManifest(tuple(cases))


def run_suite(manifest: SuiteManifest):
    """Run every case; returns (report dict, exit code). Exit code is 0 iff
    every case's exit matches its expectation."""
    from .cli import INPUT_ERROR, main  # late import: cli imports this module

    results = []
    passed = 0
    for case in manifest.cases:
        buf, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(buf), redirect_stderr(err):
                code = main(list(case.command))
        except SystemExit as exc:
            code = int(exc.code or 0)
        sys.stderr.write(err.getvalue())
        ok = code == case.expect
        passed += ok
        status = "pass" if ok else "error" if code == INPUT_ERROR else "MISMATCH"
        results.append(
            {
                "name": case.name,
                "command": list(case.command),
                "comment": case.comment,
                "expected": case.expect,
                "exit": code,
                "status": status,
                "output": buf.getvalue(),
                "stderr": err.getvalue(),
            }
        )
    report = {"total": len(manifest.cases), "passed": passed, "cases": results}
    return report, (0 if passed == len(manifest.cases) else 1)


def standard_suite() -> SuiteManifest:
    """The built-in desk-scale suite: the workbench's standard claims about
    the two wild monoids, the level-0 monoid, and the builtin graphs."""
    deg4 = ["--max-degree", "4"]
    cases = [
        ("noncancellation witness", ["wild", "eq", "x0 + y0", "x0 + z0"], "holds"),
        ("y0 and z0 distinct", ["wild", "eq", "y0", "z0"], "fails"),
        ("bar noncancellation witness", ["wild", "eq", "xbar0 + ybar0", "xbar0 + zbar0"], "holds"),
        ("bar generators distinct", ["wild", "eq", "ybar0", "zbar0"], "fails"),
        ("order-unit bounds rungs", ["wild", "leq", "3*a3", "u"], "holds"),
        ("order-unit bound is sharp", ["wild", "leq", "4*a3", "u"], "fails"),
        ("non-archimedean step", ["wild", "leq", "5*ybar0 + 5*zbar0", "xbar0"], "holds"),
        ("exact refinement", ["wild", "refine", "x0", "y0", "x0", "z0"], "holds"),
        ("ladder wildness evidence", ["wildness", "ladder:2", "--max-degree", "4"], "holds"),
        ("bar wildness evidence", ["wildness", "bar:2", "--max-degree", "4"], "holds"),
        ("level-0 monoid lacks refinement", ["refine", "m0", "x0", "y0", "x0", "z0", *deg4], "fails"),
        ("ladder separative at bound", ["check", "ladder:2", "--prop", "separative", *deg4], "holds"),
        ("bar not cancellative", ["check", "bar:2", "--prop", "cancellative", *deg4], "fails"),
        ("free monoid all clear", ["check", "free:2", "--prop", "cancellative,refinement,unperforated", *deg4], "holds"),
    ]
    return SuiteManifest(
        tuple(SuiteCase(name, tuple(cmd), _EXPECT_CODES[exp]) for name, cmd, exp in cases)
    )
