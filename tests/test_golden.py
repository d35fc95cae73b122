"""Golden outputs: `refmon` commands and the lab's operations, compared with
the files under tests/golden/.  A deliberate change of output rewrites them
with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/regen.py

so that every verdict, witness or note that moves shows as a diff."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
FILES = sorted(p.name for p in GOLDEN.glob("*.txt") if p.name != "graph.txt")


@pytest.fixture(scope="module")
def produced():
    """Every golden output, made in one fresh interpreter under a fixed hash
    seed: set order reaches some outputs."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join([str(SRC), str(GOLDEN)])}
    code = "import json, regen; print(json.dumps(regen.outputs()))"
    run = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_every_output_has_a_file(produced):
    assert sorted(produced) == FILES


@pytest.mark.parametrize("name", FILES)
def test_output_matches_its_golden_file(produced, name):
    assert produced[name] == (GOLDEN / name).read_text()
