"""Golden outputs: `refmon` commands and the lab's operations, compared with
the files under tests/golden/.  A deliberate change of output rewrites them
with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/regen.py

so that every verdict, witness or note that moves shows as a diff.

No output depends on set iteration order today: the files come out the same
under every hash seed.  They are made under a fixed seed all the same, and
once more under a second seed, so that an output that comes to depend on
the order fails `test_outputs_do_not_depend_on_the_hash_seed` and does not
make the other tests flake."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
FILES = sorted(p.name for p in GOLDEN.glob("*.txt") if p.name != "graph.txt")


def _produce(seed: str) -> dict:
    """Every golden output, made in one fresh interpreter under hash seed `seed`."""
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([str(SRC), str(GOLDEN)])}
    code = "import json, regen; print(json.dumps(regen.outputs()))"
    run = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def produced():
    return _produce("0")


def test_every_output_has_a_file(produced):
    assert sorted(produced) == FILES


@pytest.mark.parametrize("name", FILES)
def test_output_matches_its_golden_file(produced, name):
    assert produced[name] == (GOLDEN / name).read_text()


def test_outputs_do_not_depend_on_the_hash_seed():
    assert _produce("1") == {name: (GOLDEN / name).read_text() for name in FILES}
