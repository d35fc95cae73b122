"""The benchmark's own steadiness test.

At a fixed seed, two traced runs must make exactly the same counts (calls,
enumerations, words visited, oracle calls, verdict tallies and the shares
built from them), and the medians of two sets of three untraced runs must
agree on every end-to-end metric within its bound.  Every run prints exactly
the metrics BENCHMARK.json names.

Run from the checkout root (it takes about fifteen minutes):

    python3 -m pytest perfbench/test_steadiness.py
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(workload: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat(workload):
    a, b = _run(workload, 1, 1), _run(workload, 1, 1)
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in a["metrics"].items() if m["unit"] in ("count", "ratio")]
    assert counts
    for name in counts:
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timings_agree_within_bounds(workload):
    """Medians of two sets of three runs, as the bounds compare medians."""
    runs = [_run(workload, 0, SPEC["run_seconds"]) for _ in range(6)]
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        assert min(values) > 0, metric["name"]
        a, b = statistics.median(values[:3]), statistics.median(values[3:])
        assert abs(a - b) <= metric["bound"] * min(a, b), (metric["name"], values)
