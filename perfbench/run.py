"""The refmon benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a refmon checkout:

    python3 perfbench/run.py --workload eq-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

This process generates the seeded inputs and their reference verdicts, then
starts the measured process (perfbench/worker.py) on the checkout's `src/`.
It sets up SETUPS times in fresh interpreters (the last one goes on to
measure) and reports the median set-up time.  With --trace 0 it prints every
end-to-end metric; with --trace 1 it runs the traced worker and prints every
per-layer metric.  Each verdict is scored against its reference; Unknown is
never scored wrong.  Afterwards it sends one fixed request for each known
defect and prints whether it still reproduces.  The last line of output is
one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from worker import CliMixed, LabSheet, pass_scale, scaled_latencies

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUPS = 9
WORKLOADS = ("eq-sweep", "cli-mixed", "lab-sheet")

# BENCHMARK.json is the one list of metric names and units.
SPEC = ROOT / "BENCHMARK.json"


def _worker(workload: str, seconds: float, trace: int, extra=()) -> list[str]:
    return [sys.executable, "-s", str(HERE / "worker.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace), *extra]


def _spawn(cmd: list[str], payload: bytes):
    """Start a worker, feed it its inputs, and wait for it to be set up.
    Returns (process, the set-up seconds it reports at the reference speed)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    word, _, setup = line.decode().partition(" ")
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, float(setup)


def _finish(proc) -> dict:
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


# Known program defects.  The contract asks for workloads on which no
# request fails, so the workloads leave out the shapes of request that hit
# these (see workloads.py).  Every run still sends one fixed instance of
# each, after the measurement and outside the measured process, and prints
# whether it still reproduces.  Name -> (kind, request, what goes wrong).
KNOWN_DEFECTS = {
    "refine-precondition-unknown": (
        "cli",
        ["refine", "ec:1", "u + y1", "u + x1", "x0 + y0 + z0 + x1 + 2*y1", "x1"],
        "refine exits 1 with an error when its precondition a + b = c + d is Unknown at the bound "
        "(ROADMAP item 4); cli-mixed splits a + b itself, so its preconditions are never Unknown",
    ),
    "wild-zero-term": (
        "cli",
        ["wild", "refine", "xbar1", "zbar0", "xbar1 + zbar0", "0"],
        "`wild` reads the term 0 as a ladder element, so a bar request with a 0 term errors; "
        "cli-mixed splits a + b into two nonzero parts",
    ),
    "bounded-search-fails": (
        "lab",
        ["ladder:2", "riesz-decomposition"],
        "a lab forall-exists check reports Fails when its bounded witness search finds nothing, "
        "where the property holds (ROADMAP item 4); left out of lab-sheet",
    ),
    "bounded-search-fails-refinement": (
        "lab",
        ["prim-chain", "refinement"],
        "search_refine tries only the canonical complement for z21, so q + 2p = q + 0 is reported "
        "non-refinable; left out of lab-sheet",
    ),
}


def probe_known_defects() -> dict:
    """Whether each known defect still reproduces: an error for a CLI
    request, Fails (where the property holds) for a lab check."""
    import workloads

    runners = {"cli": CliMixed({"requests": []}), "lab": LabSheet(workloads.lab_sheet(0))}
    runners["lab"].new_pass()
    return {
        name: runners[kind].run(req)[0] == ("e" if kind == "cli" else "f")
        for name, (kind, req, _) in KNOWN_DEFECTS.items()
    }


def score(passes: list, refs: list, requests: list):
    """Tally verdicts of every executed request against the references.
    A definite verdict opposite to its reference, or an error, is a failure."""
    tally = {"attempted": 0, "h": 0, "f": 0, "u": 0, "e": 0, "wrong": 0, "unscored": 0}
    failures = []
    for rec in passes:
        for i, verdict in enumerate(rec["verdicts"]):
            tally["attempted"] += 1
            tally[verdict] += 1
            ref = refs[i]
            if isinstance(ref, list):  # an irreducible set
                detail = rec["details"].get(str(i))
                ok = verdict == "u" or detail == ref
            elif verdict == "e":
                ok = False
            elif ref is None or verdict == "u":
                tally["unscored"] += ref is None
                ok = True
            else:
                ok = verdict == ref
            if not ok:
                tally["wrong"] += verdict != "e"
                failures.append((requests[i], verdict, ref, rec["details"].get(str(i))))
    return tally, failures


def _pctl(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _middle_mean(values: list) -> float:
    """The median, taken as the mean of the values ranked between the 45th
    and 55th percentiles.  With few requests (lab-sheet has 63), a plain
    median jumps between two neighbouring requests of different cost as
    noise reorders them."""
    v = sorted(values)
    lo = int(len(v) * 0.45)
    return statistics.mean(v[lo:len(v) - lo])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    inputs = workloads.GENERATORS[workload](seed)
    refs = inputs.pop("refs")
    refs = [list(r) if isinstance(r, tuple) else r for r in refs]
    payload = json.dumps(inputs).encode()

    setups = []
    if trace:
        out_dir = ROOT / ".perfbench_out"
        spans = out_dir / f"trace-{workload}-seed{seed}.json"
        proc, _ = _spawn(_worker(workload, seconds, 1, ["--trace-out", str(spans)]), payload)
    else:
        for _ in range(SETUPS - 1):
            proc, setup = _spawn(_worker(workload, seconds, 0, ["--setup-only"]), payload)
            proc.stdout.close()
            if proc.wait() != 0:
                raise RuntimeError(f"set-up worker exited with code {proc.returncode}")
            setups.append(setup)
        proc, setup = _spawn(_worker(workload, seconds, 0), payload)
        setups.append(setup)
    result = _finish(proc)

    passes = result["passes"]
    tally, failures = score(passes, refs, inputs["requests"])
    attempted = tally["attempted"]
    failed = tally["wrong"] + tally["e"]
    for req, verdict, ref, detail in failures[:10]:
        print(f"[{workload}] FAILED {req!r}: got {verdict!r}, reference {ref!r} {detail or ''}", file=sys.stderr)

    spec = json.loads(SPEC.read_text())
    if trace:
        layers = result["layers"]
        names = {m["name"] for m in spec["per_layer"]}
        if set(layers) != names:
            raise RuntimeError(f"traced layers differ from BENCHMARK.json: {sorted(set(layers) ^ names)}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        if not result["counts_repeat"]:
            print(f"[{workload}] traced passes made different counts", file=sys.stderr)
    else:
        # A request's latency is the median over the passes that ran it: every
        # pass repeats the same requests from the same state, so the median
        # drops the passes that a burst of machine noise slowed down.
        scaled = [scaled_latencies(rec) for rec in passes]
        lat = [statistics.median(s[i] for s in scaled if i < len(s)) for i in range(len(scaled[0]))]
        walls = [sum(s) for s, rec in zip(scaled, passes) if rec["complete"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "decisions_per_s": len(lat) / sum(lat),
            "latency_p50_ms": _middle_mean(lat) * 1e3,
            "latency_p99_ms": _pctl(lat, 99) * 1e3,
            "decided_share": statistics.mean(
                sum(v in "hf" for v in rec["verdicts"]) / len(rec["verdicts"]) for rec in passes if rec["complete"]
            ),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    raw = ", ".join(f"{rec['spans'][-1][1] - rec['spans'][0][0]:.3f} s x {pass_scale(rec['cal']):.3f}" for rec in passes)
    print(f"== {workload} (seed {seed}, trace {trace}; raw pass time x mean speed scale: {raw})")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'attempted':34s} {attempted:>14d}")
    print(f"  {'unknown_share':34s} {tally['u'] / attempted:>14.6g} ratio")
    print(f"  {'failed_share':34s} {failed / attempted:>14.6g} ratio (wrong {tally['wrong']}, errors {tally['e']})")
    print(f"  {'unscored_share':34s} {tally['unscored'] / attempted:>14.6g} ratio")
    for name, reproduces in probe_known_defects().items():
        state = "reproduces" if reproduces else "NO LONGER REPRODUCES: put its shape back into the workload"
        print(f"  known defect {name}: {state}; {KNOWN_DEFECTS[name][2]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "refmon" / "__init__.py").is_file():
        print(f"error: no refmon sources under {SRC}; run from the root of a refmon checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import refmon

    if Path(refmon.__file__).resolve().parent != (SRC / "refmon").resolve():
        print(f"error: imported refmon from {refmon.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
