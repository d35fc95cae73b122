"""The measured process: set up, then run one workload in a closed loop.

Reads the generated inputs as JSON on stdin, prints "ready" and its set-up
time once set up, then runs passes over the request list (one caller, each
request waits for the previous one) until --seconds have elapsed and at least
one pass is complete.  A request that raises is scored as an error.
Prints one JSON result line.  With --trace 1 the first pass runs untraced,
then the tracer is installed and traced passes run until the time is up (at
least one).
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

perf = time.perf_counter
# Requests and speed kernels are timed in the process's CPU time.  The
# program does no I/O, so on an idle machine a request's CPU time is its
# latency; on a shared host, CPU time leaves out the time other tenants'
# processes hold the core, which wall time adds to long requests at random.
cpu = time.process_time


class EqSweep:
    def __init__(self, inputs: dict):
        from refmon import rewrite, wild
        from refmon.decisions import SearchBound

        self.rewrite = rewrite
        self.bound = SearchBound()
        self.sets = []
        for s in inputs["sets"]:
            p = wild.truncation_presentation(s["level"], s["kind"])
            certs = tuple(wild.standard_certificates(s["level"], s["kind"]).values())
            self.sets.append((p, certs))
        self.requests = [(i, self.sets[i][0].word(w), self.sets[i][0].word(r)) for i, w, r in inputs["requests"]]

    def new_pass(self):
        self.caches = [self.rewrite.ClassCache(p, self.bound) for p, _ in self.sets]

    def run(self, req):
        i, w, rep = req
        p, certs = self.sets[i]
        return self.rewrite.decide_equal(p, w, rep, self.bound, certs, self.caches[i]).verdict[0], None


class CliMixed:
    def __init__(self, inputs: dict):
        from refmon import cli, wild

        self.cli = cli
        wild.m0_presentation()
        for kind in ("ladder", "bar"):
            for n in (1, 2, 3):
                wild.truncation_presentation(n, kind)
                wild.standard_certificates(n, kind)
        self.requests = inputs["requests"]

    def new_pass(self):
        pass

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors and the CLI's input errors
                return "e", f"{exc.code} {err.getvalue().strip()}".strip()
        if err.getvalue().startswith("error") or code not in (0, 1, 2):
            return "e", err.getvalue().strip()
        return "hfu"[code], None


class LabSheet:
    def __init__(self, inputs: dict):
        from refmon import lab, oracles, primitive, wild
        from refmon.decisions import SearchBound

        self.lab, self.oracles, self.wild = lab, oracles, wild
        self.specs = inputs["oracles"]
        self.bounds = {
            name: SearchBound(max_degree=s["max_degree"], max_coefficient=s["max_coefficient"])
            for name, s in self.specs.items()
        }
        self.posets = {
            name: primitive.PrimePoset(tuple(s["primes"]), frozenset(tuple(x) for x in s["below"]))
            for name, s in self.specs.items()
            if s["kind"] == "poset"
        }
        wild.m0_presentation()
        self.samples = inputs["samples"]
        self.requests = inputs["requests"]

    def new_pass(self):
        """Fresh oracles, so the presentation oracle's shared cache starts empty."""
        o = self.oracles
        self.live = {}
        for name, s in self.specs.items():
            if s["kind"] == "ladder":
                self.live[name] = o.ladder_oracle(s["level"])
            elif s["kind"] == "bar":
                self.live[name] = o.bar_oracle(s["level"])
            elif s["kind"] == "m0":
                self.live[name] = o.presentation_oracle(self.wild.m0_presentation(), self.bounds[name])
            else:
                self.live[name] = o.primitive_oracle(self.posets[name], name)

    def run(self, req):
        name, op = req
        o, b = self.live[name], self.bounds[name]
        if op == "irreducibles":
            found, unknown = self.lab.irreducibles(o, b)
            return ("u" if unknown else "h"), sorted(o.fmt(x) for x in found)
        if op == "wildness":
            return self.lab.wildness_certificate(o, b, samples=self.samples).verdict.verdict[0], None
        return self.lab.check_property(o, op, b, samples=self.samples).verdict.verdict[0], None


WORKLOADS = {"eq-sweep": EqSweep, "cli-mixed": CliMixed, "lab-sheet": LabSheet}


# Machine-speed calibration.  The machine's speed drifts under load from
# other tenants (by 2x over minutes on a shared 2-core host), so a timer
# signal times a fixed pure-Python kernel, which calls no refmon code, every
# 10 ms, also in the middle of long requests; traced passes time it only at
# their start and end.  run.py takes the kernel's time out of each request
# and scales the rest to the reference speed, at which the kernel takes
# CAL_REF_S, using the kernels timed during and just around the request.
CAL_EVERY_S = 0.01
CAL_REF_S = 0.8e-3


def calibration_kernel() -> int:
    """Integer and dict work that allocates no objects the cycle collector
    tracks, so it never triggers a collection of the workload's heap."""
    acc = 0
    d: dict = {}
    for i in range(4000):
        k = i % 97
        d[k] = d.get(k, 0) + i
        acc ^= k * i
    return acc


def calibrate(clock=perf) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        calibration_kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Kernel timings as [end CPU time, CPU seconds], from a timer signal while on."""

    def __init__(self) -> None:
        self.samples: list = []
        self._busy = False

    def tick(self, *_signal) -> None:
        if not self._busy:
            self._busy = True
            try:
                d = calibrate(cpu)
                self.samples.append([cpu(), d])
            finally:
                self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_setup(make):
    """Return make() and its set-up time in seconds at the reference speed.

    Set-up is timed in CPU time, from process start (the interpreter's own
    start-up included) to the end of make().  A timer signal times the kernel
    in CPU time every CAL_EVERY_S meanwhile; the kernels' time is taken out
    and the rest is scaled to the reference speed by their mean."""
    kernels: list = []

    def tick(*_signal) -> None:
        kernels.append(calibrate(time.process_time))

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
    try:
        tick()
        w = make()
        tick()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    cpu = time.process_time() - sum(kernels)
    return w, cpu * CAL_REF_S * len(kernels) / sum(kernels)


def pass_scale(cal) -> float:
    """Mean speed scale of a pass, from its kernel timings."""
    return CAL_REF_S * len(cal) / sum(t for _, t in cal)


SPEED_WINDOW_S = 0.05


def scaled_latencies(rec: dict) -> list:
    """Each request's latency at the reference speed: its CPU time less the
    kernels timed inside it, scaled by the mean kernel time from
    SPEED_WINDOW_S (of CPU time) before it starts to SPEED_WINDOW_S after it
    ends."""
    cal = rec["cal"]
    ends = [e for e, _ in cal]
    out = []
    for t0, t1 in rec["spans"]:
        inside = cal[bisect.bisect_left(ends, t0):bisect.bisect_right(ends, t1)]
        lo = bisect.bisect_left(ends, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(ends, t1 + SPEED_WINDOW_S)
        around = [d for _, d in cal[max(lo - 1, 0):hi + 1]]
        out.append((t1 - t0 - sum(d for _, d in inside)) * CAL_REF_S * len(around) / sum(around))
    return out


def run_passes(w, seconds: float, tracer=None):
    """Closed loop over the request list, until `seconds` have passed and one
    pass is complete.  Returns one record per pass: whether it completed,
    per request its verdict, start and end CPU times and any detail, and the
    kernel timings.  Traced passes time the kernel only at start and end."""
    passes = []
    sampler = SpeedSampler()
    deadline = perf() + seconds
    with sampler if tracer is None else contextlib.nullcontext():
        while True:
            rec = {"complete": False, "verdicts": [], "spans": [], "details": {}}
            passes.append(rec)
            if tracer is not None:
                tracer.begin_pass()
            # Start every pass from a collected heap, so that the cycle
            # collector runs at the same points in every pass.
            gc.collect()
            w.new_pass()
            sampler.samples = rec["cal"] = []
            sampler.tick()
            for i, req in enumerate(w.requests):
                t0 = cpu()
                try:
                    if tracer is None:
                        verdict, detail = w.run(req)
                    else:
                        verdict, detail = tracer.request(i, w.run, req)
                except Exception as exc:  # scored as a failure, like an error exit
                    verdict, detail = "e", repr(exc)
                t1 = cpu()
                rec["verdicts"].append(verdict)
                rec["spans"].append([t0, t1])
                if detail is not None:
                    rec["details"][i] = detail
                if perf() >= deadline and len(passes) > 1:
                    sampler.tick()
                    return passes
            sampler.tick()
            rec["complete"] = True
            if tracer is not None:
                tracer.end_pass(rec["verdicts"], sum(scaled_latencies(rec)), pass_scale(rec["cal"]))
            if perf() >= deadline:
                return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="file for the spans of a traced run")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w, setup_s = timed_setup(lambda: WORKLOADS[args.workload](json.loads(sys.stdin.read())))
    print("ready", setup_s, flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        from tracing import Tracer

        t0 = perf()
        untraced = run_passes(w, 0.0)
        tracer = Tracer()
        tracer.install()
        passes = run_passes(w, args.seconds - (perf() - t0), tracer)
        result["layers"] = tracer.report(sum(scaled_latencies(untraced[0])))
        result["counts_repeat"] = tracer.counts_repeat()
        passes = untraced + passes
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    else:
        passes = run_passes(w, args.seconds)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
