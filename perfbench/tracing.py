"""Layer tracing for the benchmark's traced run.

`Tracer.install` wraps the public functions and methods of each refmon module
from the outside; the program's source is untouched.  Coarse boundaries
(CLI requests, decisions, class enumerations, graph builds, parsing, lab
checks) record one span per call: name, start, end, parent span and request
id.  Hot element arithmetic (words, wild, primitive, certificate images,
oracle calls) is aggregated into call counts and self time instead.  A
layer's self time is its calls' duration minus the time of wrapped calls
they made.  Spans stay in memory and are written out at exit.

Counts are kept per pass: the report gives the counts of the first traced
pass and the mean per-pass times of all complete traced passes.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import LAB_OPS

perf = time.perf_counter


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.m: dict = defaultdict(int)  # running counts and times
        self.stack: list = []  # frames: [child time, span id or None]
        self.depth: dict = defaultdict(int)  # open calls per layer
        self.spans: list = []  # (name, start, end, parent id, request id)
        self.req = None
        self.classes: set = set()
        self.passes: list = []  # per complete pass: metric deltas
        self._mark: dict = {}

    # -- wrapping

    def wrap(self, fn, name, layer, span=False, pre=None, post=None):
        m, stack, depth, spans = self.m, self.stack, self.depth, self.spans
        fixed = not callable(name)

        def wrapper(*args, **kwargs):
            nm = name if fixed else name(args, kwargs)
            sid = None
            if span:
                sid = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append(None)
            state = pre() if pre else None
            frame = [0.0, sid]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[layer] -= 1
                d = t1 - t0
                own = d - frame[0]
                m[layer + ".calls"] += 1
                m[layer + ".self_s"] += own
                if nm != layer:
                    m[nm + ".calls"] += 1
                    m[nm + ".self_s"] += own
                if depth[layer] == 0:
                    m[nm + ".incl_s"] += d
                if span:
                    spans[sid] = (nm, t0, t1, parent, self.req)
                if stack:
                    stack[-1][0] += d
            if post:
                # the hook's own time counts as the caller's child time
                h0 = perf()
                post(nm, result, state)
                if stack:
                    stack[-1][0] += perf() - h0
            return result

        return wrapper

    def patch(self, owner, attr, name, layer, **kw):
        """Replace owner.attr by a wrapper, and every refmon module global
        bound to the same function (names imported with `from . import`)."""
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        new = self.wrap(fn, name, layer, **kw)
        setattr(owner, attr, staticmethod(new) if static else new)
        if inspect.ismodule(owner):
            for mod in [v for k, v in sys.modules.items() if k == "refmon" or k.startswith("refmon.")]:
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        setattr(mod, k, new)

    def patch_public(self, owner, layer, span=False):
        """Wrap every public plain function or staticmethod defined on owner
        (lru-cached functions such as truncation_presentation are not plain
        functions and stay unwrapped)."""
        for attr, raw in list(vars(owner).items()):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if inspect.ismodule(owner) and fn.__module__ != owner.__name__:
                continue
            self.patch(owner, attr, f"{layer}.{attr}", layer, span=span)

    def install(self) -> None:
        from refmon import cli, graphs, lab, oracles, presentation, primitive, rewrite, targets, wild, words

        m = self.m
        for cls in (words.Word, words.GeneratorSet):
            self.patch_public(cls, "words")
        self.patch(words, "parse_term", "presentation.parse", "presentation.parse", span=True)
        self.patch(presentation.Presentation, "word", "presentation.parse", "presentation.parse", span=True)
        self.patch(presentation, "parse_presentation", "presentation.parse", "presentation.parse", span=True)
        self.patch(targets.CertificateHom, "apply", "targets.apply", "targets.apply")

        def enumerated(nm, res, state):
            m["rewrite.words_visited"] += len(res.words)
            if res.exhausted:
                m["rewrite.exhausted"] += 1
                if res.words not in self.classes:
                    self.classes.add(res.words)
                    m["rewrite.distinct_classes"] += 1

        self.patch(rewrite, "enumerate_class", "rewrite.enumerate_class", "rewrite.enumerate_class",
                   span=True, post=enumerated)

        def cache_get(nm, res, state):
            if m["rewrite.enumerate_class.calls"] == state:
                m["rewrite.cache_hits"] += 1

        self.patch(rewrite.ClassCache, "get", "rewrite.cache.get", "rewrite.cache",
                   pre=lambda: m["rewrite.enumerate_class.calls"], post=cache_get)

        def decided(nm, res, state):
            if m["targets.apply.calls"] != state:
                m["targets.attempts"] += 1
                if res.is_fails and res.note == "separated by certificate":
                    m["targets.refuted"] += 1

        self.patch(rewrite, "decide_equal", "rewrite.decide_equal", "rewrite.decide", span=True,
                   pre=lambda: m["targets.apply.calls"], post=decided)
        for attr in ("decide_leq", "find_refinement", "verify_refinement"):
            self.patch(rewrite, attr, f"rewrite.{attr}", "rewrite.decide", span=True)
        self.patch(cli, "main", "cli.main", "cli", span=True)
        self.patch_public(graphs, "graphs.build", span=True)
        for cls in (wild.LadderElem, wild.RawLadder, wild.BarElem):
            self.patch_public(cls, "wild")
        self.patch_public(wild, "wild")
        for cls in (primitive.PrimePoset, primitive.PrimElem):
            self.patch_public(cls, "primitive")
        self.patch_public(primitive, "primitive")

        def answered(nm, res, state):
            if res.is_unknown:
                m["oracles.unknown"] += 1

        def wrap_oracle(factory):
            def build(*args, **kwargs):
                o = factory(*args, **kwargs)
                for attr in ("equal", "leq", "refine"):
                    fn = getattr(o, attr)
                    if fn is not None:
                        setattr(o, attr, self.wrap(fn, f"oracles.{attr}", "oracles", post=answered))
                return o

            return build

        for attr in ("ladder_oracle", "bar_oracle", "free_oracle", "primitive_oracle", "presentation_oracle"):
            setattr(oracles, attr, wrap_oracle(getattr(oracles, attr)))

        def lab_done(nm, res, state):
            if self.depth["lab"] == 0:  # not nested in another lab call
                m[nm + ".oracle_calls"] += m["oracles.calls"] - state

        def prop_name(args, kwargs):
            return "lab." + (args[1] if len(args) > 1 else kwargs["prop"])

        for attr, name in (("check_property", prop_name), ("irreducibles", "lab.irreducibles"),
                           ("wildness_certificate", "lab.wildness")):
            self.patch(lab, attr, name, "lab", span=True, pre=lambda: m["oracles.calls"], post=lab_done)

    # -- requests and passes

    def request(self, req_id, fn, *args):
        self.req = req_id
        return self.wrap(fn, "harness", "harness", span=True)(*args)

    def begin_pass(self) -> None:
        self.classes = set()
        self._mark = dict(self.m)
        self._spans = len(self.spans)

    def end_pass(self, verdicts, wall_s: float, scale: float) -> None:
        """Close a pass: wall_s is already at the reference speed, and the
        pass's layer times are scaled to it by `scale`."""
        delta = {k: v - self._mark.get(k, 0) for k, v in self.m.items()}
        for k, v in delta.items():
            if k.endswith("_s"):
                delta[k] = v * scale
        delta["trace.wall_s"] = wall_s
        delta["trace.spans"] = len(self.spans) - self._spans
        for v, key in (("h", "holds"), ("f", "fails"), ("u", "unknown"), ("e", "error")):
            delta["verdicts." + key] = verdicts.count(v)
        self.passes.append(delta)

    def report(self, untraced_wall_s: float) -> dict:
        """Per-layer metrics, as BENCHMARK.json names them: counts of the first traced pass, times
        averaged over the traced passes."""
        first = self.passes[0]
        n = len(self.passes)

        def t(key):
            return sum(p.get(key, 0.0) for p in self.passes) / n

        def c(key):
            return first.get(key, 0)

        out = {
            "words.calls": c("words.calls"),
            "words.self_s": t("words.self_s"),
            "rewrite.enumerate_class.calls": c("rewrite.enumerate_class.calls"),
            "rewrite.enumerate_class.self_s": t("rewrite.enumerate_class.self_s"),
            "rewrite.words_visited": c("rewrite.words_visited"),
            "rewrite.cache_hit_share": _ratio(c("rewrite.cache_hits"), c("rewrite.cache.calls")),
            "rewrite.distinct_class_share": _ratio(c("rewrite.distinct_classes"), c("rewrite.exhausted")),
            "rewrite.exhausted_share": _ratio(c("rewrite.exhausted"), c("rewrite.enumerate_class.calls")),
            "rewrite.decide.calls": c("rewrite.decide.calls"),
            "rewrite.decide.self_s": t("rewrite.decide.self_s"),
            "targets.apply.calls": c("targets.apply.calls"),
            "targets.apply.self_s": t("targets.apply.self_s"),
            "targets.refuted_share": _ratio(c("targets.refuted"), c("targets.attempts")),
            "cli.self_s": t("cli.self_s"),
            "graphs.build.calls": c("graphs.build.calls"),
            "graphs.build_s": sum(t(k) for k in first if k.startswith("graphs.build.") and k.endswith(".incl_s")),
            "presentation.parse_s": t("presentation.parse.incl_s"),
            "wild.calls": c("wild.calls"),
            "wild.self_s": t("wild.self_s"),
            "primitive.calls": c("primitive.calls"),
            "primitive.self_s": t("primitive.self_s"),
            "primitive.prim_leq.self_s": t("primitive.prim_leq.self_s"),
            "oracles.calls": c("oracles.calls"),
            "oracles.unknown_share": _ratio(c("oracles.unknown"), c("oracles.calls")),
        }
        for op in LAB_OPS:
            out[f"lab.{op}.s"] = t(f"lab.{op}.incl_s")
            out[f"lab.{op}.oracle_calls"] = c(f"lab.{op}.oracle_calls")
        for key in ("verdicts.holds", "verdicts.fails", "verdicts.unknown", "verdicts.error", "trace.spans"):
            out[key] = c(key)
        out["harness.self_s"] = t("harness.self_s")
        out["trace.wall_s"] = t("trace.wall_s")
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
        return out

    def counts_repeat(self) -> bool:
        """Whether every traced pass made exactly the same counts."""
        keys = [k for k, v in self.passes[0].items() if isinstance(v, int)]
        return all(p.get(k) == self.passes[0][k] for p in self.passes for k in keys)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, fh)
