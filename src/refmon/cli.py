"""Command-line entry point.

Exit codes: 0 = every decision Holds, 1 = some decision Fails, 2 = some
decision Unknown with no Fails, 3 = an input error (a bad term, target,
file or option, usage errors included), so that a command that could not
run never reads as a verdict.  All bounds are explicit flags with the
defaults of SearchBound; reports always print the bound so a Holds can never
be read as more than "no counterexample at this bound".
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import graphs, lab, oracles, primitive, wild
from .decisions import Decision, SearchBound
from .presentation import Presentation, parse_presentation
from .rewrite import decide_equal, decide_leq, find_refinement
from .words import Word, directives


def _bound(args) -> SearchBound:
    return SearchBound(
        max_degree=args.max_degree,
        max_class_size=args.max_class_size,
        max_coefficient=getattr(args, "max_coeff", SearchBound._field_defaults["max_coefficient"]),
    )


def _add_bound_flags(sp, coefficients: bool = True) -> None:
    """--max-coeff only for the lab's commands: rewriting reads no coefficient cap."""
    defaults = SearchBound._field_defaults
    sp.add_argument("--max-degree", type=int, default=defaults["max_degree"])
    if coefficients:
        sp.add_argument("--max-coeff", type=int, default=defaults["max_coefficient"])
    sp.add_argument("--max-class-size", type=int, default=defaults["max_class_size"])


INPUT_ERROR = 3


def _show(obj, fmt):
    """`obj` as JSON data, with each word rendered as a term by `fmt`."""
    if isinstance(obj, (wild.LadderElem, wild.BarElem, primitive.PrimElem)):  # tuples, but shown as terms
        return str(obj)
    if isinstance(obj, Word):
        return fmt(obj)
    if isinstance(obj, (list, tuple)):
        return [_show(x, fmt) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _show(v, fmt) for k, v in obj.items()}
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def _dec_json(d: Decision, fmt) -> dict:
    out = {"verdict": d.verdict}
    if d.note:
        out["note"] = d.note
    if d.witness is not None:
        out["witness"] = _show(d.witness, fmt)
    if d.counterexample is not None:
        out["counterexample"] = _show(d.counterexample, fmt)
    if d.bound is not None:
        out["bound"] = d.bound._asdict()
    return out


def _exit_code(decisions) -> int:
    verdicts = [d.verdict for d in decisions]
    if "fails" in verdicts:
        return 1
    if "unknown" in verdicts:
        return 2
    return 0


def _load_target(spec: str) -> tuple[Presentation, tuple]:
    """A builtin name (m0, ladder:N, bar:N, e0c0, ec:N, ebar:N) or a file
    path: its presentation and the separating certificates that come with it
    (those of the ladder and bar truncations, a poset file's prime
    certificates, none for the rest)."""
    target = _read_target(spec)
    if isinstance(target, primitive.PrimePoset):
        return primitive.presentation_of(target), tuple(primitive.prime_certificates(target).values())
    return target


def _read_target(spec: str) -> tuple[Presentation, tuple] | primitive.PrimePoset:
    """`_builtin_target` of a builtin name, which takes precedence over a file
    of that name; else the file: the poset of a poset file, one whose first
    directive is `poset` or `primes`, or the presentation of any other file,
    with no certificates."""
    target = _builtin_target(spec)
    if target is None:
        text = Path(spec).read_text()
        if next(directives(text), (0, "", ""))[1] in ("poset", "primes"):
            return primitive.parse_poset(text)
        target = parse_presentation(text), ()
    return target


def _level(spec: str) -> int:
    """The N of a `name:N` target."""
    arg = spec.partition(":")[2]
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"bad level {arg!r} in target {spec!r}") from None


def _builtin_target(spec: str) -> tuple[Presentation, tuple] | None:
    """`_load_target` of a builtin name; None for any other spec."""
    low = spec.lower()
    name, _, arg = low.partition(":")
    if low == "m0":
        return wild.m0_presentation(), ()
    if name in ("ladder", "bar") and arg:
        n = _level(spec)
        return wild.truncation_presentation(n, name), tuple(wild.standard_certificates(n, name).values())
    if low == "e0c0":
        return graphs.present_finitely_separated(graphs.builtin_graph("e0c0")), ()
    if name in ("ec", "ebar"):
        return graphs.present_finitely_separated(graphs.builtin_graph(name, _level(spec) if arg else 1)), ()
    return None


_EXACT_ORACLES = {"ladder": oracles.ladder_oracle, "bar": oracles.bar_oracle, "free": oracles.free_oracle}


def _load_oracle(spec: str, bound: SearchBound) -> oracles.MonoidOracle:
    """The exact oracle of ladder:N, bar:N or free:N; the primitive oracle of
    a poset file; else the presentation oracle of the target's presentation
    and certificates."""
    name, _, arg = spec.lower().partition(":")
    if name in _EXACT_ORACLES and arg:
        return _EXACT_ORACLES[name](_level(spec))
    target = _read_target(spec)
    if isinstance(target, primitive.PrimePoset):
        return oracles.primitive_oracle(target)
    p, certs = target
    return oracles.presentation_oracle(p, bound, certs)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    p, _ = _load_target(args.input)
    sys.stdout.write(p.format())
    return 0


def _cmd_eq(args) -> int:
    p, certs = _load_target(args.target)
    b = _bound(args)
    u, v = p.word(args.lhs), p.word(args.rhs)
    dec = decide_equal(p, u, v, b, certs)
    decision = _dec_json(dec, lambda w: w.format(p.gens))
    payload = {"monoid": p.name, "lhs": args.lhs, "rhs": args.rhs, "decision": decision}
    _emit(args, payload, [f"{p.name}: {args.lhs} = {args.rhs}: {dec.verdict} ({dec.note or ''})"])
    return _exit_code([dec])


def _cmd_leq(args) -> int:
    p, _ = _load_target(args.target)
    b = _bound(args)
    u, v = p.word(args.lhs), p.word(args.rhs)
    dec = decide_leq(p, u, v, b)
    extra = f", complement {dec.witness.format(p.gens)}" if dec.is_holds else ""
    decision = _dec_json(dec, lambda w: w.format(p.gens))
    payload = {"monoid": p.name, "lhs": args.lhs, "rhs": args.rhs, "decision": decision}
    _emit(args, payload, [f"{p.name}: {args.lhs} <= {args.rhs}: {dec.verdict}{extra}"])
    return _exit_code([dec])


def _cmd_refine(args) -> int:
    p, certs = _load_target(args.target)
    b = _bound(args)
    ws = [p.word(t) for t in (args.a, args.b, args.c, args.d)]
    dec = find_refinement(p, *ws, b, certs)
    lines = [f"{p.name}: refine {args.a} + {args.b} = {args.c} + {args.d}: {dec.verdict}"]
    if dec.is_holds:
        (z11, z12), (z21, z22) = dec.witness
        lines.append(f"  [[{z11.format(p.gens)}, {z12.format(p.gens)}],")
        lines.append(f"   [{z21.format(p.gens)}, {z22.format(p.gens)}]]")
    payload = {"monoid": p.name, "decision": _dec_json(dec, lambda w: w.format(p.gens))}
    _emit(args, payload, lines)
    return _exit_code([dec])


def _cmd_check(args) -> int:
    b = _bound(args)
    o = _load_oracle(args.target, b)
    props = [s.strip() for s in args.prop.split(",")] if args.prop else list(lab.PROPERTIES)
    reports = [lab.check_property(o, prop, b, samples=args.samples) for prop in props]
    payload = {
        "monoid": o.name,
        "bound": b._asdict(),
        "reports": [
            {"property": r.property, "decision": _dec_json(r.verdict, o.fmt), "elapsed_s": round(r.elapsed, 3)}
            for r in reports
        ],
    }
    lines = [f"monoid {o.name}, bound {b._asdict()}"] + [r.line() for r in reports]
    _emit(args, payload, lines)
    return _exit_code([r.verdict for r in reports])


_WILD_ARITY = {"eq": 2, "leq": 2, "add": 2, "refine": 4, "q": 1}


def _cmd_wild(args) -> int:
    decs = []
    lines = []
    payload = {"op": args.op}
    terms = [wild.parse_elem(t) for t in args.terms]
    # a 0 term names no generator, so it takes the family of the other terms
    named = [e for e, t in zip(terms, args.terms) if t.strip() not in ("0", "")]
    if len({type(e) for e in named}) > 1:
        raise ValueError("cannot mix ladder and bar terms")
    if named and isinstance(named[0], wild.BarElem):
        terms = [e if isinstance(e, wild.BarElem) else wild.BarElem.zero() for e in terms]
    arity = _WILD_ARITY[args.op]
    if len(terms) != arity:
        raise ValueError(f"wild {args.op} needs {arity} term(s)")

    if args.op == "eq":
        ok = terms[0].equal(terms[1])
        decs.append(Decision.holds() if ok else Decision.fails())
        lines.append(f"{terms[0]} = {terms[1]}: {ok}")
        payload.update(result=ok)
    elif args.op == "leq":
        c = terms[0].leq(terms[1])
        decs.append(Decision.holds(witness=c) if c is not None else Decision.fails())
        lines.append(f"{terms[0]} <= {terms[1]}: {c is not None}" + (f", complement {c}" if c is not None else ""))
        payload.update(result=c is not None, complement=str(c) if c is not None else None)
    elif args.op == "add":
        s = terms[0].add(terms[1])
        decs.append(Decision.holds())
        lines.append(f"{terms[0]} + {terms[1]} = {s}")
        payload.update(result=str(s))
    elif args.op == "refine":
        refine = wild.bar_refine if isinstance(terms[0], wild.BarElem) else wild.ladder_refine
        (z11, z12), (z21, z22) = refine(*terms)
        decs.append(Decision.holds())
        lines += [f"[[{z11}, {z12}],", f" [{z21}, {z22}]]"]
        payload.update(matrix=[[str(z11), str(z12)], [str(z21), str(z22)]])
    else:  # q
        if isinstance(terms[0], wild.BarElem):
            raise ValueError("q maps ladder elements to bar elements")
        img = wild.to_bar(terms[0])
        decs.append(Decision.holds())
        lines.append(f"q({terms[0]}) = {img}")
        payload.update(result=str(img))
    _emit(args, payload, lines)
    return _exit_code(decs)


def _tilde(gf: graphs.GraphFile) -> graphs.GraphFile:
    """The emitter-chain transform of a parsed graph file, as a graph file."""
    if not gf.emitters:
        raise ValueError("graph file has no emitter lines")
    return graphs.GraphFile(graphs.tilde_construction(gf.graph, {v: list(seq) for v, seq in gf.emitters}, gf.depth))


def _cmd_graph_monoid(args) -> int:
    gf = graphs.parse_graph(Path(args.input).read_text())
    if args.tilde:
        gf = _tilde(gf)
    sg = gf.separated()
    if args.triple:
        p = graphs.present_triple(sg, z_cap=args.zcap)
    else:
        p = graphs.present_finitely_separated(sg)
    sys.stdout.write(p.format())
    return 0


def _cmd_tilde(args) -> int:
    gf = _tilde(graphs.parse_graph(Path(args.input).read_text()))
    sys.stdout.write(graphs.format_graph(gf))
    return 0


def _cmd_poset(args) -> int:
    poset = primitive.parse_poset(Path(args.input).read_text())
    sys.stdout.write(primitive.presentation_of(poset).format())
    return 0


def _cmd_wildness(args) -> int:
    b = _bound(args)
    o = _load_oracle(args.target, b)
    rep = lab.wildness_certificate(o, b)
    payload = {"monoid": o.name, "decision": _dec_json(rep.verdict, o.fmt)}
    _emit(args, payload, [rep.line(o.name)])
    return _exit_code([rep.verdict])


def _cmd_suite(args) -> int:
    from . import suite

    manifest = suite.load_manifest(Path(args.manifest).read_text()) if args.manifest else suite.standard_suite()
    report, code = suite.run_suite(manifest)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for case in report["cases"]:
        print(f"{case['status']:8s} {case['name']} (exit {case['exit']}, expected {case['expected']})")
    print(f"suite: {report['passed']}/{report['total']} passed")
    return code


class _Parser(argparse.ArgumentParser):
    """A usage error prints the usage line and raises ValueError, so that
    `main` reports it as an input error; argparse itself would exit 2, the
    Unknown code.  Subparsers are built with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="refmon", description="workbench for finitely presented commutative monoids")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="parse and normalize a presentation (presentation or poset file, or builtin)")
    sp.add_argument("input")
    sp.set_defaults(fn=_cmd_parse)

    for nm, fn, extra in (
        ("eq", _cmd_eq, ("lhs", "rhs")),
        ("leq", _cmd_leq, ("lhs", "rhs")),
        ("refine", _cmd_refine, ("a", "b", "c", "d")),
    ):
        sp = sub.add_parser(nm, help=f"bounded {nm} in a presented monoid")
        sp.add_argument("target", help="presentation or poset file, or builtin (m0, ladder:N, bar:N, e0c0, ec:N, ebar:N)")
        for t in extra:
            sp.add_argument(t)
        _add_bound_flags(sp, coefficients=False)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("check", help="run property checkers over a monoid oracle")
    sp.add_argument("target", help="presentation file or builtin oracle (ladder:N, bar:N, free:N, m0, ...)")
    sp.add_argument("--prop", default="", help="comma-separated property ids (default: all)")
    sp.add_argument("--samples", type=int, default=lab.SAMPLES)
    _add_bound_flags(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("wild", help="exact calculator for the two wild monoids")
    sp.add_argument("op", choices=("eq", "leq", "add", "refine", "q"))
    sp.add_argument("terms", nargs="+", help="element terms, e.g. 'x0 + y0', '3*a3', 'xbar2'")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_wild)

    sp = sub.add_parser("graph-monoid", help="emit the presentation of a graph monoid")
    sp.add_argument("input")
    sp.add_argument("--zcap", type=int, default=3)
    sp.add_argument("--triple", action="store_true", help="use the q_Z triple presentation with S = all classes")
    sp.add_argument("--tilde", action="store_true", help="apply the emitter-chain transformation first")
    sp.set_defaults(fn=_cmd_graph_monoid)

    sp = sub.add_parser("tilde", help="emit the emitter-chain transformed graph")
    sp.add_argument("input")
    sp.set_defaults(fn=_cmd_tilde)

    sp = sub.add_parser("poset", help="emit the presentation of a primitive monoid")
    sp.add_argument("input")
    sp.set_defaults(fn=_cmd_poset)

    sp = sub.add_parser("wildness", help="wildness evidence for a monoid oracle")
    sp.add_argument("target")
    _add_bound_flags(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_wildness)

    sp = sub.add_parser("suite", help="run a manifest of cases (default: built-in standard suite)")
    sp.add_argument("manifest", nargs="?")
    sp.add_argument("--report", help="write a JSON report to this path")
    sp.set_defaults(fn=_cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
