"""Lint guard for the package sources, with the standard library's `ast` only."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "refmon").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    """Names listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)
    assert not unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fstring_without_placeholder(path):
    tree = _tree(path)
    # the format spec of `{x:8s}` is a nested JoinedStr with no placeholder
    specs = {
        id(n.format_spec) for n in ast.walk(tree) if isinstance(n, ast.FormattedValue) and n.format_spec
    }
    bare = [
        f"{path.name}:{n.lineno}"
        for n in ast.walk(tree)
        if isinstance(n, ast.JoinedStr)
        and id(n) not in specs
        and not any(isinstance(v, ast.FormattedValue) for v in n.values)
    ]
    assert not bare


def test_no_unreferenced_private_definitions():
    """Every module-level `_name` function or class is referenced somewhere in
    the package outside its own body, by name or as a module attribute."""
    statements = [(path, node) for path in SOURCES for node in _tree(path).body]
    names = {}
    for _, node in statements:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.setdefault(n.id, set()).add(id(node))
            elif isinstance(n, ast.Attribute):
                names.setdefault(n.attr, set()).add(id(node))
    dead = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not names.get(node.name, set()) - {id(node)}
    )
    assert not dead


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    """No function assigns a local name that nothing in it reads.  Targets of
    tuple unpacking and names starting with `_` are exempt."""
    found = set()
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(fn))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for n in nodes:
            if isinstance(n, ast.Assign):
                targets = n.targets
            elif isinstance(n, (ast.AnnAssign, ast.NamedExpr)) and n.value is not None:
                targets = [n.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in read:
                    found.add(f"{path.name}:{t.lineno} {t.id}")
    unread = sorted(found)
    assert not unread


def test_no_unreferenced_public_definitions():
    """Every public module-level function or class, and every public method,
    is named somewhere in src, tests or perfbench outside its own
    definition: by name, as an attribute, in an import, or as a string (for
    getattr and `__all__`)."""
    trees = {path: _tree(path) for d in ("src", "tests", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))}
    seen = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            elif isinstance(n, ast.alias):
                name = n.name
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                name = n.value
            else:
                continue
            seen.setdefault(name, []).append(id(n))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for path in SOURCES:
        for top in trees[path].body:
            inner = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top] + [n for n in inner if isinstance(n, kinds)]:
                if not isinstance(node, kinds) or node.name.startswith("_"):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if all(i in own for i in seen.get(node.name, [])):
                    dead.append(f"{path.name} {node.name}")
    assert not dead


def _named(tree):
    """Every name the tree uses: by name, as an attribute or in an import."""
    return {
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_lab_api_is_reached_outside_the_tests():
    """Every public module-level function of lab.py and oracles.py is named
    in another module of the package or under perfbench, so that no lab
    function is called by tests alone.  o_ideal_closure and quotient_equal
    are exempt: acceptance criteria 12 and 13 compare the exact quotients
    against them as independent references."""
    exempt = {"o_ideal_closure", "quotient_equal"}
    for module in ("lab.py", "oracles.py"):
        others = [p for p in SOURCES if p.name != module] + sorted((ROOT / "perfbench").rglob("*.py"))
        reached = set().union(*(_named(_tree(p)) for p in others))
        public = [
            n.name
            for n in _tree(ROOT / "src" / "refmon" / module).body
            if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
        ]
        unreached = [f"{module} {name}" for name in public if name not in reached | exempt]
        assert not unreached


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raise_system_exit(path):
    """Commands report input errors as ValueError or OSError, which `cli.main`
    turns into exit 3 and an `error:` line; a SystemExit carrying a message
    would abort a whole `refmon suite` run instead."""
    raised = [
        f"{path.name}:{n.lineno}"
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.Raise)
        and n.exc is not None
        and any(isinstance(c, ast.Name) and c.id == "SystemExit" for c in ast.walk(n.exc))
    ]
    assert not raised


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    """Every absolute import names a standard-library module: the runtime
    stays stdlib-only."""
    imported = []
    for n in ast.walk(_tree(path)):
        if isinstance(n, ast.Import):
            imported += [(n.lineno, alias.name) for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            imported.append((n.lineno, n.module))
    foreign = [
        f"{path.name}:{line} {name}" for line, name in imported if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_except_assertion_error(path):
    """A refinement or decomposition that does not verify raises
    AssertionError: that is a bug, and catching it would report a verdict
    with no checkable counterexample."""
    caught = [
        f"{path.name}:{n.lineno}"
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.ExceptHandler)
        and n.type is not None
        and any(isinstance(c, ast.Name) and c.id == "AssertionError" for c in ast.walk(n.type))
    ]
    assert not caught


def _scoped(node, scope=""):
    """(scope, node) for every node under `node`, with scope the dotted path
    of the classes and functions that enclose it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield scope, child
        yield from _scoped(child, inner)


def test_only_the_canonicalizers_build_exact_elements():
    """In wild.py, the raw tuple builders `_new`, `_ladder_elem` and `_bar_elem`
    are named only in the canonicalizers `_ladder` and `_bar`, in the two
    constructors and in the builders' own definitions.  Equality of exact
    elements is `==`, which is monoid equality only on canonical forms, so a
    kernel that built its tuple directly could return a raw one that `==`
    misjudges."""
    builders = {"_new", "_ladder_elem", "_bar_elem"}
    allowed = {"_ladder", "_bar", "_ladder_elem", "_bar_elem", "LadderElem.__new__", "BarElem.__new__"}
    tree = _tree(ROOT / "src" / "refmon" / "wild.py")
    named = [
        (scope, n)
        for scope, n in _scoped(tree)
        if (getattr(n, "id", None) or getattr(n, "attr", None)) in builders
        # the module-level assignment that defines `_new`
        and not (scope == "" and isinstance(getattr(n, "ctx", None), ast.Store))
    ]
    assert named, "the builders are gone; update this test"
    outside = [f"wild.py:{n.lineno} in {scope or 'module'}" for scope, n in named if scope not in allowed]
    assert not outside


_RE_FUNCTIONS = {"compile", "match", "search", "fullmatch", "findall", "finditer", "sub", "split"}


def _patterns_built_per_call(tree):
    """Lines of `re.<fn>(<literal pattern>, ...)` calls inside a function:
    each call looks its pattern up in `re`'s cache again."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for n in ast.walk(fn):
            if not (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "re"
                and n.func.attr in _RE_FUNCTIONS
            ):
                continue
            patterns = n.args[:1] + [k.value for k in n.keywords if k.arg == "pattern"]
            if any(isinstance(p, (ast.Constant, ast.JoinedStr)) for p in patterns):
                lines.add(n.lineno)
    return sorted(lines)


def test_per_call_pattern_lint_flags_a_literal_in_a_function():
    source = (
        "import re\n"
        "_OK = re.compile(r'^x$')\n"
        "def parse(chunk, pat):\n"
        "    re.match(pat, chunk)\n"
        "    return re.match(r'^(\\d+)\\s+(\\S+)$', chunk) or re.split(pattern='a', string=chunk)\n"
    )
    assert _patterns_built_per_call(ast.parse(source)) == [5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_patterns_compiled_at_module_level(path):
    """A regular expression with a literal pattern is compiled once, into a
    module-level name, rather than passed to `re` on every call."""
    per_call = [f"{path.name}:{line}" for line in _patterns_built_per_call(_tree(path))]
    assert not per_call


def _outside(trees, owners, flagged):
    """The nodes of `trees`, (file name, tree) pairs, that `flagged` accepts
    outside `owners`, (file name, scope) pairs, as `file:line in scope`; and
    the set of owners that have one."""
    elsewhere, owned = [], set()
    for name, tree in trees:
        for scope, n in _scoped(tree):
            if flagged(n):
                if (name, scope) in owners:
                    owned.add((name, scope))
                else:
                    elsewhere.append(f"{name}:{n.lineno} in {scope or 'module'}")
    return elsewhere, owned


def _only_in(owners, flagged):
    """Asserts that the nodes of the package sources that `flagged` accepts
    are all in `owners`, a set of (file name, scope) pairs, listing the
    others; and that each owner has one, so the lint cannot pass
    vacuously."""
    elsewhere, owned = _outside([(path.name, _tree(path)) for path in SOURCES], owners, flagged)
    assert not elsewhere
    assert owned == owners, f"{owners - owned} no longer do this job; update this test"


def _strips_comment(n):
    return (
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("split", "rsplit", "partition", "rpartition")
        and n.args[:1] != []
        and isinstance(n.args[0], ast.Constant)
        and n.args[0].value == "#"
    )


def test_only_directives_strip_comments():
    """The line-oriented file formats (presentations, posets, graphs) read
    their lines through `words.directives`, the one place that strips `#`
    comments and counts line numbers."""
    _only_in({("words.py", "directives")}, _strips_comment)


def _raises_unverified(n):
    return (
        isinstance(n, ast.Raise)
        and n.exc is not None
        and any(isinstance(c, ast.Constant) and "does not verify" in str(c.value) for c in ast.walk(n.exc))
    )


def test_only_checked_refinement_verifies_matrices():
    """The exact calculators verify their refinement matrices through
    `words.checked_refinement`, the one place that raises "does not verify"."""
    _only_in({("words.py", "checked_refinement")}, _raises_unverified)


def _writes_summand(n):
    """An f-string of exactly a placeholder, the constant `*` and a
    placeholder: the `k*name` summand of the term syntax."""
    return (
        isinstance(n, ast.JoinedStr)
        and len(n.values) == 3
        and isinstance(n.values[0], ast.FormattedValue)
        and isinstance(n.values[1], ast.Constant)
        and n.values[1].value == "*"
        and isinstance(n.values[2], ast.FormattedValue)
    )


def test_summand_lint_flags_a_printer_of_its_own():
    source = (
        "def fmt(pairs):\n"
        "    return ' + '.join(f'{c}*{p}' for p, c in pairs)\n"
        "def other(c, p):\n"
        "    return f'{c} * {p}', f'{c}*{p}!', f'({c}*{p})'\n"
    )
    assert [n.lineno for n in ast.walk(ast.parse(source)) if _writes_summand(n)] == [2]


def test_only_format_term_writes_summands():
    """Words, primitive elements and ladder and bar elements print through
    `words.format_term`, the one place that writes a `k*name` summand, so
    every printed term is one that `parse_term` reads back."""
    _only_in({("words.py", "format_term")}, _writes_summand)


def _shifts(n):
    """A bit shift, `<<` or `>>`, as an operator or an augmented assignment."""
    return isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, (ast.LShift, ast.RShift))


_CODECS = {("rewrite.py", "_encode"), ("rewrite.py", "_decode")}


def test_codec_lint_flags_a_second_decoder():
    source = (
        "def _encode(w, width):\n"
        "    return sum(e << width * i for i, e in w.exps)\n"
        "def _decode(code, width):\n"
        "    return [code >> width * i & ((1 << width) - 1) for i in range(3)]\n"
        "def _unpack(code, width):\n"
        "    out = []\n"
        "    while code:\n"
        "        out.append(code % 8)\n"
        "        code >>= width\n"
        "    return out\n"
        "def scaled(x):\n"
        "    return x * 2, x ** 2, x // 2, x & 1\n"
    )
    assert _outside([("rewrite.py", ast.parse(source))], _CODECS, _shifts) == (["rewrite.py:9 in _unpack"], _CODECS)


def test_only_the_codec_converts_packed_words():
    """Class enumeration runs on packed codes, one digit per generator below
    a guard bit.  `rewrite._encode` and `rewrite._decode`, the only code that
    shifts bits, are the one encoder and the one decoder between codes and
    Words, so the digit layout is written in one place."""
    _only_in(_CODECS, _shifts)


def _builds_decision(n):
    """A call that makes a Decision tuple: the constructor, by name or as a
    module attribute, `Decision._make`, or a `__new__` handed Decision."""
    if not isinstance(n, ast.Call):
        return False
    name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
    if name == "Decision":
        return True
    if name == "_make":
        return getattr(n.func.value, "id", None) == "Decision"
    return name in ("_new", "__new__") and n.args[:1] != [] and getattr(n.args[0], "id", None) == "Decision"


def test_decision_lint_flags_a_constructor_call():
    source = (
        "from refmon import decisions\n"
        "from refmon.decisions import Decision\n"
        "def bare(b):\n"
        "    return Decision('unknown', bound=b)\n"
        "def other():\n"
        "    return decisions.Decision('holds'), Decision.holds(), decisions.Decision.unknown()\n"
        "def raw(b):\n"
        "    return tuple.__new__(Decision, ('unknown', None, None, b, '')), Decision._make(('holds',) * 5)\n"
        "def unrelated(x):\n"
        "    return tuple.__new__(tuple, x), x._make(x), Decision.unknown(x)\n"
    )
    assert [n.lineno for n in ast.walk(ast.parse(source)) if _builds_decision(n)] == [4, 6, 8, 8]


def test_only_decisions_builds_decisions():
    """Verdicts are made through `Decision.holds`, `fails` and `unknown`, the
    one place that calls the constructor, so a bare verdict is always the
    shared instance those return."""
    built = {path.name: [n.lineno for n in ast.walk(_tree(path)) if _builds_decision(n)] for path in SOURCES}
    elsewhere = sorted(f"{name}:{line}" for name, lines in built.items() if name != "decisions.py" for line in lines)
    assert not elsewhere
    assert built["decisions.py"], "decisions.py no longer builds verdicts; update this test"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    """The package's records are tuple subclasses (or, for MonoidOracle, a
    plain class): importing `dataclasses` and running its decorators costs
    every refmon process start-up time, and generates code at each import."""
    imported = [
        f"{path.name}:{n.lineno}"
        for n in ast.walk(_tree(path))
        if (isinstance(n, ast.Import) and any(a.name == "dataclasses" for a in n.names))
        or (isinstance(n, ast.ImportFrom) and n.module == "dataclasses")
    ]
    assert not imported


def test_commands_load_neither_dataclasses_nor_inspect():
    """Importing the command modules loads no `dataclasses`, and with it no
    `inspect` (which pulls in `ast`, `dis` and `tokenize`)."""
    probe = "import sys, refmon.cli, refmon.lab, refmon.suite; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-s", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _certificate_reasons(tree):
    """The reasons in oracles.py's certificate tables: each module-level
    string constant, the reason of each module-level dict.fromkeys(ids,
    reason), and each string value of a dict literal passed as `certified=`."""
    reasons = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            v = node.value
            if isinstance(v, ast.Call) and getattr(v.func, "attr", None) == "fromkeys":
                v = v.args[-1]
            if isinstance(v, ast.Constant) and isinstance(v.value, str):
                reasons.append(v.value)
    for kw in ast.walk(tree):
        if isinstance(kw, ast.keyword) and kw.arg == "certified":
            for d in ast.walk(kw.value):
                if isinstance(d, ast.Dict):
                    reasons += [v.value for v in d.values if isinstance(v, ast.Constant) and isinstance(v.value, str)]
    return reasons


def _undocumented_reasons(oracles_tree, lab_tree):
    """The certificate reasons that lab.py's "Certificates" paragraph does not
    quote verbatim (line breaks read as spaces)."""
    paragraphs = ast.get_docstring(lab_tree).split("\n\n")
    (certificates,) = [p for p in paragraphs if p.startswith("Certificates.")]
    text = " ".join(certificates.split())
    return [r for r in _certificate_reasons(oracles_tree) if f'"{r}"' not in text]


def test_certificate_lint_flags_an_undocumented_reason():
    lab_source = '"""Intro.\n\nCertificates.  "known\n certificate": its proof.\n"""\n'
    oracles_source = (
        '_KNOWN = "known certificate"\n'
        '_NEW = dict.fromkeys(("conical",), "new certificate")\n'
        'o = _exact(certified={"archimedean": "inline certificate", **_NEW})\n'
    )
    got = _undocumented_reasons(ast.parse(oracles_source), ast.parse(lab_source))
    assert got == ["new certificate", "inline certificate"]


def test_every_certificate_reason_is_documented():
    """Every reason an oracle may give for a certified property is quoted in
    lab.py's "Certificates" paragraph, which states its proof."""
    oracles_tree, lab_tree = _tree(ROOT / "src" / "refmon" / "oracles.py"), _tree(ROOT / "src" / "refmon" / "lab.py")
    assert len(_certificate_reasons(oracles_tree)) >= 6, "the certificate tables moved; update this test"
    assert not _undocumented_reasons(oracles_tree, lab_tree)


def _capabilities(oracles_tree):
    """The optional capabilities of MonoidOracle: its constructor's
    parameters with a default."""
    (init,) = [
        f
        for c in oracles_tree.body
        if isinstance(c, ast.ClassDef) and c.name == "MonoidOracle"
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__"
    ]
    args = init.args.args
    return {a.arg for a in args[len(args) - len(init.args.defaults):]}


def _undocumented_capabilities(oracles_tree, lab_tree):
    """The capabilities that lab.py reads as an attribute but its module
    docstring does not quote in backticks, in source order."""
    doc = ast.get_docstring(lab_tree)
    capabilities = _capabilities(oracles_tree)
    read = [n.attr for n in ast.walk(lab_tree) if isinstance(n, ast.Attribute) and n.attr in capabilities]
    return [c for c in dict.fromkeys(read) if f"`{c}`" not in doc]


def test_capability_lint_flags_an_undocumented_capability():
    oracles_source = (
        "class MonoidOracle:\n"
        "    def __init__(self, name, add, invariants=None, shiny=None):\n"
        "        pass\n"
    )
    lab_source = '"""An oracle\'s `invariants`, and `add`."""\nf = lambda o: (o.add, o.shiny, o.invariants, o.name)\n'
    assert _undocumented_capabilities(ast.parse(oracles_source), ast.parse(lab_source)) == ["shiny"]


def test_every_capability_the_lab_reads_is_documented():
    """Every optional capability of MonoidOracle that lab.py reads is quoted
    in lab.py's module docstring, which says what the lab does with it."""
    oracles_tree, lab_tree = _tree(ROOT / "src" / "refmon" / "oracles.py"), _tree(ROOT / "src" / "refmon" / "lab.py")
    read = {n.attr for n in ast.walk(lab_tree) if isinstance(n, ast.Attribute)}
    assert {"cancellable", "certified", "generators"} <= _capabilities(oracles_tree) & read
    assert not _undocumented_capabilities(oracles_tree, lab_tree)
