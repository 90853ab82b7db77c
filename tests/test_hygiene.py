"""Hygiene: every module of the package, the tests and the scripts uses
every name it imports and catches only errors it names (no bare
``except:``, ``Exception`` or ``BaseException``), every module of the
package reads every private name it defines at top level, and every name
the package exports or a package module defines publicly at top level,
and every public method or property of a top-level class, is read by the
package, a script, the benchmark or the acceptance suite
(``tests/test_acceptance.py``); a name only unit tests read lives in the
tests.
Five scans keep one path per job in the package: only ``sweep.decide``
calls a decider outside ``solver.py``, only ``solver.reduce_candidates``
builds a ``Ranked`` form, only ``formula.py`` builds a ``Literal``
without its constructor (by ``tuple.__new__``) or calls the constructor,
and no module calls ``open`` twice with one mode.  A sixth keeps the
certificate checks total: they raise nothing but ``WrongArity``, and both
read the one link rule ``_linked``.  A seventh keeps ``import rsat`` from
growing: the modules the package imports at module level must be the
recorded set.

A stdlib-only stand-in for a linter's unused-import, broad-except and
dead-code rules.  The package's ``__init__.py`` is left out of the import
scan because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import rsat

PACKAGE = Path(rsat.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


READERS = [p for tree in ("src", "scripts", "bench")
           for p in sorted((ROOT / tree).rglob("*.py")) if p != PACKAGE / "__init__.py"]
READERS.append(ROOT / "tests" / "test_acceptance.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def top_level_names(tree: ast.Module):
    """(name, line) of every function, class and assigned name at the top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name, node.lineno


def public_methods(tree: ast.Module):
    """(class.name, name, line) of every public method and property of a
    top-level class; private names and dunders are left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def unused_private_names(source: str) -> list[str]:
    """Top-level private names (``_x``, not dunders) that the module never reads."""
    tree = ast.parse(source)
    defined = {name: line for name, line in top_level_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom typing import Optional\nx: Optional[int]\n") == [
        "line 1: math"
    ]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_private_helper():
    source = (
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _unused():\n    return _LIMIT + _a\n"
        "def _used():\n    return 1\n"
        "class _Dead:\n    pass\n"
        "def public():\n    return _used()\n"
    )
    assert unused_private_names(source) == ["line 2: _b", "line 4: _unused", "line 8: _Dead"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[str]:
    """Handlers that catch every error: bare ``except:``, or one naming
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"line {node.lineno}: except")
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(isinstance(c, ast.Name) and c.id in BROAD for c in caught):
            found.append(f"line {node.lineno}: except {ast.unparse(node.type)}")
    return found


def test_scan_finds_a_broad_handler():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception as exc:\n    pass\n"
        "try:\n    pass\nexcept (OSError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
    )
    assert broad_handlers(source) == [
        "line 3: except", "line 7: except Exception", "line 11: except (OSError, BaseException)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_catches_no_broad_exception(path):
    assert broad_handlers(path.read_text(encoding="utf-8")) == []


def names_read(source: str) -> set[str]:
    """Names the source reads, bare or as an attribute, outside the function
    or class that defines them."""
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return read


def test_scan_finds_an_unread_name():
    source = "import rsat\nA = B\ndef f():\n    return f()\nclass C:\n    me = C\nrsat.g(A)\n"
    assert names_read(source) == {"B", "rsat", "g", "A"}


def read_anywhere() -> set[str]:
    return set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))


def test_every_export_is_read():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = read_anywhere()
    assert [name for name in exported if name not in read] == []


def test_every_public_name_is_read():
    read = read_anywhere()
    dead = [f"{path.name} line {line}: {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name, line in top_level_names(ast.parse(path.read_text(encoding="utf-8")))
            if not name.startswith("_") and name not in read]
    assert dead == []


def test_scan_lists_public_methods():
    source = (
        "class A:\n    x: int\n    def run(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def _helper(self):\n        pass\n    def __repr__(self):\n        return ''\n"
        "def top():\n    pass\n"
    )
    assert list(public_methods(ast.parse(source))) == [("A.run", "run", 3), ("A.size", "size", 6)]


def test_every_public_method_is_read():
    read = read_anywhere()
    dead = [f"{path.name} line {line}: {qualified}" for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name, line in public_methods(ast.parse(path.read_text(encoding="utf-8")))
            if name not in read]
    assert dead == []


DECIDER_NAMES = {"solve_2rsat_scc", "solve_complete"}


def call_name(node: ast.Call):
    """The called name, bare or as an attribute, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_of(source: str, names) -> list[str]:
    """Calls of ``names``, each with the top-level definition it sits in."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        found += [(node.lineno, f"{call_name(node)} in {owner}") for node in ast.walk(top)
                  if isinstance(node, ast.Call) and call_name(node) in names]
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_scan_finds_decider_calls():
    source = (
        "from rsat import solver\n"
        "def decide(f):\n    return solve_complete(f)\n"
        "class C:\n    def m(self, f):\n        return solver.solve_2rsat_scc(f)\n"
        "x = solve_complete(None) or solve_2rsat_scc(None)\n"
        "alias = solve_complete\n"
    )
    assert calls_of(source, DECIDER_NAMES) == [
        "line 3: solve_complete in decide", "line 6: solve_2rsat_scc in C",
        "line 7: solve_2rsat_scc in <module>", "line 7: solve_complete in <module>",
    ]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "solver.py"),
                         ids=lambda p: p.name)
def test_only_sweep_decide_calls_a_decider(path):
    calls = calls_of(path.read_text(encoding="utf-8"), DECIDER_NAMES)
    if path.name == "sweep.py":
        inside = [call for call in calls if call.endswith(" in decide")]
        assert len(inside) == 2  # the scan sees the one rule's two calls
        calls = [call for call in calls if call not in inside]
    assert calls == []


def test_scan_finds_a_second_ranked_form():
    source = (
        "def reduce_candidates(c):\n    return Ranked(c.k)\n"
        "def rank_all(c):\n    return solver.Ranked(c.k, c.n)\n"
        "ALIAS = Ranked\n"
    )
    assert calls_of(source, {"Ranked"}) == [
        "line 2: Ranked in reduce_candidates", "line 4: Ranked in rank_all",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_reduce_candidates_builds_a_ranked_form(path):
    calls = calls_of(path.read_text(encoding="utf-8"), {"Ranked"})
    if path.name == "solver.py":
        inside = [call for call in calls if call.endswith(" in reduce_candidates")]
        assert len(inside) == 1  # the scan sees the one construction
        calls = [call for call in calls if call not in inside]
    assert calls == []


def tuple_news(source: str) -> list[str]:
    """Reads of ``tuple.__new__``, each with the top-level definition it sits in."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        found += [(node.lineno, f"tuple.__new__ in {owner}") for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and isinstance(node.value, ast.Name) and node.value.id == "tuple"]
    return [f"line {line}: {read}" for line, read in sorted(found)]


def test_scan_finds_a_literal_built_without_its_constructor():
    source = (
        "def build(rows):\n    return [tuple.__new__(Literal, row) for row in rows]\n"
        "BUILT = list(map(tuple.__new__, repeat(Literal), ROWS))\n"
        "class Lit(tuple):\n    def __new__(cls, *fields):\n"
        "        return tuple.__new__(cls, fields)\n"
    )
    assert tuple_news(source) == [
        "line 2: tuple.__new__ in build", "line 3: tuple.__new__ in <module>",
        "line 6: tuple.__new__ in Lit",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_formula_builds_a_literal_without_its_constructor(path):
    found = tuple_news(path.read_text(encoding="utf-8"))
    if path.name == "formula.py":  # the constructor and the one bulk builder
        assert [read.split(" in ")[1] for read in found] == ["Literal", "literals"]
        found = []
    assert found == []


def test_scan_finds_a_literal_constructor_call():
    source = (
        "def literal_from_token(t, rel, bound):\n    return Literal(int(t), rel, bound)\n"
        "HALF = formula.Literal(1, Rel.LE, F(1, 2))\n"
        "make = Literal\n"
    )
    assert calls_of(source, {"Literal"}) == [
        "line 2: Literal in literal_from_token", "line 3: Literal in <module>",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_formula_calls_the_literal_constructor(path):
    # a file's tokens become literals only through the bulk builder
    calls = calls_of(path.read_text(encoding="utf-8"), {"Literal"})
    if path.name == "formula.py":  # the bulk builder's path for input it leaves to the checks
        assert [call.split(" in ")[1] for call in calls] == ["literals"]
        calls = []
    assert calls == []


def raises_in(source: str, names) -> list[str]:
    """The errors that the top-level definitions ``names`` raise, each with
    the definition it sits in; a bare ``raise`` shows as ``?``."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in names:
            found += [(node.lineno, f"{error_name(node.exc)} in {top.name}")
                      for node in ast.walk(top) if isinstance(node, ast.Raise)]
    return [f"line {line}: {error}" for line, error in sorted(found)]


def error_name(exc) -> str:
    """The error a ``raise`` names, called or bare; ``?`` when it re-raises."""
    if exc is None:
        return "?"
    return (call_name(exc) if isinstance(exc, ast.Call) else None) or ast.unparse(exc)


VERDICT_RULE = {"verify_bicycle", "verify_snake", "_linked", "_clauses_match"}


def test_scan_finds_a_raise_in_a_check():
    source = (
        "def _clauses_match(f, cert):\n    if f.k != 2:\n        raise WrongArity('k')\n"
        "def verify_snake(f, cert):\n    if cert.ell < 6:\n        raise errors.OddLength()\n"
        "    try:\n        pass\n    except KeyError:\n        raise\n"
        "def _linked(pairs):\n    raise ValueError\n"
        "def find_snake(f):\n    raise InvalidConfig('budget')\n"
    )
    assert raises_in(source, VERDICT_RULE) == [
        "line 3: WrongArity in _clauses_match", "line 6: OddLength in verify_snake",
        "line 10: ? in verify_snake", "line 12: ValueError in _linked",
    ]


def test_a_certificate_check_returns_a_verdict():
    # for any chain that can be built the checks answer True or False; only
    # a formula of another width is an error, and both read the one link rule
    source = (PACKAGE / "certificates.py").read_text(encoding="utf-8")
    defined = {name for name, _ in top_level_names(ast.parse(source))}
    assert VERDICT_RULE <= defined
    raised = raises_in(source, VERDICT_RULE)
    assert len(raised) == 1 and raised[0].endswith(": WrongArity in _clauses_match")
    linked = [call.split(": ", 1)[1] for call in calls_of(source, {"_linked"})]
    assert linked == ["_linked in verify_bicycle", "_linked in verify_snake"]


def repeated_open_modes(source: str) -> list[str]:
    """Modes the module passes to more than one call of the builtin ``open``,
    with the lines of those calls; a call without a mode opens ``"r"``."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            given = node.args[1:2] or [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = ast.unparse(given[0]) if given else "'r'"
            lines.setdefault(mode, []).append(node.lineno)
    return [f"mode {mode}: lines {', '.join(map(str, sorted(found)))}"
            for mode, found in sorted(lines.items()) if len(found) > 1]


def test_scan_finds_a_mode_opened_twice():
    source = (
        "a = open('a')\nb = open('b', 'r')\nc = open('c', mode='w')\n"
        "d = open('d', 'w', encoding='utf-8')\ne = open('e', 'rb')\nf = path.open('w')\n"
    )
    assert repeated_open_modes(source) == ["mode 'r': lines 1, 2", "mode 'w': lines 3, 4"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_opens_each_mode_once(path):
    assert repeated_open_modes(path.read_text(encoding="utf-8")) == []


def module_level_imports(source: str, package: str = "rsat") -> set[str]:
    """Modules a module imports when it is itself imported: every import
    outside a function body, relative ones named inside ``package``."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # runs only when called
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                found.add(node.module)
            elif node.module:
                found.add(f"{package}.{node.module}")
            else:
                found.update(f"{package}.{alias.name}" for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_scan_finds_an_added_import():
    source = (
        "import json\nfrom .solver import compile_slots\nfrom . import analytics\n"
        "def run_sweep():\n    from concurrent.futures import ProcessPoolExecutor\n"
        "    return ProcessPoolExecutor\n"
        "class C:\n    import decimal\n"
        "try:\n    import os.path\nexcept ImportError:\n    pass\n"
    )
    assert module_level_imports(source) == {
        "json", "rsat.solver", "rsat.analytics", "decimal", "os.path"
    }


# what ``import rsat`` loads from the package's own imports; the pool's
# ``concurrent.futures`` is imported inside ``run_sweep``, when a sweep
# asks for workers
PACKAGE_IMPORTS = {
    "__future__", "argparse", "array", "collections", "dataclasses", "enum", "fractions",
    "functools", "itertools", "math", "operator", "os", "re", "statistics", "sys", "typing",
    *(f"rsat.{name}" for name in ("analytics", "certificates", "cli", "errors", "fileformat",
                                  "formula", "rng", "sampler", "solver", "sweep")),
}


def test_package_imports_nothing_new_at_import_time():
    found = set().union(*(module_level_imports(path.read_text(encoding="utf-8"))
                          for path in PACKAGE.glob("*.py")))
    assert sorted(found - PACKAGE_IMPORTS) == []  # a new import costs every `import rsat`
    assert sorted(PACKAGE_IMPORTS - found) == []  # the record lists only what is imported
