"""Every name a module of the package or of the tests imports is used there
or exported, every module-level private name of the package or of the tests
is used, every package module's ``__all__`` names exactly what it defines
for the public, every public oracle is used by a test, no handler of the
package catches every exception, and the package holds no ``assert``
statement (``python -O`` strips them, so a check must raise).

pyflakes, ruff and flake8 are not dependencies, so the check reads each
module's syntax tree with the standard library.  ``__init__.py`` re-exports
by design, and ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import nonresultant

PACKAGE = Path(nonresultant.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list:
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_dead_and_live_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(system.argv, pi)\n"
    )
    assert _unused_imports(source) == [(2, "os")]


def _unused_by_module(modules) -> dict:
    assert modules
    return {
        p.name: names
        for p in modules
        if (names := _unused_imports(p.read_text(encoding="utf-8")))
    }


def test_package_modules_import_no_unused_names():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert _unused_by_module(modules) == {}


def test_test_modules_import_no_unused_names():
    assert _unused_by_module(sorted(TESTS.glob("*.py"))) == {}


def _referenced_names(trees) -> set:
    """Names that some syntax tree of `trees` loads, reads as an attribute
    or imports."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def _unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each module-level ``_name`` (a function, class or
    assignment target; dunders excluded) that no module of `sources` loads,
    reads as an attribute or imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = _referenced_names(trees.values())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                (module, name)
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            ]
    return sorted(dead)


def test_private_name_check_sees_dead_and_live_names():
    sources = {
        "a": "_LIMIT = 3\n_dead = 1\n__all__ = []\ndef _helper():\n    return _LIMIT\n",
        "b": "from .a import _helper\nclass _Gone:\n    pass\n",
        "c": "import a\nprint(a._unused_but_read)\n_unused_but_read = 0\n",
    }
    assert _unreferenced_private_names(sources) == [("a", "_dead"), ("b", "_Gone")]


def test_package_private_names_are_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_test_private_names_are_referenced():
    # the oracles' helpers, the float lift among them, are used by a test
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert len(sources) > 1
    assert _unreferenced_private_names(sources) == []


def _unused_oracles(oracle_source: str, test_sources) -> list:
    """Public functions and classes defined in `oracle_source` that no
    source of `test_sources` loads, reads as an attribute or imports."""
    referenced = _referenced_names(ast.parse(source) for source in test_sources)
    return sorted(
        node.name
        for node in ast.parse(oracle_source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )


def test_oracle_check_sees_imported_read_and_unused_oracles():
    oracle_source = (
        "def imported():\n    return helper()\n"
        "def helper():\n    pass\n"
        "def _private():\n    pass\n"
        "class Read:\n    pass\n"
        "LIMIT = 3\n"
    )
    test_sources = ["from oracles import imported\n", "import oracles\nprint(oracles.Read)\n"]
    assert _unused_oracles(oracle_source, test_sources) == ["helper"]


def test_every_oracle_is_used_by_a_test():
    test_sources = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("test_*.py"))]
    test_sources.append((TESTS.parent / "perfbench" / "test_perfbench.py").read_text(encoding="utf-8"))
    assert len(test_sources) > 2
    assert _unused_oracles((TESTS / "oracles.py").read_text(encoding="utf-8"), test_sources) == []


def _export_gaps(source: str) -> tuple:
    """(names in ``__all__`` that the module does not define or import,
    public functions and classes it defines that ``__all__`` leaves out)."""
    exported, defined, public = [], set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Name):
                    defined.add(t.id)
                    if t.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return sorted(set(exported) - defined), sorted(public - set(exported))


def test_export_check_sees_missing_and_unlisted_names():
    source = (
        "from math import pi\n"
        "LIMIT = 3\n"
        "__all__ = ['pi', 'LIMIT', 'gone', 'Shown', 'shown']\n"
        "def shown():\n    pass\n"
        "def unlisted():\n    pass\n"
        "def _private():\n    pass\n"
        "class Shown:\n    def method(self):\n        pass\n"
        "class Hidden:\n    pass\n"
    )
    assert _export_gaps(source) == (["gone"], ["Hidden", "unlisted"])


def test_package_all_lists_exactly_the_public_definitions():
    gaps = {p.name: _export_gaps(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(gaps) > 1
    assert {name: g for name, g in gaps.items() if g != ([], [])} == {}


def _catch_all_handlers(source: str) -> list:
    """Lines of the handlers that catch every exception: a bare ``except:``,
    or one naming Exception or BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")) for t in caught):
                lines.append(node.lineno)
    return lines


def test_catch_all_check_sees_broad_and_narrow_handlers():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException as exc:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, OverflowError):\n    pass\n"
    )
    assert _catch_all_handlers(source) == [3, 7, 11]


def test_package_has_no_catch_all_handlers():
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if (lines := _catch_all_handlers(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def _assert_statements(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_check_sees_assert_statements_only():
    source = (
        "assert x, 'top level'\n"
        "def f(x):\n    assert x > 0\n    return x\n"
        "if not ok:\n    raise ValueError('assert is only a word here')\n"
        "assertion = True\n"
    )
    assert _assert_statements(source) == [1, 3]


def test_package_has_no_assert_statements():
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if (lines := _assert_statements(p.read_text(encoding="utf-8")))
    }
    assert found == {}
