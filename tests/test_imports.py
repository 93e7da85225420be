"""Every name a module of the package or of the tests imports is used there
or exported.

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
