"""Every module in ``src/repro`` declares a literal ``__all__`` that
lists only names it defines and every public top-level def or class,
so package surfaces stay in sync with the code."""

from __future__ import annotations

import ast

import pytest

from .astwalk import tree_violations

pytestmark = pytest.mark.lint

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound(stmt: ast.stmt) -> list[str]:
    """The top-level names one statement binds."""
    if isinstance(stmt, _DEFS):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in stmt.names if a.name != "*"]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return [
            n.id
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    return []


def violations(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """``(line, message)`` of each ``__all__`` fault in one module."""
    bound, public, declared = set(), set(), None
    for stmt in tree.body:
        names = _bound(stmt)
        bound.update(names)
        if isinstance(stmt, _DEFS) and not stmt.name.startswith("_"):
            public.add(stmt.name)
        if "__all__" in names:
            declared = stmt
    if declared is None:
        return [(1, "module has no __all__")]
    value = declared.value
    if not isinstance(value, (ast.List, ast.Tuple)) or not all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts
    ):
        return [(declared.lineno, "__all__ must be a literal list of strings")]
    exported = {e.value for e in value.elts}
    return [
        (declared.lineno, f"__all__ lists {name!r}, which is not defined")
        for name in sorted(exported - bound)
    ] + [
        (declared.lineno, f"public {name!r} missing from __all__")
        for name in sorted(public - exported)
    ]


def faults(source: str, path: str = "repro/util.py") -> list[str]:
    return [message for _, message in violations(ast.parse(source), path)]


# -- positives ---------------------------------------------------------
def test_flags_missing_all():
    [message] = faults("def helper():\n    return 1\n")
    assert "no __all__" in message


def test_flags_unresolvable_export():
    assert any("ghost" in m for m in faults('__all__ = ["ghost"]\n'))


def test_flags_public_def_missing_from_all():
    [message] = faults(
        "def shown():\n    return 1\n\n"
        "def hidden():\n    return 2\n\n"
        '__all__ = ["shown"]\n'
    )
    assert "hidden" in message


def test_flags_computed_all():
    assert any("literal list" in m for m in faults("__all__ = sorted(globals())\n"))


# -- negatives ---------------------------------------------------------
def test_exhaustive_all_is_fine():
    src = (
        "CONST = 3\n\n"
        "def public():\n    return CONST\n\n"
        "def _private():\n    return 0\n\n"
        "class Thing:\n    pass\n\n"
        '__all__ = ["public", "Thing", "CONST"]\n'
    )
    assert faults(src) == []


def test_reexport_of_import_is_fine():
    assert faults('from os.path import join\n\n__all__ = ["join"]\n') == []


def test_constants_need_not_be_exported():
    assert faults("LIMIT = 5\n\n__all__ = []\n") == []


# -- the real tree -----------------------------------------------------
def test_source_tree_exports_are_exhaustive():
    found = tree_violations(violations)
    assert found == [], "modules whose __all__ is missing, stale or incomplete"
