"""CI gate: no process-global memo outlives its run.

A plain AST walk over ``src/repro`` (not a lint rule): every
module-level ``functools.lru_cache`` / ``functools.cache`` must be one
of ``repro.crypto.hashing.RUN_MEMOS``, and every run driver must empty
them in the ``finally`` that closes its simulator.  A new memo that no
driver clears fails here instead of growing a long process run by run
(docs/invariants.md, "No memo outlives its run").
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro
from repro.crypto.hashing import RUN_MEMOS

pytestmark = pytest.mark.lint

ROOT = Path(repro.__file__).resolve().parent
_MEMOS = {"lru_cache", "cache"}

#: The run drivers: (module, function) pairs.
DRIVERS = (
    ("repro.experiments.runner", "run_experiment"),
    ("repro.experiments.shard", "run_sharded"),
    ("repro.experiments.parallel", "run_parallel"),
)


def _memo_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names this module binds to the memo decorators, and to functools."""
    memos, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            memos |= {a.asname or a.name for a in node.names if a.name in _MEMOS}
        elif isinstance(node, ast.Import):
            modules |= {
                a.asname or a.name for a in node.names if a.name == "functools"
            }
    return memos, modules


def _is_memo(node: ast.expr, memos: set[str], modules: set[str]) -> bool:
    """``lru_cache``, ``functools.cache(...)`` and the like."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id in memos
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _MEMOS
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    )


def module_level_memos(root: Path, package: str = "repro") -> set[tuple[str, str]]:
    """``(module, name)`` of every module-level memoized function under
    ``root``: decorated definitions and ``name = lru_cache(...)(f)``."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        memos, modules = _memo_names(tree)
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join((package, *parts)).removesuffix(".__init__")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_memo(d, memos, modules) for d in node.decorator_list):
                    found.add((module, node.name))
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _is_memo(node.value.func, memos, modules)
            ):
                found |= {
                    (module, t.id) for t in node.targets if isinstance(t, ast.Name)
                }
    return found


def test_every_module_level_memo_is_a_run_memo():
    found = module_level_memos(ROOT)
    memos = {
        (module, name): getattr(importlib.import_module(module), name)
        for module, name in found
    }
    strays = sorted(key for key, memo in memos.items() if memo not in RUN_MEMOS)
    assert strays == [], f"module-level memos no run driver clears: {strays}"
    # The walk sees the memos that are registered.
    assert sorted(memos.values(), key=id) == sorted(RUN_MEMOS, key=id)


@pytest.mark.parametrize("module,function", DRIVERS)
def test_every_driver_clears_the_memos_in_its_finally(module, function):
    path = ROOT.joinpath(*module.split(".")[1:]).with_suffix(".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (driver,) = [
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    cleared = [
        call
        for node in ast.walk(driver)
        if isinstance(node, ast.Try)
        for stmt in node.finalbody
        for call in ast.walk(stmt)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "clear_digest_memos"
    ]
    assert cleared, f"{module}.{function} does not clear the digest memos"


def test_the_walk_finds_every_spelling(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "import functools as ft\n"
        "from functools import cache as c, lru_cache\n"
        "@ft.lru_cache(maxsize=8)\ndef a(x): return x\n"
        "@c\ndef b(x): return x\n"
        "@lru_cache\ndef d(x): return x\n"
        "e = ft.cache(len)\n"
        "def plain(x):\n"
        "    @lru_cache\n"
        "    def inner(y): return y\n"
        "    return inner\n"
    )
    (tmp_path / "pkg" / "mod.py").write_text(
        "cache = {}\ndef cache_user(): return cache\n"
    )
    assert module_level_memos(tmp_path / "pkg", "pkg") == {
        ("pkg", "a"), ("pkg", "b"), ("pkg", "d"), ("pkg", "e"),
    }
