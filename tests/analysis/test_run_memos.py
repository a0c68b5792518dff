"""CI gate: no process-global memo outlives its run.

An AST walk over ``src/repro`` (``astwalk.modules``): every
module-level ``functools.lru_cache`` / ``functools.cache`` must be one
of ``repro.crypto.hashing.RUN_MEMOS``, the run scope that builds every
run must empty them in the ``finally`` that closes its simulator, and
every run driver must build its run in that scope.  A new memo that no
run clears fails here instead of growing a long process run by run
(docs/invariants.md, "No memo outlives its run").
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.crypto.hashing import RUN_MEMOS

from .astwalk import ROOT, dotted, import_aliases, modules, resolve

pytestmark = pytest.mark.lint

_MEMOS = {"functools.lru_cache", "functools.cache"}

#: The run drivers, (module, function) pairs: each builds and frees its
#: run in ``repro.experiments.runner._run_scope``.
DRIVERS = (
    ("repro.experiments.runner", "run_experiment"),
    ("repro.experiments.shard", "run_sharded"),
    ("repro.experiments.parallel", "run_parallel"),
)


def _is_memo(node: ast.expr, aliases: dict[str, str]) -> bool:
    """``lru_cache``, ``functools.cache(...)`` and the like."""
    if isinstance(node, ast.Call):
        node = node.func
    return resolve(dotted(node), aliases) in _MEMOS


def module_level_memos(root: Path = ROOT) -> set[tuple[str, str]]:
    """``(module, name)`` of every module-level memoized function in the
    package at ``root``: decorated definitions and
    ``name = lru_cache(...)(f)``."""
    found = set()
    for path, tree in modules(root):
        aliases = import_aliases(tree)
        module = path.removesuffix(".py").replace("/", ".").removesuffix(".__init__")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_memo(d, aliases) for d in node.decorator_list):
                    found.add((module, node.name))
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _is_memo(node.value.func, aliases)
            ):
                found |= {
                    (module, t.id) for t in node.targets if isinstance(t, ast.Name)
                }
    return found


def test_every_module_level_memo_is_a_run_memo():
    found = module_level_memos()
    memos = {
        (module, name): getattr(importlib.import_module(module), name)
        for module, name in found
    }
    strays = sorted(key for key, memo in memos.items() if memo not in RUN_MEMOS)
    assert strays == [], f"module-level memos no run driver clears: {strays}"
    # The walk sees the memos that are registered.
    assert sorted(memos.values(), key=id) == sorted(RUN_MEMOS, key=id)


def _function(module: str, name: str) -> ast.FunctionDef:
    path = ROOT.joinpath(*module.split(".")[1:]).with_suffix(".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (found,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    return found


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == name
    ]


def test_the_run_scope_clears_the_memos_in_its_finally():
    scope = _function("repro.experiments.runner", "_run_scope")
    cleared = [
        call
        for node in ast.walk(scope)
        if isinstance(node, ast.Try)
        for stmt in node.finalbody
        for call in _calls(stmt, "clear_digest_memos")
    ]
    assert cleared, "the run scope does not clear the digest memos"


@pytest.mark.parametrize("module,function", DRIVERS, ids=[f for _, f in DRIVERS])
def test_every_driver_goes_through_the_run_scope(module, function):
    driver = _function(module, function)
    scoped = [
        item
        for node in ast.walk(driver)
        if isinstance(node, ast.With)
        for item in node.items
        if _calls(item.context_expr, "_run_scope")
    ]
    assert scoped, f"{module}.{function} builds its run outside the run scope"
    assert not _calls(driver, "Simulator"), f"{module}.{function} builds a simulator"


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
    assert module_level_memos(tmp_path / "pkg") == {
        ("pkg", "a"), ("pkg", "b"), ("pkg", "d"), ("pkg", "e"),
    }
