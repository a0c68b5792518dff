"""What the AST tests over ``src/repro`` share: the walk over every
module, dotted attribute chains and import-alias resolution."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterator

import repro

#: The package directory every tree test walks.
ROOT = Path(repro.__file__).resolve().parent


def modules(root: Path = ROOT) -> Iterator[tuple[str, ast.Module]]:
    """``(path, tree)`` for every ``*.py`` under ``root``, in path order.

    ``path`` is POSIX and relative to ``root``'s parent, so walking
    ``src/repro`` yields ``repro/sim/rng.py`` and the like.
    """
    for file in sorted(root.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        yield file.relative_to(root.parent).as_posix(), ast.parse(source, str(file))


def tree_violations(
    violations: Callable[[ast.Module, str], list[tuple[int, str]]],
) -> list[tuple[str, int, str]]:
    """``(path, line, what)`` of each violation a rule finds in ``src/repro``."""
    return [(path, *v) for path, tree in modules() for v in violations(tree, path)]


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain on a name; ``""`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Each name the module's absolute imports bind, mapped to what it
    names: ``import numpy as np`` gives ``np -> numpy``, ``from datetime
    import datetime`` gives ``datetime -> datetime.datetime``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.split(".")[0]
                aliases[a.asname or head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def resolve(name: str, aliases: dict[str, str]) -> str:
    """``name`` with its leading segment expanded through ``aliases``."""
    head, dot, rest = name.partition(".")
    return aliases.get(head, head) + dot + rest
