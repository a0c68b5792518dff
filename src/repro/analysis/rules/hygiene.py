"""Hygiene rule: ``__all__`` discipline.

:class:`AllExportsRule` — every module declares ``__all__``, every
listed name is actually defined, and every public top-level
class/function is listed.  This is what keeps ``from repro.x import
*`` surfaces (and the docs) in sync with the code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import ModuleInfo, Rule


def _assigned_names(stmt: ast.stmt) -> list[str]:
    out: list[str] = []
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            if isinstance(t, ast.Name):
                out.append(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                out.extend(e.id for e in t.elts if isinstance(e, ast.Name))
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        out.append(stmt.target.id)
    return out


class AllExportsRule(Rule):
    """``__all__`` present, resolvable, and exhaustive."""

    name = "all-exports"
    description = "__all__ declared, every entry defined, every public def listed"
    paper_ref = "hygiene (stable public surfaces per package)"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        tree = module.tree
        top_level: set[str] = set()
        exported: list[str] | None = None
        all_node: ast.stmt | None = None
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top_level.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for a in stmt.names:
                    if a.name == "*":
                        continue
                    top_level.add(a.asname or a.name.split(".")[0])
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = _assigned_names(stmt)
                top_level.update(names)
                if "__all__" in names:
                    all_node = stmt
                    value = stmt.value
                    if isinstance(value, (ast.List, ast.Tuple)) and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in value.elts
                    ):
                        exported = [e.value for e in value.elts]
        if exported is None:
            if all_node is not None:
                yield self.finding(
                    module, all_node, "__all__ must be a literal list of strings"
                )
            else:
                yield self.finding(
                    module, tree.body[0] if tree.body else tree, "module has no __all__"
                )
            return
        for name in exported:
            if name not in top_level:
                yield self.finding(
                    module,
                    all_node,
                    f"__all__ lists {name!r} but the module does not define it",
                )
        public_defs = {
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
        }
        for name in sorted(public_defs - set(exported)):
            yield self.finding(
                module,
                all_node,
                f"public definition {name!r} missing from __all__",
            )


__all__ = ["AllExportsRule"]
