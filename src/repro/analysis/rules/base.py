"""Rule infrastructure: one AST visitor per invariant.

Each rule subclasses :class:`Rule` and implements ``check(module)``,
yielding :class:`~repro.analysis.findings.Finding` records.  The
:class:`ModuleInfo` handed to rules carries the parsed tree, the raw
source and the module's POSIX path relative to the source root, so
rules can scope themselves to parts of the tree (``repro/tee/...``)
without touching the filesystem.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Iterable, Iterator

from ..findings import Finding


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module under the lint root."""

    path: str  # POSIX, e.g. "repro/core/replica.py"
    tree: ast.Module
    source: str

    def matches_any(self, patterns: Iterable[str]) -> bool:
        """True if :attr:`path` matches one of the glob ``patterns``.

        A pattern ending in ``/`` matches the whole subtree.
        """
        for pat in patterns:
            if pat.endswith("/"):
                if self.path.startswith(pat):
                    return True
            elif fnmatch(self.path, pat):
                return True
        return False


class Rule:
    """Base class for lint rules."""

    #: Stable rule identifier used in findings and suppressions.
    name: str = "rule"
    #: One-line human description (``oneshot-repro lint --rules``).
    description: str = ""
    #: Paper section / figure the invariant comes from.
    paper_ref: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class ImportMap:
    """Alias → fully-qualified dotted name, collected from imports."""

    aliases: dict = field(default_factory=dict)

    @staticmethod
    def of(tree: ast.Module) -> "ImportMap":
        m = ImportMap()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    m.aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    m.aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        return m

    def resolve(self, dotted: str) -> str:
        """Expand the leading segment of ``dotted`` through the aliases."""
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def dotted_name(node: ast.AST) -> str:
    """Flatten ``a.b.c`` attribute chains; empty string if not a chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


__all__ = ["Rule", "ModuleInfo", "ImportMap", "dotted_name"]
