"""The lint engine: parse every module under a root, run every rule.

``LintEngine(rules).run(root)`` walks ``root`` (normally the installed
``repro`` package directory), parses each ``*.py`` once, feeds the
tree to every per-file rule, builds the shared
:class:`~repro.analysis.callgraph.ProjectIndex` once and hands it to
every whole-program :class:`~repro.analysis.rules.base.ProjectRule`,
then partitions the resulting findings into *active* and *suppressed*
by the one suppression mechanism: inline ``repro: lint-ignore[rule-id]``
comments (written after a ``#``), line-precise; unused ignores are
reported so they cannot rot.

Reports render as text or JSON.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .callgraph import build_project_index
from .findings import Finding
from .rules import ModuleInfo, ProjectRule, Rule, default_rules

#: One inline ignore comment: a ``#`` followed by
#: ``repro: lint-ignore[rule-a, rule-b]``.
_IGNORE_RE = re.compile(
    r"#\s*repro:\s*lint-ignore\[([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\]"
)


@dataclass
class InlineIgnore:
    """A parsed per-line suppression comment."""

    path: str
    line: int
    rules: tuple[str, ...]
    used: set = field(default_factory=set)  # rule ids that matched

    def matches(self, finding: Finding) -> bool:
        return (
            finding.path == self.path
            and finding.line == self.line
            and finding.rule in self.rules
        )

    def unused_rules(self) -> tuple[str, ...]:
        return tuple(r for r in self.rules if r not in self.used)


def parse_inline_ignores(source: str, path: str) -> list[InlineIgnore]:
    """Collect ``# repro: lint-ignore[...]`` comments from a module."""
    out: list[InlineIgnore] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(text)
        if m is not None:
            rules = tuple(r.strip() for r in m.group(1).split(","))
            out.append(InlineIgnore(path=path, line=lineno, rules=rules))
    return out


@dataclass
class LintReport:
    """Outcome of one engine run."""

    root: str
    modules_checked: int = 0
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: ``path:line`` ignore comments that matched nothing (warning only).
    unused_ignores: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def render_text(self) -> str:
        lines: list[str] = []
        for err in self.parse_errors:
            lines.append(f"PARSE ERROR: {err}")
        for f in self.findings:
            lines.append(f.render())
        for spec in self.unused_ignores:
            lines.append(f"note: unused inline ignore {spec}")
        lines.append(
            f"{len(self.findings)} finding(s) in {self.modules_checked} "
            f"module(s), {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "root": self.root,
                "clean": self.clean,
                "modules_checked": self.modules_checked,
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": [f.to_dict() for f in self.suppressed],
                "unused_ignores": list(self.unused_ignores),
                "parse_errors": list(self.parse_errors),
            },
            indent=2,
        )


class LintEngine:
    """Runs a rule set over a package tree."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules = list(rules) if rules is not None else default_rules()

    # ------------------------------------------------------------------
    # Module loading
    # ------------------------------------------------------------------
    @staticmethod
    def load_module(path: Path, rel: str) -> ModuleInfo:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return ModuleInfo(path=rel, tree=tree, source=source)

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        out: list[Finding] = []
        for rule in self.rules:
            out.extend(rule.check(module))
        return out

    def check_source(self, source: str, path: str = "repro/example.py") -> list[Finding]:
        """Lint a source string with the per-file rules (convenience)."""
        module = ModuleInfo(path=path, tree=ast.parse(source), source=source)
        return self.check_module(module)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run(self, root: Path) -> LintReport:
        """Lint every ``*.py`` under ``root``.

        Module paths in findings are relative to ``root``'s *parent*,
        so linting ``.../src/repro`` yields paths like
        ``repro/sim/rng.py``.
        """
        root = Path(root)
        report = LintReport(root=str(root))
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent).as_posix()
            try:
                modules[rel] = self.load_module(path, rel)
            except SyntaxError as exc:
                report.parse_errors.append(f"{rel}: {exc}")
        self._run_rules(report, modules)
        return report

    def run_sources(self, sources: dict[str, str]) -> LintReport:
        """Lint an in-memory module set (multi-module test fixtures)."""
        report = LintReport(root="<memory>")
        modules: dict[str, ModuleInfo] = {}
        for rel, source in sources.items():
            try:
                modules[rel] = ModuleInfo(
                    path=rel, tree=ast.parse(source), source=source
                )
            except SyntaxError as exc:
                report.parse_errors.append(f"{rel}: {exc}")
        self._run_rules(report, modules)
        return report

    # ------------------------------------------------------------------
    def _run_rules(
        self, report: LintReport, modules: dict[str, ModuleInfo]
    ) -> None:
        report.modules_checked = len(modules)
        raw: list[Finding] = []
        file_rules = [r for r in self.rules if not isinstance(r, ProjectRule)]
        project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]
        for module in modules.values():
            for rule in file_rules:
                raw.extend(rule.check(module))
        if project_rules:
            # One shared index per run; memoized by content digest so
            # repeated runs in one process skip the rebuild entirely.
            index = build_project_index(modules)
            for rule in project_rules:
                raw.extend(rule.check_project(index))

        ignores: list[InlineIgnore] = []
        for module in modules.values():
            ignores.extend(parse_inline_ignores(module.source, module.path))

        for f in raw:
            ignore = next((ig for ig in ignores if ig.matches(f)), None)
            if ignore is None:
                report.findings.append(f)
            else:
                ignore.used.add(f.rule)
                report.suppressed.append(f)
        report.unused_ignores = [
            f"{ig.path}:{ig.line}: lint-ignore[{', '.join(ig.unused_rules())}]"
            for ig in ignores
            if ig.unused_rules()
        ]
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_package(
    root: Optional[Path] = None, rules: Optional[Sequence[Rule]] = None
) -> LintReport:
    """Lint the installed ``repro`` package (or the tree at ``root``)."""
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    return LintEngine(rules=rules).run(Path(root))


__all__ = [
    "InlineIgnore",
    "LintEngine",
    "LintReport",
    "lint_package",
    "parse_inline_ignores",
]
