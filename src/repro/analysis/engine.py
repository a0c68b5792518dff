"""The lint engine: parse every module under a root, run every rule.

``LintEngine(rules).run(root)`` walks ``root`` (normally the installed
``repro`` package directory), parses each ``*.py`` once, feeds the
tree to every per-file rule, builds the shared
:class:`~repro.analysis.callgraph.ProjectIndex` once and hands it to
every whole-program :class:`~repro.analysis.rules.base.ProjectRule`,
then partitions the resulting findings against the suppression layers
into *active* and *suppressed*:

1. inline ``repro: lint-ignore[rule-id]`` comments (written after a
   ``#``) — the preferred, line-precise mechanism; unused ignores are
   reported so they cannot rot;
2. the curated ``[tool.repro.lint]`` list in ``pyproject.toml`` — for
   whole-file policy decisions.

Reports render as text, JSON, SARIF 2.1.0 (CI upload) or
GitHub-Actions ``::error`` annotations.
"""

from __future__ import annotations

import ast
import json
import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .callgraph import build_project_index
from .findings import Finding, Suppression
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

    def spec(self) -> str:
        return f"{self.path}:{self.line}: lint-ignore[{', '.join(self.rules)}]"


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
    unused_suppressions: list[Suppression] = field(default_factory=list)
    #: ``path:line`` ignore comments that matched nothing (warning only).
    unused_ignores: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    #: rule id -> {description, paper_ref}, for SARIF metadata.
    rule_meta: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def render_text(self) -> str:
        lines: list[str] = []
        for err in self.parse_errors:
            lines.append(f"PARSE ERROR: {err}")
        for f in self.findings:
            lines.append(f.render())
        for s in self.unused_suppressions:
            lines.append(f"note: unused suppression {s.spec()!r}")
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
                "unused_suppressions": [s.spec() for s in self.unused_suppressions],
                "unused_ignores": list(self.unused_ignores),
                "parse_errors": list(self.parse_errors),
            },
            indent=2,
        )

    def to_sarif(self) -> str:
        """SARIF 2.1.0 document for CI code-scanning upload."""
        rules = [
            {
                "id": rid,
                "shortDescription": {"text": meta.get("description", rid)},
                "properties": {"paper_ref": meta.get("paper_ref", "")},
            }
            for rid, meta in sorted(self.rule_meta.items())
        ]
        results = [
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": max(f.line, 1),
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
            for f in self.findings
        ]
        doc = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "oneshot-repro-lint",
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(doc, indent=2)

    def render_github(self) -> str:
        """GitHub-Actions ``::error`` workflow annotations."""

        def esc(text: str) -> str:
            return (
                text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A")
            )

        lines = [
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule}::{esc(f.message)}"
            for f in self.findings
        ]
        for err in self.parse_errors:
            lines.append(f"::error title=parse-error::{esc(err)}")
        return "\n".join(lines)


class LintEngine:
    """Runs a rule set over a package tree."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        suppressions: Iterable[Suppression] = (),
    ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        self.suppressions = list(suppressions)

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
    def run(
        self, root: Path, only_paths: Optional[set[str]] = None
    ) -> LintReport:
        """Lint every ``*.py`` under ``root``.

        Module paths in findings are relative to ``root``'s *parent*,
        so linting ``.../src/repro`` yields paths like
        ``repro/sim/rng.py`` — the form the suppression list uses.

        ``only_paths`` restricts *reporting* to the given module paths
        (``--changed-only``); the analysis itself always covers the
        whole tree, because the interprocedural passes need the full
        call graph to be sound.
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
        self._run_rules(report, modules, only_paths)
        return report

    def run_sources(
        self,
        sources: dict[str, str],
        only_paths: Optional[set[str]] = None,
    ) -> LintReport:
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
        self._run_rules(report, modules, only_paths)
        return report

    # ------------------------------------------------------------------
    def _run_rules(
        self,
        report: LintReport,
        modules: dict[str, ModuleInfo],
        only_paths: Optional[set[str]],
    ) -> None:
        report.modules_checked = len(modules)
        report.rule_meta = {
            r.name: {"description": r.description, "paper_ref": r.paper_ref}
            for r in self.rules
        }
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

        used_supp: set[int] = set()
        for f in raw:
            ignore = next((ig for ig in ignores if ig.matches(f)), None)
            if ignore is not None:
                ignore.used.add(f.rule)
                report.suppressed.append(f)
                continue
            for i, s in enumerate(self.suppressions):
                if s.matches(f):
                    used_supp.add(i)
                    report.suppressed.append(f)
                    break
            else:
                report.findings.append(f)

        if only_paths is None:
            report.unused_suppressions = [
                s for i, s in enumerate(self.suppressions) if i not in used_supp
            ]
            report.unused_ignores = [
                f"{ig.path}:{ig.line}: lint-ignore[{', '.join(ig.unused_rules())}]"
                for ig in ignores
                if ig.unused_rules()
            ]
        else:
            # Partial view: filter findings, skip staleness accounting
            # (a suppression for an unchanged file is not "unused").
            report.findings = [
                f for f in report.findings if f.path in only_paths
            ]
            report.suppressed = [
                f for f in report.suppressed if f.path in only_paths
            ]
            report.parse_errors = [
                e
                for e in report.parse_errors
                if e.split(":", 1)[0] in only_paths
            ]
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))


def load_suppressions(pyproject: Path) -> list[Suppression]:
    """Read ``[tool.repro.lint] suppressions`` from a pyproject file."""
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    specs = data.get("tool", {}).get("repro", {}).get("lint", {}).get(
        "suppressions", []
    )
    return [Suppression.parse(s) for s in specs]


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    for candidate in [start, *start.parents]:
        p = candidate / "pyproject.toml"
        if p.is_file():
            return p
    return None


def lint_package(
    root: Optional[Path] = None,
    pyproject: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    ignore_suppressions: bool = False,
    only_paths: Optional[set[str]] = None,
) -> LintReport:
    """Lint the installed ``repro`` package with the project suppressions."""
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    if pyproject is None and not ignore_suppressions:
        pyproject = find_pyproject(Path(root))
    suppressions = (
        []
        if ignore_suppressions or pyproject is None
        else load_suppressions(pyproject)
    )
    engine = LintEngine(rules=rules, suppressions=suppressions)
    return engine.run(Path(root), only_paths=only_paths)


__all__ = [
    "InlineIgnore",
    "LintEngine",
    "LintReport",
    "lint_package",
    "load_suppressions",
    "find_pyproject",
    "parse_inline_ignores",
]
