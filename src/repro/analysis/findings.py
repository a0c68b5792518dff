"""Lint findings.

A :class:`Finding` pinpoints one invariant violation; its path is
POSIX-style, relative to the source root (e.g. ``repro/sim/rng.py``).
A finding is suppressed only by an inline ``lint-ignore`` comment on
its line (:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # POSIX path relative to the lint root's parent
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


__all__ = ["Finding"]
