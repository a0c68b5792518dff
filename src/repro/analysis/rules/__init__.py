"""Lint rules — one per-file AST visitor per invariant (see
docs/invariants.md).  Each subclasses :class:`Rule`."""

from .base import ImportMap, ModuleInfo, Rule, dotted_name
from .determinism import DeterminismRule
from .hygiene import AllExportsRule
from .tee import TeeEncapsulationRule


def default_rules() -> list[Rule]:
    """The full rule set with default scoping, in reporting order."""
    return [DeterminismRule(), TeeEncapsulationRule(), AllExportsRule()]


__all__ = [
    "Rule",
    "ModuleInfo",
    "ImportMap",
    "dotted_name",
    "DeterminismRule",
    "TeeEncapsulationRule",
    "AllExportsRule",
    "default_rules",
]
