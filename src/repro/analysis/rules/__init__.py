"""Lint rules — one visitor per invariant (see docs/invariants.md).

Per-file rules subclass :class:`Rule`; the whole-program passes
subclass :class:`ProjectRule` and run over the shared
:class:`~repro.analysis.callgraph.ProjectIndex`.
"""

from .base import ImportMap, ModuleInfo, ProjectRule, Rule, dotted_name
from .determinism import DeterminismRule
from .hygiene import AllExportsRule
from .secretflow import SecretFlowRule
from .streamflow import StreamPurityRule
from .tee import TeeEncapsulationRule


def default_rules() -> list[Rule]:
    """The full rule set with default scoping, in reporting order."""
    return [
        DeterminismRule(),
        TeeEncapsulationRule(),
        AllExportsRule(),
        # Whole-program passes (shared ProjectIndex, built once per run).
        StreamPurityRule(),
        SecretFlowRule(),
    ]


__all__ = [
    "Rule",
    "ProjectRule",
    "ModuleInfo",
    "ImportMap",
    "dotted_name",
    "DeterminismRule",
    "TeeEncapsulationRule",
    "AllExportsRule",
    "StreamPurityRule",
    "SecretFlowRule",
    "default_rules",
]
