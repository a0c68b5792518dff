"""Static enforcement of the reproduction's invariants.

:mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — an AST
lint engine that walks every module under ``repro`` and checks the
invariants the paper's argument rests on: determinism and RNG stream
purity (Sec. VIII's replayable curves), TEE encapsulation and secret
flow (Sec. IV's hybrid model), and ``__all__`` hygiene.  No run
imports it.

See ``docs/invariants.md`` for the rule catalogue and
``oneshot-repro lint`` for the CLI gate.
"""

from .engine import LintEngine, LintReport, lint_package
from .findings import Finding
from .rules import default_rules

__all__ = [
    "LintEngine",
    "LintReport",
    "Finding",
    "default_rules",
    "lint_package",
]
