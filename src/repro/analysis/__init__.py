"""Static and runtime enforcement of the reproduction's invariants.

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — an
  AST lint engine that walks every module under ``repro`` and checks
  the invariants the paper's argument rests on (determinism, TEE
  encapsulation, message immutability, hygiene);
* :mod:`repro.analysis.sanitizer` — runtime checks: same-seed replay
  stability and the no-equivocation gate.  The run fingerprint and the
  equivocation oracle they build on live in :mod:`repro.fuzz`, so the
  runtime never imports the lint engine.

See ``docs/invariants.md`` for the rule catalogue and
``oneshot-repro lint`` for the CLI gate.
"""

from .engine import LintEngine, LintReport, lint_package
from .findings import Finding
from .rules import default_rules
from .sanitizer import (
    DeterminismViolation,
    EquivocationDetected,
    assert_no_equivocation,
    check_determinism,
    fingerprint_run,
    replay_and_check,
)

__all__ = [
    "LintEngine",
    "LintReport",
    "Finding",
    "default_rules",
    "lint_package",
    "DeterminismViolation",
    "EquivocationDetected",
    "fingerprint_run",
    "check_determinism",
    "assert_no_equivocation",
    "replay_and_check",
]
