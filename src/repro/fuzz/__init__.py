"""Seed-driven adversarial scenario fuzzing: the correctness harness,
as ``ledger/`` is the performance one.

Pipeline: :func:`generate_scenario` expands an integer seed into an
:class:`~repro.experiments.ExperimentConfig` (Byzantine assignments,
partitions, WAN churn, leader-targeted and adaptive degradation, TEE
restart storms); :func:`run_scenario` executes it through the canonical
experiment runner under the safety and liveness oracles; :func:`shrink`
minimizes any failure; :mod:`repro.fuzz.corpus` serializes
counterexamples as JSON repro files that replay byte-identically.

CLI: ``oneshot-repro fuzz run|replay|shrink``.
"""

from .corpus import (
    FORMAT,
    ReplayMismatch,
    ReproFile,
    corpus_paths,
    load_repro,
    make_repro,
    replay_repro,
    save_repro,
)
from .generator import DEFAULT_CONFIG, FuzzConfig, generate_scenario
from .harness import FuzzResult, run_scenario
from .oracles import (
    CRASH,
    LIVENESS,
    SAFETY,
    OracleReport,
    check_safety,
    find_equivocations,
    judge,
    judge_sharded,
)
from .shrinker import ShrinkOutcome, shrink

__all__ = [
    "FORMAT",
    "ReplayMismatch",
    "ReproFile",
    "corpus_paths",
    "load_repro",
    "make_repro",
    "replay_repro",
    "save_repro",
    "DEFAULT_CONFIG",
    "FuzzConfig",
    "generate_scenario",
    "FuzzResult",
    "run_scenario",
    "CRASH",
    "LIVENESS",
    "SAFETY",
    "OracleReport",
    "check_safety",
    "find_equivocations",
    "judge",
    "judge_sharded",
    "ShrinkOutcome",
    "shrink",
]
