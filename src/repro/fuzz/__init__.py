"""Seed-driven adversarial scenario fuzzing: the correctness harness,
as ``ledger/`` is the performance one.

Pipeline: :func:`generate_scenario` expands an integer seed into a
:class:`Scenario` (Byzantine assignments, partitions, WAN churn,
leader-targeted and adaptive degradation, TEE restart storms);
:func:`run_scenario` executes it through the canonical experiment
runner under the safety and liveness oracles; :func:`shrink` minimizes
any failure; :mod:`repro.fuzz.corpus` serializes counterexamples as
JSON repro files that replay byte-identically.

CLI: ``oneshot-repro fuzz run|replay|shrink``.
"""

from .adversary import AdaptiveLeaderDelay
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
    judge,
    judge_sharded,
)
from .scenario import (
    AdaptiveSpec,
    DegradeSpec,
    FaultSpec,
    IsolateSpec,
    Scenario,
    ShardSpec,
)
from .shrinker import ShrinkOutcome, shrink

__all__ = [
    "AdaptiveLeaderDelay",
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
    "judge",
    "judge_sharded",
    "AdaptiveSpec",
    "DegradeSpec",
    "FaultSpec",
    "IsolateSpec",
    "Scenario",
    "ShardSpec",
    "ShrinkOutcome",
    "shrink",
]
