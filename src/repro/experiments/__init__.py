"""Evaluation harness: one driver per paper table/figure (see the
per-experiment index in DESIGN.md)."""

from .ablation import (
    AblationResult,
    render_ablations,
    run_all_ablations,
)
from .complexity import (
    ComplexityResult,
    check_linearity,
    render_complexity,
    run_complexity,
)
from .config import ConfigError, ExperimentConfig, from_dict, to_dict
from .degraded import DegradedResult, render_degraded, run_degraded
from .deployments import DEPLOYMENTS, latency_model_for
from .fig7 import (
    PAPER_F_VALUES,
    PAPER_PAYLOADS,
    PROTOCOLS,
    Fig7Result,
    render_fig7,
    run_fig7,
)
from .gains import GainTable, PAPER_GAINS, compute_gains, render_gains
from .parallel import (
    ParallelScaling,
    render_parallel,
    run_parallel,
    run_parallel_scaling,
)
from .runner import RunResult, run_experiment
from .shard import (
    ShardRun,
    ShardScaling,
    render_shard,
    run_shard_scaling,
    run_sharded,
)
from .sweep import run_sweep
from .steps_table import (
    PAPER_STEPS,
    StepsRow,
    measure_execution,
    render_steps_table,
    steps_table,
)

__all__ = [
    "AblationResult",
    "render_ablations",
    "run_all_ablations",
    "ComplexityResult",
    "check_linearity",
    "render_complexity",
    "run_complexity",
    "ConfigError",
    "ExperimentConfig",
    "from_dict",
    "to_dict",
    "DegradedResult",
    "render_degraded",
    "run_degraded",
    "DEPLOYMENTS",
    "latency_model_for",
    "PAPER_F_VALUES",
    "PAPER_PAYLOADS",
    "PROTOCOLS",
    "Fig7Result",
    "render_fig7",
    "run_fig7",
    "GainTable",
    "PAPER_GAINS",
    "compute_gains",
    "render_gains",
    "ParallelScaling",
    "render_parallel",
    "run_parallel",
    "run_parallel_scaling",
    "RunResult",
    "run_experiment",
    "ShardRun",
    "ShardScaling",
    "render_shard",
    "run_shard_scaling",
    "run_sharded",
    "run_sweep",
    "PAPER_STEPS",
    "StepsRow",
    "measure_execution",
    "render_steps_table",
    "steps_table",
]
