"""Execute one scenario under the oracles.

A scenario is an :class:`~repro.experiments.ExperimentConfig`, and
``run_scenario`` is a thin layer over the canonical run drivers —
:func:`~repro.experiments.runner.run_experiment`, or
:func:`~repro.experiments.shard.run_sharded` for ``shards > 1`` — which
install the config's faults and network conditions themselves.  The
harness contributes exactly three things:

* an ``instrument`` callback that captures the cluster, so the oracles
  can inspect a run that crashed;
* exception containment — a genuine safety violation routinely crashes
  correct replicas afterwards (``ExecutionLog.execute`` refuses
  conflicting chains), and the harness must classify that run as a
  safety failure, not die with it;
* the oracle verdict and the run's
  :func:`~repro.experiments.fingerprint` (for replay-identity checks)
  packed into a :class:`FuzzResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..experiments.fingerprint import Fingerprint, fingerprint
from ..experiments.runner import run_experiment
from ..experiments.shard import run_sharded
from .oracles import OracleReport, judge, judge_sharded


@dataclass(frozen=True)
class FuzzResult:
    """Everything the fuzz loop / shrinker needs from one run."""

    config: ExperimentConfig
    report: OracleReport
    fingerprint: Optional[Fingerprint]

    @property
    def ok(self) -> bool:
        return self.report.failure is None

    @property
    def failure(self) -> Optional[str]:
        return self.report.failure

    def describe(self) -> str:
        return f"seed {self.config.seed}: {self.report.describe()}"


def run_scenario(config: ExperimentConfig) -> FuzzResult:
    """Run ``config`` to completion (or crash) and judge it.  A sharded
    config is judged by the cross-shard atomicity oracle too."""
    captured: dict = {}

    def instrument(sim, network, cluster) -> None:
        # Sharded runs pass the list of clusters.
        captured["cluster"] = cluster

    sharded = config.shards > 1
    crashed: Optional[str] = None
    run = None
    try:
        if sharded:
            run = run_sharded(config, instrument=instrument)
        else:
            run = run_experiment(
                config, enable_message_log=True, instrument=instrument
            )
    except Exception as exc:  # noqa: BLE001 - classified by the oracles
        if not captured:
            raise  # setup failure: a fuzzer bug, not a protocol finding
        crashed = f"{type(exc).__name__}: {exc}"
    report = (judge_sharded if sharded else judge)(
        config, captured["cluster"], crashed=crashed
    )
    return FuzzResult(
        config=config,
        report=report,
        fingerprint=fingerprint(run) if run is not None else None,
    )


__all__ = ["FuzzResult", "run_scenario"]
