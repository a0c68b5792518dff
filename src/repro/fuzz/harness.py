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
* the oracle verdict and a :class:`~repro.fuzz.RunFingerprint`
  (for replay-identity checks) packed into a :class:`FuzzResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.runner import run_experiment
from ..experiments.shard import run_sharded
from .fingerprint import RunFingerprint, fingerprint_of
from .oracles import OracleReport, judge, judge_sharded

#: Either a single-cluster :class:`RunFingerprint` or a
#: :class:`~repro.shard.ShardFingerprint`; both expose ``digest()``,
#: which is all the corpus replay-identity check uses.
Fingerprint = Union[RunFingerprint, "object"]


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
        # Sharded runs pass the lists of fabrics and clusters.
        captured.update(sim=sim, network=network, cluster=cluster)

    sharded = config.shards > 1
    crashed: Optional[str] = None
    run = None
    try:
        if sharded:
            run = run_sharded(config, instrument=instrument)
        else:
            run_experiment(config, enable_message_log=True, instrument=instrument)
    except Exception as exc:  # noqa: BLE001 - classified by the oracles
        if not captured:
            raise  # setup failure: a fuzzer bug, not a protocol finding
        crashed = f"{type(exc).__name__}: {exc}"
    cluster = captured["cluster"]
    fingerprint: Optional[Fingerprint] = None
    if sharded:
        report = judge_sharded(config, cluster, crashed=crashed)
        if crashed is None:
            fingerprint = run.fingerprint
    else:
        report = judge(config, cluster, crashed=crashed)
        if crashed is None:
            fingerprint = fingerprint_of(
                config.protocol,
                config.seed,
                captured["sim"],
                captured["network"],
                cluster.collector,
            )
    return FuzzResult(config=config, report=report, fingerprint=fingerprint)


__all__ = ["FuzzResult", "run_scenario"]
