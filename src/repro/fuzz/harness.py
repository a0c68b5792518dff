"""Execute one scenario under the oracles.

``run_scenario`` is a thin layer over the canonical
:func:`repro.experiments.runner.run_experiment` path — the fuzzer does
not fork the run loop.  It contributes exactly three things:

* an ``instrument`` callback that installs the scenario's network
  conditions and adaptive adversary on the freshly-built network (and
  captures the cluster so the oracles can inspect it);
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

from ..experiments.runner import run_experiment
from ..net.conditions import degrade_window, isolate_node
from .adversary import AdaptiveLeaderDelay
from .fingerprint import RunFingerprint, fingerprint_of
from .oracles import OracleReport, judge, judge_sharded
from .scenario import Scenario

#: Either a single-cluster :class:`RunFingerprint` or a
#: :class:`~repro.shard.ShardFingerprint`; both expose ``digest()``,
#: which is all the corpus replay-identity check uses.
Fingerprint = Union[RunFingerprint, "object"]


@dataclass(frozen=True)
class FuzzResult:
    """Everything the fuzz loop / shrinker needs from one run."""

    scenario: Scenario
    report: OracleReport
    fingerprint: Optional[Fingerprint]

    @property
    def ok(self) -> bool:
        return self.report.failure is None

    @property
    def failure(self) -> Optional[str]:
        return self.report.failure

    def describe(self) -> str:
        return f"seed {self.scenario.seed}: {self.report.describe()}"


def _install_conditions(scenario: Scenario, sim, network, cluster) -> None:
    """The scenario's degrade windows, isolations and adaptive
    adversary, on one network fabric and the cluster it carries."""
    for d in scenario.degrades:
        degrade_window(network, d.start, d.end, d.extra_s, nodes=d.nodes)
    for iso in scenario.isolates:
        isolate_node(network, iso.node, iso.start, iso.end, delay_s=iso.delay_s)
    if scenario.adaptive is not None:
        AdaptiveLeaderDelay(scenario.adaptive).install(sim, network, cluster)


def _run_shard_scenario(scenario: Scenario) -> FuzzResult:
    """The sharded run path: k clusters, 2PC, the atomicity oracle.

    Network conditions and the adaptive adversary are installed on
    *every* shard fabric; the shard spec's ``decision_delay_s`` becomes
    a coordinator-targeted :func:`degrade_window` (the coordinator's
    well-known pid names its port on each fabric), stretching the
    window between prepare and decision where a broken 2PC layering
    would apply a partial transfer.
    """
    from ..experiments.shard import run_sharded
    from ..shard import COORDINATOR_PID

    captured: dict = {}
    spec = scenario.shard

    def instrument(sim, networks, clusters) -> None:
        captured["clusters"] = clusters
        captured["run_objects"] = (sim, networks)
        for network, cluster in zip(networks, clusters):
            _install_conditions(scenario, sim, network, cluster)
            if spec.decision_delay_s > 0 and spec.delay_end > spec.delay_start:
                degrade_window(
                    network,
                    spec.delay_start,
                    spec.delay_end,
                    spec.decision_delay_s,
                    nodes=(COORDINATOR_PID,),
                )

    config = scenario.to_experiment_config()
    plan = scenario.fault_plan()
    factory = plan.factory() if plan.faults else None
    crashed: Optional[str] = None
    run = None
    try:
        run = run_sharded(
            config,
            instrument=instrument,
            reference_pid=scenario.reference_pid,
            replica_factory=factory,
        )
    except Exception as exc:  # noqa: BLE001 - classified by the oracles
        if "clusters" not in captured:
            raise  # setup failure: a fuzzer bug, not a protocol finding
        crashed = f"{type(exc).__name__}: {exc}"
    clusters = run.clusters if run is not None else captured["clusters"]
    report = judge_sharded(scenario, clusters, crashed=crashed)
    fingerprint = run.fingerprint if run is not None and crashed is None else None
    return FuzzResult(scenario=scenario, report=report, fingerprint=fingerprint)


def run_scenario(scenario: Scenario) -> FuzzResult:
    """Run ``scenario`` to completion (or crash) and judge it."""
    if scenario.shard is not None:
        return _run_shard_scenario(scenario)
    captured: dict = {}

    def instrument(sim, network, cluster) -> None:
        captured["sim"] = sim
        captured["network"] = network
        captured["cluster"] = cluster
        _install_conditions(scenario, sim, network, cluster)

    config = scenario.to_experiment_config()
    plan = scenario.fault_plan()
    factory = plan.factory() if plan.faults else None
    crashed: Optional[str] = None
    try:
        # The runner's result is discarded: the oracles read the
        # captured cluster directly.
        run_experiment(
            config,
            replica_factory=factory,
            enable_message_log=True,
            instrument=instrument,
            reference_pid=scenario.reference_pid,
        )
    except Exception as exc:  # noqa: BLE001 - classified by the oracles
        if "cluster" not in captured:
            raise  # setup failure: a fuzzer bug, not a protocol finding
        crashed = f"{type(exc).__name__}: {exc}"
    cluster = captured["cluster"]
    report = judge(scenario, cluster, crashed=crashed)
    fingerprint = None
    if crashed is None:
        fingerprint = fingerprint_of(
            scenario.protocol,
            scenario.seed,
            captured["sim"],
            captured["network"],
            cluster.collector,
        )
    return FuzzResult(scenario=scenario, report=report, fingerprint=fingerprint)


__all__ = ["FuzzResult", "run_scenario"]
