"""Sharded-run driver: many consensus groups, one keyspace.

The run harness for :mod:`repro.shard` (which stays inside the
protocol-layer substrate boundary).  The run scope of
:mod:`repro.experiments.runner` builds the ``config.shards`` groups;
this driver feeds them one :class:`~repro.shard.ShardedWorkload` pump
routing superposed Poisson arrivals through the versioned router and,
when cross-shard traffic is configured, one 2PC
:class:`~repro.shard.Coordinator`.  Every run ends with the atomicity
oracle, so drivers and tests get the safety verdict for free
(:func:`~repro.experiments.fingerprint` gives the replay handle).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..metrics import compute_stats, render_table
from ..net import Network, degrade_window
from ..protocols.common import Cluster
from ..protocols.registry import get_protocol
from ..shard import (
    COORDINATOR_PID,
    AtomicityReport,
    Coordinator,
    Router,
    ShardedWorkload,
    check_atomicity,
)
from ..sim import Simulator
from .config import ExperimentConfig, check_fields
from .runner import _drive, _open_pump, _run_scope

#: ``instrument(sim, networks, clusters)`` — called after the config's
#: conditions are installed, before the clusters start.
ShardInstrument = Callable[[Simulator, list[Network], list[Cluster]], None]


@dataclass
class ShardRun:
    """One finished sharded run plus its derived verdicts."""

    config: ExperimentConfig
    k: int
    sim: Simulator
    clusters: list[Cluster]
    networks: list[Network]
    router: Router
    pump: ShardedWorkload
    coordinator: Optional[Coordinator]
    duration_s: float = 0.0
    #: Transactions executed by each shard's reference replica (marker
    #: transactions included — they ride the chains like any tx).
    committed_txs: int = 0
    aggregate_tps: float = 0.0
    #: Mean single-shard commit latency (across shards with data).
    mean_latency_s: float = 0.0
    #: Mean / p99 2PC decision latency (0 when no cross traffic).
    cross_mean_latency_s: float = 0.0
    cross_p99_latency_s: float = 0.0
    #: 2PC decision latency over single-shard commit latency.
    cross_overhead_ratio: float = 0.0
    atomicity: AtomicityReport = field(default_factory=AtomicityReport)

    def describe(self) -> str:
        line = (
            f"{self.config.protocol} k={self.k}: "
            f"{self.committed_txs:,} txs committed "
            f"({self.aggregate_tps:,.0f} tx/s aggregate)"
        )
        if self.coordinator is not None:
            line += (
                f", 2PC {self.coordinator.committed}/"
                f"{self.coordinator.submitted} committed "
                f"(overhead {self.cross_overhead_ratio:.2f}x)"
            )
        return line + f"; {self.atomicity.describe()}"


def run_sharded(
    config: ExperimentConfig,
    instrument: Optional[ShardInstrument] = None,
    replica_factory=None,
) -> ShardRun:
    """Run one sharded experiment to ``config.max_sim_time``.

    The config's faults (or ``replica_factory``) and network conditions
    apply to *every* shard, since replica pids repeat across shards.
    ``config.coordinator_delay`` slows the 2PC coordinator's traffic
    (its well-known pid names its port on each fabric), stretching the
    window between prepare and decision where a broken 2PC layering
    would apply a partial transfer.
    """
    check_fields(config, [
        ("workload", config.workload == "open",
         "run_sharded feeds its shards from the open-loop pump only"),
    ])
    info = get_protocol(config.protocol)
    k = config.shards
    with _run_scope(config, replica_factory) as (sim, networks, clusters):
        replica_pids = [[r.pid for r in c.replicas] for c in clusters]
        coordinator = None
        if k > 1 and config.cross_shard_permille:
            coordinator = Coordinator(
                sim,
                networks,
                replica_pids,
                f=config.f,
                certified_replies=info.replica_cls.CERTIFIED_REPLIES,
            )
        pump = _open_pump(
            config, sim, networks, replica_pids,
            coordinator=coordinator, epoch_s=config.shard_epoch_s,
        )
        router = pump.router
        delay = config.coordinator_delay
        if delay is not None:
            for network in networks:
                degrade_window(
                    network, delay.start, delay.end, delay.extra_s,
                    nodes=(COORDINATOR_PID,),
                )
        if instrument is not None:
            instrument(sim, networks, clusters)
        _drive(sim, clusters, config.max_sim_time, pump)
        atomicity = check_atomicity(clusters)

    committed = sum(
        c.replicas[config.reference_pid].log.txs_executed for c in clusters
    )
    lats = [
        s.mean_latency_s
        for s in (compute_stats(c.collector) for c in clusters)
        if s.mean_latency_s > 0
    ]
    run = ShardRun(
        config=config,
        k=k,
        sim=sim,
        clusters=clusters,
        networks=networks,
        router=router,
        pump=pump,
        coordinator=coordinator,
        duration_s=sim.now,
        committed_txs=committed,
        aggregate_tps=committed / sim.now if sim.now > 0 else 0.0,
        mean_latency_s=sum(lats) / len(lats) if lats else 0.0,
        atomicity=atomicity,
    )
    if coordinator is not None and coordinator.decision_latency.count:
        run.cross_mean_latency_s = coordinator.decision_latency.mean()
        run.cross_p99_latency_s = coordinator.decision_p99.value()
        if run.mean_latency_s > 0:
            run.cross_overhead_ratio = (
                run.cross_mean_latency_s / run.mean_latency_s
            )
    return run


@dataclass
class ShardScaling:
    """Weak-scaling sweep: offered load grows with the shard count."""

    runs: dict[int, ShardRun] = field(default_factory=dict)

    def scaling_x(self) -> float:
        """Aggregate committed tx/s at max k over k=1."""
        if not self.runs:
            return 0.0
        base = self.runs[min(self.runs)].aggregate_tps
        top = self.runs[max(self.runs)].aggregate_tps
        return top / base if base > 0 else 0.0


def run_shard_scaling(
    ks: Sequence[int], config: ExperimentConfig
) -> ShardScaling:
    """Sweep shard counts, scaling offered load and client population
    with k (weak scaling — per-shard load stays constant, the Mir-BFT
    framing of the parallelism objection)."""
    scaling = ShardScaling()
    for k in ks:
        cfg = dataclasses.replace(
            config,
            shards=k,
            offered_tps=config.offered_tps * k,
            virtual_clients=config.virtual_clients * k,
        )
        scaling.runs[k] = run_sharded(cfg)
    return scaling


def render_shard(scaling: ShardScaling) -> str:
    rows, cells = [], []
    base = None
    for k, run in sorted(scaling.runs.items()):
        if base is None:
            base = run.aggregate_tps
        cross = (
            f"{run.cross_overhead_ratio:.2f}x"
            if run.coordinator is not None
            else "-"
        )
        rows.append(f"k={k}")
        cells.append(
            [
                f"{run.aggregate_tps:,.0f}",
                f"{run.aggregate_tps / base:.2f}x" if base else "-",
                f"{run.mean_latency_s * 1e3:.1f}",
                cross,
                "ok" if run.atomicity.ok else "VIOLATION",
            ]
        )
    return render_table(
        "Sharded consensus (routed keyspace, weak scaling)",
        rows,
        ["aggregate tx/s", "speedup", "latency ms", "2PC overhead", "atomicity"],
        cells,
    )


__all__ = [
    "ShardInstrument",
    "ShardRun",
    "ShardScaling",
    "render_shard",
    "run_shard_scaling",
    "run_sharded",
]
