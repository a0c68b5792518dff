"""Sharded-run driver: many consensus groups, one keyspace.

This is the run harness for :mod:`repro.shard` — the only layer that
builds simulators and calls ``sim.run`` (the shard package itself stays
inside the protocol-layer substrate boundary).  Where
:mod:`repro.experiments.parallel` runs k *independent* instances,
``run_sharded`` runs k shards fed from one routed workload:

* one :class:`~repro.sim.Simulator`, k disjoint network fabrics (the
  shards are separate deployments; replica pids overlap across shards,
  so each fabric is its own namespace);
* per-shard clusters of the chosen protocol with leader rotation offset
  by shard (as in ``parallel.py``, now via the shared
  :class:`~repro.protocols.common.LeaderMap`);
* one :class:`~repro.shard.ShardedWorkload` pump routing superposed
  Poisson arrivals through the versioned router, and — when cross-shard
  traffic is configured — one 2PC :class:`~repro.shard.Coordinator`.

Every run ends with the atomicity oracle and a replay fingerprint, so
drivers and tests get the safety verdict and the determinism handle for
free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..crypto import clear_digest_memos
from ..metrics import MetricsCollector, compute_stats, render_table
from ..net import Network, degrade_window
from ..protocols.common import Cluster, LeaderMap, ProtocolConfig, build_cluster
from ..protocols.registry import get_protocol
from ..shard import (
    COORDINATOR_PID,
    AtomicityReport,
    Coordinator,
    Rebalancer,
    Router,
    ShardedWorkload,
    ShardFingerprint,
    check_atomicity,
    fingerprint_shards,
)
from ..sim import Simulator
from ..workload import split_regions
from .config import ExperimentConfig
from .deployments import latency_model_for
from .runner import fault_factory, install_conditions

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
    fingerprint: Optional[ShardFingerprint] = None

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

    The config's faults (or ``replica_factory``, as in
    :func:`~repro.experiments.runner.run_experiment`) and network
    conditions apply to *every* shard, since replica pids repeat
    across shards.  ``config.coordinator_delay`` slows the 2PC
    coordinator's traffic (its well-known pid names its port on each
    fabric), stretching the window between prepare and decision where
    a broken 2PC layering would apply a partial transfer.
    """
    info = get_protocol(config.protocol)
    n = info.n_for(config.f)
    k = config.shards
    factory = fault_factory(config, replica_factory)
    sim = Simulator(seed=config.seed)
    proto_cfg = ProtocolConfig(
        n=n,
        f=config.f,
        timeout_base=config.timeout_base,
        view_sync=config.view_sync,
    )
    networks: list[Network] = []
    clusters: list[Cluster] = []
    for shard in range(k):
        network = Network(
            sim,
            latency=latency_model_for(config.deployment, config.local_latency_s),
            bandwidth_bps=config.bandwidth_bps,
            gst=config.gst,
            pre_gst_extra=config.pre_gst_extra,
        )
        cluster = build_cluster(
            info.replica_cls,
            sim,
            network,
            proto_cfg,
            payload_bytes=config.payload_bytes,
            collector=MetricsCollector(
                keep_decisions=not config.streaming_metrics
            ),
            replica_factory=factory,
            saturated=False,
        )
        # Stagger leaders per shard so the k leaders of any view land on
        # different replica slots (same policy as parallel.py).
        LeaderMap(n=n, offset=shard % n).bind_cluster(cluster)
        networks.append(network)
        clusters.append(cluster)
    replica_pids = [[r.pid for r in c.replicas] for c in clusters]

    router = Router(
        k,
        slots=config.shard_slots,
        hot_permille=config.hot_key_permille,
        cross_permille=config.cross_shard_permille if k > 1 else 0,
    )
    coordinator = None
    if router.cross_permille:
        coordinator = Coordinator(
            sim,
            networks,
            replica_pids,
            f=config.f,
            certified_replies=info.replica_cls.CERTIFIED_REPLIES,
        )
    pump = ShardedWorkload(
        sim,
        networks,
        replica_pids,
        router,
        split_regions(
            config.virtual_clients,
            config.offered_tps,
            config.workload_regions,
            config.payload_bytes,
        ),
        coordinator=coordinator,
        slab_rows=config.arrival_slab,
        epoch_s=config.shard_epoch_s,
        rebalancer=Rebalancer(),
    )

    try:
        delay = config.coordinator_delay
        for network, cluster in zip(networks, clusters):
            install_conditions(config, sim, network, cluster)
            if delay is not None:
                degrade_window(
                    network, delay.start, delay.end, delay.extra_s,
                    nodes=(COORDINATOR_PID,),
                )
        if instrument is not None:
            instrument(sim, networks, clusters)
        for cluster in clusters:
            cluster.start()
        pump.start()
        sim.run(until=config.max_sim_time)
        pump.stop()
        for cluster in clusters:
            cluster.stop()
        # Judged before the memos are emptied: both read digests.
        atomicity = check_atomicity(clusters)
        fingerprint = fingerprint_shards(
            config.protocol,
            config.seed,
            clusters,
            router,
            coordinator,
            end_time=sim.now,
            reference_pid=config.reference_pid,
        )
    finally:
        # As in run_experiment: the ended run lets go of its cycles,
        # and no digest memo outlives it.
        sim.close()
        for network in networks:
            network.close()
        clear_digest_memos()

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
    )
    run.committed_txs = sum(
        c.replicas[config.reference_pid].log.txs_executed for c in clusters
    )
    run.aggregate_tps = run.committed_txs / sim.now if sim.now > 0 else 0.0
    lats = [
        s.mean_latency_s
        for s in (compute_stats(c.collector) for c in clusters)
        if s.mean_latency_s > 0
    ]
    run.mean_latency_s = sum(lats) / len(lats) if lats else 0.0
    if coordinator is not None and coordinator.decision_latency.count:
        run.cross_mean_latency_s = coordinator.decision_latency.mean()
        run.cross_p99_latency_s = coordinator.decision_p99.value()
        if run.mean_latency_s > 0:
            run.cross_overhead_ratio = (
                run.cross_mean_latency_s / run.mean_latency_s
            )
    run.atomicity = atomicity
    run.fingerprint = fingerprint
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
    ks: Sequence[int] = (1, 2, 4, 8),
    config: Optional[ExperimentConfig] = None,
) -> ShardScaling:
    """Sweep shard counts, scaling offered load and client population
    with k (weak scaling — per-shard load stays constant, the Mir-BFT
    framing of the parallelism objection)."""
    if config is None:
        config = ExperimentConfig()
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
