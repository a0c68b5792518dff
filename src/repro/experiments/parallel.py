"""Parallel (multi-instance) execution — the Sec. II extension.

Gupta et al. ("Dissecting BFT Consensus") identify *lack of
parallelism* as an issue of 2f+1 hybrid protocols; the paper replies
that it "can for example be addressed using parallel executions"
(Mir-BFT-style multi-instance operation).  This driver runs k
independent OneShot instances whose replica i's are co-located on one
machine — sharing that machine's single core and NIC — with leader
rotation offset by instance so the k leaders land on different
machines each view.

Aggregate throughput scales with k until the shared cores saturate,
which is exactly the effect the objection and the reply are about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..metrics import MetricsCollector, compute_stats, render_table
from ..net import Network
from ..protocols.common import Cluster, LeaderMap, ProtocolConfig, build_cluster
from ..protocols.registry import get_protocol
from ..sim import Cpu, Nic, Simulator
from .config import ExperimentConfig
from .deployments import latency_model_for


@dataclass
class ParallelRun:
    """k instances plus machine-level shared resources."""

    k: int
    f: int
    clusters: list[Cluster]
    cpus: list[Cpu]
    nics: list[Nic]
    sim: Simulator
    aggregate_tps: float = 0.0
    mean_latency_s: float = 0.0
    cpu_utilization: float = 0.0


def _offset_leader(cluster: Cluster, offset: int) -> None:
    """Stagger leader rotation so instance leaders spread over machines."""
    # The CHECKER validates proposer identity with the same map; the
    # LeaderMap binds both sides (replica election + TEE rebind).
    LeaderMap(n=cluster.config.n, offset=offset % cluster.config.n).bind_cluster(
        cluster
    )


def run_parallel(
    k: int,
    f: int = 1,
    protocol: str = "oneshot",
    payload_bytes: int = 0,
    deployment: str = "local",
    local_latency_s: float = 0.002,
    sim_time: float = 2.0,
    seed: int = 9,
) -> ParallelRun:
    """Run ``k`` co-located instances and aggregate their throughput."""
    if k < 1:
        raise ValueError("need at least one instance")
    info = get_protocol(protocol)
    n = info.n_for(f)
    sim = Simulator(seed=seed)
    # One machine per replica slot: a single core and a single NIC that
    # all k instances' replica-i share.
    cpus = [Cpu(name=f"machine{i}.cpu") for i in range(n)]
    nics: list[Nic] = []
    clusters: list[Cluster] = []
    for instance in range(k):
        network = Network(
            sim, latency=latency_model_for(deployment, local_latency_s)
        )
        cluster = build_cluster(
            info.replica_cls,
            sim,
            network,
            ProtocolConfig(n=n, f=f),
            payload_bytes=payload_bytes,
            collector=MetricsCollector(),
        )
        _offset_leader(cluster, instance)
        for i, replica in enumerate(cluster.replicas):
            replica.cpu = cpus[i]
            if instance == 0:
                nics.append(network.nic(i))
            else:
                network.attach_nic(i, nics[i])
        clusters.append(cluster)

    for cluster in clusters:
        cluster.start()
    sim.run(until=sim_time)
    for cluster in clusters:
        cluster.stop()

    run = ParallelRun(k=k, f=f, clusters=clusters, cpus=cpus, nics=nics, sim=sim)
    stats = [compute_stats(c.collector) for c in clusters]
    run.aggregate_tps = sum(s.throughput_tps for s in stats)
    lats = [s.mean_latency_s for s in stats if s.mean_latency_s > 0]
    run.mean_latency_s = sum(lats) / len(lats) if lats else 0.0
    run.cpu_utilization = max(c.utilization(sim.now) for c in cpus)
    return run


@dataclass
class ParallelScaling:
    runs: dict[int, ParallelRun] = field(default_factory=dict)


def run_parallel_scaling(
    ks: Sequence[int] = (1, 2, 4, 8), f: int = 1, **kwargs
) -> ParallelScaling:
    scaling = ParallelScaling()
    for k in ks:
        scaling.runs[k] = run_parallel(k, f=f, **kwargs)
    return scaling


def check_parallel(scaling: ParallelScaling) -> list[str]:
    """Near-linear gain at k=2, a plateau (not a collapse) once the
    shared cores saturate at k=8; returns violations."""
    runs = scaling.runs
    problems = []
    if runs[2].aggregate_tps <= 1.5 * runs[1].aggregate_tps:
        problems.append("k=2 gives <= 1.5x the k=1 rate")
    if runs[8].aggregate_tps <= 0.9 * runs[4].aggregate_tps:
        problems.append("k=8 gives <= 0.9x the k=4 rate")
    if runs[8].cpu_utilization <= 0.9:
        problems.append("busiest core at k=8 is not saturated (<= 90%)")
    return problems


def render_parallel(scaling: ParallelScaling) -> str:
    rows, cells = [], []
    base = None
    for k, run in sorted(scaling.runs.items()):
        if base is None:
            base = run.aggregate_tps
        rows.append(f"k={k}")
        cells.append(
            [
                f"{run.aggregate_tps:,.0f}",
                f"{run.aggregate_tps / base:.2f}x",
                f"{run.mean_latency_s * 1e3:.1f}",
                f"{run.cpu_utilization * 100:.0f}%",
            ]
        )
    return render_table(
        "Parallel OneShot instances (shared cores/NICs per machine)",
        rows,
        ["aggregate tx/s", "speedup", "latency ms", "busiest core"],
        cells,
    )


__all__ = [
    "ParallelRun",
    "ParallelScaling",
    "run_parallel",
    "run_parallel_scaling",
    "check_parallel",
    "render_parallel",
]
