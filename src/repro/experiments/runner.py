"""Experiment runner: the one place a run is built and freed.

:func:`_run_scope` builds every run — ``run_experiment`` here,
``run_sharded`` and ``run_parallel`` next door — from an
:class:`~repro.experiments.config.ExperimentConfig`, and its one
``finally`` frees it however it ended.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Type

from ..crypto import clear_digest_memos
from ..faults import AdaptiveLeaderDelay, FaultPlan
from ..metrics import MetricsCollector, RunStats, compute_stats
from ..net import Network, degrade_window, isolate_node
from ..protocols import BaseReplica, Cluster, ProtocolConfig, build_cluster
from ..protocols.common import LeaderMap
from ..protocols.registry import get_protocol
from ..shard import Router, ShardedWorkload
from ..sim import Simulator
from ..workload import split_regions
from .config import ConfigError, ExperimentConfig, check_fields
from .deployments import latency_model_for

ReplicaFactory = Callable[[int, Type[BaseReplica]], Optional[Type[BaseReplica]]]


@contextmanager
def _run_scope(
    config: ExperimentConfig,
    replica_factory: Optional[ReplicaFactory] = None,
    message_log: bool = False,
) -> Iterator[tuple[Simulator, list[Network], list[Cluster]]]:
    """Build ``config.shards`` consensus groups on one simulator, each
    on its own fabric with its leader rotation offset by its index, and
    install the config's faults and network conditions on every group
    (``replica_factory`` is the caller's alternative to the faults).
    Ended or crashed, the run then lets go of its cycles, so the
    caller's last reference frees it, and no digest memo outlives it
    (docs/invariants.md).
    """
    info = get_protocol(config.protocol)
    n = info.n_for(config.f)
    factory = replica_factory
    if config.faults:
        if replica_factory is not None:
            raise ConfigError(
                "ExperimentConfig.faults and replica_factory= both choose "
                "replica classes; give one"
            )
        factory = FaultPlan(list(config.faults)).factory()
    sim = Simulator(seed=config.seed)
    proto_cfg = ProtocolConfig(
        n=n,
        f=config.f,
        timeout_base=config.timeout_base,
        view_sync=config.view_sync,
    )
    networks: list[Network] = []
    clusters: list[Cluster] = []
    try:
        for group in range(config.shards):
            network = Network(
                sim,
                latency=latency_model_for(config.deployment, config.local_latency_s),
                bandwidth_bps=config.bandwidth_bps,
                gst=config.gst,
                pre_gst_extra=config.pre_gst_extra,
            )
            networks.append(network)
            if message_log:
                network.enable_log()
            cluster = build_cluster(
                info.replica_cls,
                sim,
                network,
                proto_cfg,
                payload_bytes=config.payload_bytes,
                collector=MetricsCollector(keep_decisions=not config.streaming_metrics),
                replica_factory=factory,
                saturated=(config.workload == "saturated"),
            )
            if group % n:  # offset 0 is every replica's own map
                LeaderMap(n=n, offset=group % n).bind_cluster(cluster)
            clusters.append(cluster)
        for network, cluster in zip(networks, clusters):
            for d in config.degrades:
                degrade_window(network, d.start, d.end, d.extra_s, nodes=d.nodes)
            for x in config.isolates:
                isolate_node(network, x.node, x.start, x.end, delay_s=x.delay_s)
            if config.adaptive is not None:
                AdaptiveLeaderDelay(config.adaptive).install(sim, network, cluster)
        yield sim, networks, clusters
    finally:
        sim.close()
        for network in networks:
            network.close()
        clear_digest_memos()


def _drive(sim: Simulator, clusters: list[Cluster], until: float, load=None) -> None:
    """Start the clusters, then the load; run; stop the load, then them."""
    for cluster in clusters:
        cluster.start()
    if load is not None:
        load.start()
    sim.run(until=until)
    if load is not None:
        load.stop()
    for cluster in clusters:
        cluster.stop()


def _open_pump(
    config: ExperimentConfig,
    sim: Simulator,
    networks: list[Network],
    replica_pids: list[list[int]],
    **kw,
) -> ShardedWorkload:
    """The one open-loop pump over the run's groups: the config's
    clients and offered load split across its regions, routed by key
    (cross-shard traffic needs two groups)."""
    k = len(networks)
    router = Router(
        k,
        slots=config.shard_slots,
        hot_permille=config.hot_key_permille,
        cross_permille=config.cross_shard_permille if k > 1 else 0,
    )
    regions = split_regions(
        config.virtual_clients,
        config.offered_tps,
        config.workload_regions,
        config.payload_bytes,
    )
    return ShardedWorkload(
        sim, networks, replica_pids, router, regions,
        slab_rows=config.arrival_slab, **kw,
    )


@dataclass
class RunResult:
    """Everything a driver might want from one run."""

    config: ExperimentConfig
    stats: RunStats
    collector: MetricsCollector
    cluster: Cluster
    network: Network
    sim: Simulator
    #: The open-loop pump, when ``config.workload == "open"``.
    pump: Optional[ShardedWorkload] = None


def run_experiment(
    config: ExperimentConfig,
    replica_factory: Optional[ReplicaFactory] = None,
    enable_message_log: bool = False,
    instrument: Optional[Callable[[Simulator, Network, Cluster], None]] = None,
) -> RunResult:
    """Run one single-group experiment until replica
    ``config.reference_pid`` executes its ``warmup_blocks +
    target_blocks``-th block (or ``config.max_sim_time``).

    ``instrument`` (if given) gets the built simulator, network and
    cluster after the config's conditions are installed and before the
    cluster starts: the hook that lets the fuzz harness keep the
    cluster of a run that crashes.
    """
    check_fields(config, [
        ("shards", config.shards == 1,
         "run_experiment runs one group; run_sharded runs more"),
        ("cross_shard_permille", config.cross_shard_permille == 0,
         "one group has no cross-shard traffic; run_sharded with shards > 1"),
        ("shard_epoch_s", config.shard_epoch_s == 0,
         "one group has no routing epochs; run_sharded with shards > 1"),
    ])
    with _run_scope(config, replica_factory, enable_message_log) as (
        sim, (network,), (cluster,)
    ):
        pump = None
        if config.workload == "open":
            pump = _open_pump(
                config, sim, [network], [[r.pid for r in cluster.replicas]]
            )
        if instrument is not None:
            instrument(sim, network, cluster)
        cluster.replicas[config.reference_pid].log.when_length(
            config.target_blocks + config.warmup_blocks, sim.stop
        )
        _drive(sim, [cluster], config.max_sim_time, pump)
    return RunResult(
        config=config,
        stats=compute_stats(cluster.collector, config.warmup_blocks),
        collector=cluster.collector,
        cluster=cluster,
        network=network,
        sim=sim,
        pump=pump,
    )


__all__ = ["RunResult", "run_experiment", "ReplicaFactory"]
