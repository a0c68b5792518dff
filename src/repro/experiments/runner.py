"""Experiment runner: build a cluster, run it, summarize.

``run_experiment`` is the single entry point every figure/table driver
uses; it wires the simulator, network, protocol and fault factory from
an :class:`~repro.experiments.config.ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

from ..crypto import clear_digest_memos
from ..metrics import MetricsCollector, RunStats, compute_stats
from ..net import Network
from ..protocols.common import BaseReplica, Cluster, ProtocolConfig, build_cluster
from ..protocols.registry import get_protocol
from ..sim import Simulator
from ..workload import attach_workload
from .config import ExperimentConfig
from .deployments import latency_model_for

ReplicaFactory = Callable[[int, Type[BaseReplica]], Optional[Type[BaseReplica]]]


@dataclass
class RunResult:
    """Everything a driver might want from one run."""

    config: ExperimentConfig
    stats: RunStats
    collector: MetricsCollector
    cluster: Cluster
    network: Network
    sim: Simulator
    #: The aggregated load engine, when ``config.workload == "open"``.
    engine: Optional[object] = None


def run_experiment(
    config: ExperimentConfig,
    replica_factory: Optional[ReplicaFactory] = None,
    enable_message_log: bool = False,
    instrument: Optional[Callable[[Simulator, Network, Cluster], None]] = None,
    reference_pid: int = 0,
) -> RunResult:
    """Run one experiment to completion and return its results.

    ``instrument`` (if given) is called with the built simulator,
    network and cluster just before the cluster starts — the hook the
    fuzz harness uses to install network conditions, adaptive
    adversaries and TEE storms without forking the run path.
    ``reference_pid`` selects the replica whose executed-block count
    drives the stop condition (the fuzzer points it at a replica its
    scenario leaves correct).
    """
    info = get_protocol(config.protocol)
    n = info.n_for(config.f)
    sim = Simulator(seed=config.seed)
    network = Network(
        sim,
        latency=latency_model_for(config.deployment, config.local_latency_s),
        bandwidth_bps=config.bandwidth_bps,
        gst=config.gst,
        pre_gst_extra=config.pre_gst_extra,
    )
    if enable_message_log:
        network.enable_log()
    proto_cfg = ProtocolConfig(
        n=n,
        f=config.f,
        timeout_base=config.timeout_base,
        view_sync=config.view_sync,
    )
    cluster = build_cluster(
        info.replica_cls,
        sim,
        network,
        proto_cfg,
        payload_bytes=config.payload_bytes,
        collector=MetricsCollector(keep_decisions=not config.streaming_metrics),
        replica_factory=replica_factory,
        saturated=(config.workload == "saturated"),
    )
    engine = None
    if config.workload == "open":
        engine = attach_workload(
            sim,
            network,
            [r.pid for r in cluster.replicas],
            offered_tps=config.offered_tps,
            virtual_clients=config.virtual_clients,
            regions=config.workload_regions,
            payload_bytes=config.payload_bytes,
            slab_rows=config.arrival_slab,
        )
    try:
        if instrument is not None:
            instrument(sim, network, cluster)
        cluster.start()
        if engine is not None:
            engine.start()
        # The run ends with the event in which the reference replica
        # commits its last target block.
        cluster.replicas[reference_pid].log.when_length(
            config.target_blocks + config.warmup_blocks, sim.stop
        )
        sim.run(until=config.max_sim_time)
        if engine is not None:
            engine.stop()
        cluster.stop()
    finally:
        # Ended or crashed, the run lets go of its cycles through the
        # event queue and the network registry, so the caller's last
        # reference frees it (docs/invariants.md); no digest memo
        # outlives it either.
        sim.close()
        network.close()
        clear_digest_memos()
    stats = compute_stats(cluster.collector, config.warmup_blocks)
    return RunResult(
        config=config,
        stats=stats,
        collector=cluster.collector,
        cluster=cluster,
        network=network,
        sim=sim,
        engine=engine,
    )


__all__ = ["RunResult", "run_experiment", "ReplicaFactory"]
