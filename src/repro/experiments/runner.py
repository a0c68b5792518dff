"""Experiment runner: build a cluster, run it, summarize.

``run_experiment`` is the single entry point every figure/table driver
uses; it wires the simulator, network, protocol and fault factory from
an :class:`~repro.experiments.config.ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

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


def _trimmed(collector: MetricsCollector, warmup_blocks: int) -> MetricsCollector:
    """A collector view with the first ``warmup_blocks`` blocks dropped."""
    if warmup_blocks <= 0:
        return collector
    by_time = sorted(collector.decided_blocks().items(), key=lambda kv: kv[1])
    skip = {h for h, _ in by_time[:warmup_blocks]}
    out = MetricsCollector()
    out.decisions = [d for d in collector.decisions if d.block_hash not in skip]
    out.view_outcomes = list(collector.view_outcomes)
    out._proposal_times = dict(collector._proposal_times)
    out._decisive_kind = dict(collector._decisive_kind)
    return out


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
    collector = None
    if config.streaming_metrics:
        # Streaming mode trims warm-up inside the collector (a stream
        # cannot be re-trimmed post hoc the way _trimmed does).
        collector = MetricsCollector(
            streaming=True,
            n_replicas=n,
            warmup_blocks=config.warmup_blocks,
            reservoir_rng=sim.rng.stream(
                "metrics.reservoir", purpose="streaming latency reservoir"
            ),
        )
    cluster = build_cluster(
        info.replica_cls,
        sim,
        network,
        proto_cfg,
        payload_bytes=config.payload_bytes,
        collector=collector,
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
    elif config.workload != "saturated":
        raise ValueError(f"unknown workload model {config.workload!r}")
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
    if config.streaming_metrics:
        stats = compute_stats(cluster.collector)
    else:
        stats = compute_stats(_trimmed(cluster.collector, config.warmup_blocks))
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
