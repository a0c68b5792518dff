"""Shared test helpers: compact cluster construction, run loops and
fingerprinted runs."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.fuzz import RunFingerprint, fingerprint_of
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, LatencyModel, Network
from repro.protocols.common import Cluster, ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import Simulator


def make_cluster(
    protocol: str = "oneshot",
    f: int = 1,
    n: Optional[int] = None,
    seed: int = 1,
    latency_s: float = 0.002,
    timeout_base: float = 0.2,
    payload_bytes: int = 0,
    replica_factory=None,
    enable_log: bool = False,
    **config_kw,
) -> tuple[Simulator, Network, Cluster]:
    """Build a small cluster on constant-latency links."""
    info = get_protocol(protocol)
    if n is None:
        n = info.n_for(f)
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(latency_s))
    if enable_log:
        network.enable_log()
    config = ProtocolConfig(n=n, f=f, timeout_base=timeout_base, **config_kw)
    cluster = build_cluster(
        info.replica_cls,
        sim,
        network,
        config,
        payload_bytes=payload_bytes,
        replica_factory=replica_factory,
    )
    return sim, network, cluster


def run_blocks(
    sim: Simulator,
    cluster: Cluster,
    blocks: int,
    max_time: float = 60.0,
    reference: int = 0,
) -> None:
    """Start the cluster and run until a replica decided ``blocks``."""
    cluster.start()
    cluster.replicas[reference].log.when_length(blocks, sim.stop)
    sim.run(until=max_time)
    cluster.stop()


#: The small local run the determinism goldens pin: seed 7, six
#: blocks, 2 ms links, 0.2 s base timeout, no warm-up, a 60 s cap.
SMALL_RUN = dict(
    deployment="local",
    warmup_blocks=0,
    seed=7,
    target_blocks=6,
    local_latency_s=0.002,
    timeout_base=0.2,
    max_sim_time=60.0,
)


def small_run(protocol: str = "oneshot", **overrides) -> ExperimentConfig:
    """:data:`SMALL_RUN` of ``protocol``, with ``overrides``."""
    return ExperimentConfig(**{**SMALL_RUN, "protocol": protocol, **overrides})


def fingerprint(
    config: ExperimentConfig, instrument=None, replica_factory=None
) -> tuple[RunFingerprint, MetricsCollector]:
    """Run ``config`` with the message log on: its fingerprint and its
    metrics collector."""
    run = run_experiment(
        config,
        replica_factory=replica_factory,
        enable_message_log=True,
        instrument=instrument,
    )
    fp = fingerprint_of(config.protocol, config.seed, run.sim, run.network, run.collector)
    return fp, run.collector


def with_latency(model: LatencyModel):
    """An ``instrument`` that puts ``model`` on the run's links."""

    def instrument(sim, network, cluster) -> None:
        network.latency = model

    return instrument


@pytest.fixture
def small_oneshot():
    """A started-but-not-run 3-replica OneShot cluster (f=1)."""
    sim, network, cluster = make_cluster("oneshot", f=1)
    return sim, network, cluster
