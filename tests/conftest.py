"""Shared test helpers: compact cluster construction and run loops."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network
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


@pytest.fixture
def small_oneshot():
    """A started-but-not-run 3-replica OneShot cluster (f=1)."""
    sim, network, cluster = make_cluster("oneshot", f=1)
    return sim, network, cluster
