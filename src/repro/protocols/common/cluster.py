"""Cluster assembly: provision TEEs, build replicas, wire the network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Type

from ...metrics import MetricsCollector
from ...net import Network
from ...sim import Simulator
from ...smr import Mempool, TxFactory
from ...tee import provision
from .base import BaseReplica
from .config import ProtocolConfig


@dataclass
class Cluster:
    """A built cluster: replicas plus the shared infrastructure."""

    sim: Simulator
    network: Network
    config: ProtocolConfig
    replicas: list[BaseReplica]
    collector: MetricsCollector

    def start(self) -> None:
        for r in self.replicas:
            r.start()

    def stop(self) -> None:
        for r in self.replicas:
            r.stop()

    def correct_replicas(self) -> list[BaseReplica]:
        """Replicas running unmodified protocol code."""
        return [r for r in self.replicas if not getattr(r, "byzantine", False)]

    def logs(self):
        return [r.log for r in self.replicas]


def build_cluster(
    replica_cls: Type[BaseReplica],
    sim: Simulator,
    network: Network,
    config: ProtocolConfig,
    payload_bytes: int = 0,
    collector: Optional[MetricsCollector] = None,
    replica_factory: Optional[
        Callable[[int, Type[BaseReplica]], Type[BaseReplica]]
    ] = None,
    saturated: bool = True,
) -> Cluster:
    """Instantiate ``config.n`` replicas of ``replica_cls``.

    ``replica_factory(pid, default_cls)`` may substitute a (Byzantine)
    subclass for specific pids — used by the fault-injection harness.
    ``saturated`` gives each replica an infinite synthetic transaction
    source (the paper's saturated-clients steady state).
    """
    collector = collector if collector is not None else MetricsCollector()
    creds = provision(config.n, master_seed=sim.rng.root_seed)
    replicas: list[BaseReplica] = []
    for pid in range(config.n):
        cls = replica_cls
        if replica_factory is not None:
            cls = replica_factory(pid, replica_cls) or replica_cls
        source = TxFactory(10_000 + pid, payload_bytes) if saturated else None
        mempool = Mempool(source=source)
        replicas.append(
            cls(
                sim=sim,
                network=network,
                pid=pid,
                config=config,
                credentials=creds[pid],
                mempool=mempool,
                collector=collector,
            )
        )
    return Cluster(
        sim=sim,
        network=network,
        config=config,
        replicas=replicas,
        collector=collector,
    )


__all__ = ["Cluster", "build_cluster"]
