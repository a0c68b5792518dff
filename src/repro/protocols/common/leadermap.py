"""First-class leader election maps.

Multi-instance drivers (``repro.experiments.parallel``, ``repro.shard``)
stagger leader rotation per instance so the k concurrent leaders land
on different machines each view.  Historically that was done with a
per-replica closure lambda, which was invisible to introspection and
had to be rebuilt ad hoc for the CHECKER's proposer-identity rebind.
``LeaderMap`` is the explicit object both paths share: it is callable
with a view (every replica's ``leader_of`` is one) and knows how to
bind itself to every replica of a cluster, including the TEE CHECKER
which validates proposer identity with the same map.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LeaderMap:
    """Round-robin leader election with a per-instance offset.

    ``leader(view) = (view + offset) % n`` — offset 0 is the base
    protocol's rotation (Sec. IV).
    """

    n: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one replica")
        if not 0 <= self.offset < self.n:
            raise ValueError(f"offset must be in [0, {self.n}), got {self.offset}")

    def __call__(self, view: int) -> int:
        return (view + self.offset) % self.n

    def bind_replica(self, replica) -> None:
        """Install this map on one replica (and its CHECKER, if any).

        The CHECKER validates proposer identity inside the enclave with
        the same map the replica uses, so reconfiguration must rebind
        both or the TEE would reject every proposal from the offset
        leaders.
        """
        replica.leader_of = self
        checker = getattr(replica, "checker", None)
        if checker is not None and hasattr(checker, "rebind_leader_map"):
            checker.rebind_leader_map(self)

    def bind_cluster(self, cluster) -> None:
        """Install this map on every replica of ``cluster``."""
        if cluster.config.n != self.n:
            raise ValueError(
                f"leader map for n={self.n} bound to cluster with "
                f"n={cluster.config.n}"
            )
        for replica in cluster.replicas:
            self.bind_replica(replica)


__all__ = ["LeaderMap"]
