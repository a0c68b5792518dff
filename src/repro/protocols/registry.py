"""Protocol registry: name → replica class + resilience metadata.

The experiment harness looks protocols up by name; listing a replica
class here is all that is needed for a protocol to participate in every
experiment (its name and resilience come from the class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from ..core import OneShotReplica
from ..core.chained import ChainedOneShotReplica
from .common import BaseReplica
from .damysus import DamysusReplica
from .damysus.chained import ChainedDamysusReplica
from .hotstuff import HotStuffReplica
from .hotstuff.chained import ChainedHotStuffReplica


@dataclass(frozen=True)
class ProtocolInfo:
    """Registry entry for one protocol."""

    name: str
    replica_cls: Type[BaseReplica]

    @property
    def n_factor(self) -> int:
        """n = factor * f + 1 (minimum cluster size for f faults)."""
        return self.replica_cls.MIN_N_FACTOR

    def n_for(self, f: int) -> int:
        """Smallest cluster tolerating ``f`` faults."""
        return self.n_factor * f + 1


REGISTRY: dict[str, ProtocolInfo] = {
    cls.PROTOCOL: ProtocolInfo(cls.PROTOCOL, cls)
    for cls in (
        OneShotReplica,
        ChainedOneShotReplica,
        DamysusReplica,
        ChainedDamysusReplica,
        HotStuffReplica,
        ChainedHotStuffReplica,
    )
}


def get_protocol(name: str) -> ProtocolInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(REGISTRY)}"
        ) from None


__all__ = ["ProtocolInfo", "REGISTRY", "get_protocol"]
