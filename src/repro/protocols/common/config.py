"""Cluster/protocol configuration shared by all three protocols."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ...crypto import T2_MICRO, CryptoCostModel
from ...tee import TeeCostModel


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of a protocol instance.

    ``n`` and ``f`` must satisfy the protocol's resilience bound:
    ``n >= 2f+1`` for OneShot/Damysus, ``n >= 3f+1`` for HotStuff —
    checked by :meth:`validate` when a replica is built.  The replica
    derives its quorum size from ``f``
    (:meth:`~repro.protocols.common.BaseReplica.quorum_for`).

    The class constants are the same for every run.
    """

    #: SGX boundary-crossing costs of every enclave.
    tee_costs: ClassVar[TeeCostModel] = TeeCostModel()
    #: Cap on the view timeout after backoff (seconds).
    timeout_max: ClassVar[float] = 60.0
    #: Fixed per-message handling overhead (dispatch, deserialization).
    handler_overhead: ClassVar[float] = 5e-6
    #: Replicas send Reply messages to registered clients.
    reply_to_clients: ClassVar[bool] = True

    n: int
    f: int
    crypto_costs: CryptoCostModel = T2_MICRO
    #: Base view timeout (seconds) before exponential backoff.
    timeout_base: float = 2.0
    #: Backoff multiplier per consecutive failed view.
    timeout_backoff: float = 2.0
    #: Highest-view gossip on timeout (the minimal view synchronizer).
    #: Off reproduces the historical pacemaker, which the fuzzer showed
    #: can livelock HotStuff under a view split (docs/fuzzing.md).
    view_sync: bool = True

    def validate(self, min_n_factor: int) -> None:
        """Check ``n >= min_n_factor * f + 1`` and basic sanity."""
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if self.n < min_n_factor * self.f + 1:
            raise ValueError(
                f"need n >= {min_n_factor}f+1, got n={self.n}, f={self.f}"
            )
        if self.timeout_base <= 0 or self.timeout_backoff < 1:
            raise ValueError("invalid pacemaker parameters")


__all__ = ["ProtocolConfig"]
