"""Deterministic transaction routing: stable key → slot → shard.

The keyspace is divided into ``slots`` fixed ranges by a splitmix64
hash of the transaction's routing key (its client id, with an optional
hot-key collapse for skewed workloads), and a versioned
:class:`RoutingTable` maps slots to shards.  Rebalancing never changes
*which slot a key hashes to* — it only republishes the slot→shard map
as a new epoch — so routing is stable across reruns by construction
and migrations move whole key ranges.

Python's builtin ``hash`` is salted per interpreter and must never be
used here; :func:`mix64` is the explicit, vectorizable finalizer
(splitmix64) whose output is identical on every run and platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..crypto import Digest, encode, sha256

#: Distinct salts keep the three routing decisions (slot placement,
#: hot-key membership, cross-shard partner choice) independent hashes.
_SLOT_SALT = 0x9E3779B97F4A7C15
_HOT_SALT = 0xC2B2AE3D27D4EB4F
_CROSS_SALT = 0x165667B19E3779F9
#: All hot clients collapse onto this routing key (one hot range).
HOT_ROUTING_KEY = 0x48AF5F00D15EA5E5

DEFAULT_SLOTS = 64


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(_SLOT_SALT)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class RoutingTable:
    """One epoch's immutable slot → shard assignment."""

    epoch: int
    slot_to_shard: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.slot_to_shard:
            raise ValueError("routing table needs at least one slot")
        if min(self.slot_to_shard) < 0:
            raise ValueError("negative shard id in routing table")

    @property
    def slots(self) -> int:
        return len(self.slot_to_shard)

    @property
    def n_shards(self) -> int:
        return max(self.slot_to_shard) + 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.slot_to_shard, dtype=np.int64)

    def table_digest(self) -> Digest:
        # Not memoized: a run reads it once, when it has ended.
        return sha256(encode(("routing-table", (self.epoch, self.slot_to_shard))))


def initial_table(n_shards: int, slots: int = DEFAULT_SLOTS) -> RoutingTable:
    """Epoch-0 table: slots dealt round-robin across shards."""
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if slots < n_shards:
        raise ValueError("need at least one slot per shard")
    return RoutingTable(
        epoch=0, slot_to_shard=tuple(i % n_shards for i in range(slots))
    )


class Router:
    """Versioned deterministic router over columns of arrivals.

    Holds the full :class:`RoutingTable` history (epoch 0 plus every
    rebalance); all routing decisions use the *current* table, and the
    history rides into the run fingerprint so a rebalancing run replays
    byte-identically or not at all.
    """

    def __init__(
        self,
        n_shards: int,
        slots: int = DEFAULT_SLOTS,
        hot_permille: int = 0,
        cross_permille: int = 0,
    ) -> None:
        if not 0 <= hot_permille <= 1000:
            raise ValueError("hot_permille out of [0, 1000]")
        if not 0 <= cross_permille <= 1000:
            raise ValueError("cross_permille out of [0, 1000]")
        if n_shards == 1 and cross_permille:
            raise ValueError("cross-shard traffic needs at least two shards")
        self.n_shards = n_shards
        self.hot_permille = hot_permille
        self.cross_permille = cross_permille
        self.history: list[RoutingTable] = [initial_table(n_shards, slots)]

    @property
    def table(self) -> RoutingTable:
        return self.history[-1]

    @property
    def epoch(self) -> int:
        return self.table.epoch

    def advance(self, slot_to_shard: tuple[int, ...]) -> RoutingTable:
        """Publish a rebalanced table as the next epoch."""
        if len(slot_to_shard) != self.table.slots:
            raise ValueError("rebalance must preserve the slot count")
        table = RoutingTable(
            epoch=self.table.epoch + 1, slot_to_shard=tuple(slot_to_shard)
        )
        self.history.append(table)
        return table

    # ------------------------------------------------------------------
    # Key → slot → shard (vectorized)
    # ------------------------------------------------------------------
    def routing_keys(self, client_ids: np.ndarray) -> np.ndarray:
        """Routing key per row: the client id, with the configured
        fraction of clients collapsed onto one hot key."""
        keys = client_ids.astype(np.uint64)
        if self.hot_permille:
            hot = (keys ^ np.uint64(_HOT_SALT))
            is_hot = mix64(hot) % np.uint64(1000) < np.uint64(self.hot_permille)
            keys = np.where(is_hot, np.uint64(HOT_ROUTING_KEY), keys)
        return keys

    def slots_of(self, client_ids: np.ndarray) -> np.ndarray:
        return (
            mix64(self.routing_keys(client_ids))
            % np.uint64(self.table.slots)
        ).astype(np.int64)

    def classify(self, client_ids: np.ndarray, tx_ids: np.ndarray):
        """Route one slab of arrivals, given as its id columns: per-row
        slot, home shard, cross-shard mask and partner shard.

        Cross-shard membership and the partner shard are hashed from
        the *transaction* identity (client id and tx id), so they are
        stable per transaction but independent of slot placement.
        Returns ``(slots, home, cross_mask, partner)`` numpy arrays
        (``partner[i]`` is meaningful only where ``cross_mask[i]``).
        """
        slots = self.slots_of(client_ids)
        home = self.table.as_array()[slots]
        if not self.cross_permille or self.n_shards < 2:
            cross = np.zeros(len(client_ids), dtype=bool)
            return slots, home, cross, home
        ident = mix64(
            client_ids.astype(np.uint64)
            ^ mix64(tx_ids.astype(np.uint64) ^ np.uint64(_CROSS_SALT))
        )
        cross = ident % np.uint64(1000) < np.uint64(self.cross_permille)
        hop = (ident >> np.uint64(32)) % np.uint64(self.n_shards - 1)
        partner = (home + 1 + hop.astype(np.int64)) % self.n_shards
        return slots, home, cross, partner



__all__ = [
    "DEFAULT_SLOTS",
    "HOT_ROUTING_KEY",
    "Router",
    "RoutingTable",
    "initial_table",
    "mix64",
]
