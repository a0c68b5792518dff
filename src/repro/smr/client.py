"""Clients: submission, reply collection, end-to-end latency.

A client broadcasts each transaction to every replica (so a faulty
leader cannot censor it silently) and waits for replies sent when the
transaction's block executes.  Two trust modes:

* ``certified`` — a *single* reply suffices because it forwards the
  prepare certificate (OneShot, Sec. VI-C: "a single message is
  therefore enough for a client to trust a reply");
* quorum — ``f+1`` matching replies from distinct replicas (HotStuff /
  Damysus style).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from ..net import Network
from ..sim import Process, Simulator
from .transaction import TxBatch


@dataclass(frozen=True)
class SubmitTxBatch:
    """Client → replica submission: one immutable slab (the engines'
    arrivals, the 2PC coordinator's markers, a KV client's one row).
    ``wants_replies`` asks the replica to route a :class:`Reply` for the
    slab's client ids back to the sender; the engines' virtual clients
    leave it off (measured at commit).
    """

    batch: TxBatch
    wants_replies: bool = False

    def wire_size(self) -> int:
        return 8 + self.batch.wire_size()


@dataclass(frozen=True)
class Reply:
    """Replica → client execution notification: one per block per
    client, naming every packed key (``client_id << 32 | tx_id``) of
    that client the block carried.  ``certified`` marks replies carrying
    a forwarded prepare certificate (trustable in isolation).
    """

    tx_keys: tuple[int, ...]
    view: int
    replica: int
    certified: bool = False

    def wire_size(self) -> int:
        # view + flag + 8 B per tx key (+ certificate bytes when certified)
        return 16 + 8 * len(self.tx_keys) + (80 if self.certified else 0)


#: Default cap on a client's in-flight (submitted, not yet committed)
#: transactions.  It bites only when transactions stop committing
#: (censorship, partitions, runaway load): the oldest entries go, and an
#: evicted transaction's replies are no longer matched.
DEFAULT_MAX_INFLIGHT = 100_000


class Client(Process):
    """A closed-loop or scripted client.

    Its bookkeeping is keyed by ``tx_id`` (its client id is its pid);
    a reply's keys of other clients are ignored.

    **Bounded bookkeeping.**  The in-flight (``_inflight``: submit time)
    and reply-voter (``_reply_counts``) entries of a transaction are
    popped the moment it commits, leaving its latency in ``committed``.
    Entries for transactions that *never* commit are capped at
    ``max_inflight`` (oldest evicted first), so no dict grows without
    bound over a long open-loop run.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: int,
        replica_pids: list[int],
        f: int,
        payload_bytes: int = 0,
        certified_replies: bool = False,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        super().__init__(sim, pid, name=f"client{pid}")
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.network = network
        self.replica_pids = list(replica_pids)
        self._replicas = frozenset(self.replica_pids)
        self.f = f
        self.certified_replies = certified_replies
        self.max_inflight = max_inflight
        self.payload_bytes = payload_bytes
        self._next_tx_id = 0
        # OrderedDict so the cap eviction unlinks the oldest entry in
        # O(1); popping a plain dict's front rescans prior tombstones.
        self._inflight: OrderedDict[int, float] = OrderedDict()
        self._reply_counts: dict[int, set[int]] = {}
        self.committed: dict[int, float] = {}
        network.register(self)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, op: Any = None) -> int:
        """Broadcast a transaction carrying ``op`` as a one-row slab;
        returns its tx id (ids count up from 0)."""
        tx_id = self._next_tx_id
        batch = TxBatch.columns([self.pid], [tx_id], self.payload_bytes, [op])
        self._next_tx_id += 1
        if len(self._inflight) >= self.max_inflight:
            stale, _ = self._inflight.popitem(last=False)
            self._reply_counts.pop(stale, None)
        self._inflight[tx_id] = self.sim.now
        self.network.multicast(
            self.pid, self.replica_pids, SubmitTxBatch(batch, wants_replies=True)
        )
        return tx_id

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def on_message(self, sender: int, payload: Any) -> None:
        # Voters are network senders: ``payload.replica`` is
        # self-declared, so one Byzantine replica could otherwise fill
        # a whole f+1 quorum by itself.
        if not isinstance(payload, Reply) or sender not in self._replicas:
            return
        trusted = self.certified_replies and payload.certified
        for key in payload.tx_keys:
            if key >> 32 != self.pid:
                continue  # another client's row
            tx_id = key & 0xFFFF_FFFF
            if tx_id in self.committed or tx_id not in self._inflight:
                continue
            if not trusted:
                voters = self._reply_counts.setdefault(tx_id, set())
                voters.add(sender)
                if len(voters) <= self.f:
                    continue
            self.committed[tx_id] = self.sim.now - self._inflight.pop(tx_id)
            self._reply_counts.pop(tx_id, None)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def latency(self, tx_id: int) -> Optional[float]:
        """Submit → commit latency of ``tx_id``, or None if still
        pending."""
        return self.committed.get(tx_id)

    def pending(self) -> int:
        return len(self._inflight)


__all__ = [
    "Client",
    "SubmitTxBatch",
    "Reply",
    "DEFAULT_MAX_INFLIGHT",
]
