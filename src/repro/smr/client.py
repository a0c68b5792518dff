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
from .transaction import Transaction, TxBatch, TxFactory


@dataclass(frozen=True)
class SubmitTxBatch:
    """Client → replica submission: one immutable
    :class:`~repro.smr.transaction.TxBatch` slab in one message — the
    load engines' arrivals, the 2PC coordinator's marker slabs or a KV
    client's one-row slab, all of them columns.  ``wants_replies`` asks
    the replica to route a :class:`Reply` for the slab's client ids back
    to the sender; the engines' virtual clients leave it off (measured
    at commit).
    """

    batch: TxBatch
    wants_replies: bool = False

    def wire_size(self) -> int:
        return 8 + self.batch.wire_size()


@dataclass(frozen=True)
class Reply:
    """Replica → client execution notification: one per block per
    client, naming every key of that client the block carried.

    ``certified`` marks replies carrying a forwarded prepare
    certificate (trustable in isolation).
    """

    tx_keys: tuple[tuple[int, int], ...]
    view: int
    replica: int
    certified: bool = False
    result: Any = None

    def wire_size(self) -> int:
        # view + flag + 8 B per tx key (+ certificate bytes when certified)
        return 16 + 8 * len(self.tx_keys) + (80 if self.certified else 0)


#: Default cap on a client's in-flight (submitted, not yet committed)
#: transactions.  In a correct run commits drain ``_inflight`` almost as
#: fast as submissions fill it; the cap only bites when transactions
#: stop committing (censorship, partitions, runaway open-loop load), in
#: which case the *oldest* stale entries are evicted so a long run's
#: bookkeeping stays bounded.  An evicted transaction can no longer be
#: matched to replies — its latency is simply not recorded.
DEFAULT_MAX_INFLIGHT = 100_000


class Client(Process):
    """A closed-loop or scripted client.

    **Bounded bookkeeping.**  Per-transaction state is dropped as soon
    as it is no longer needed: the submit-time (``_inflight``) and
    reply-voter (``_reply_counts``) entries for a transaction are popped
    the moment it commits, with the end-to-end latency folded into
    ``_latencies`` at that point.  Entries for transactions that *never*
    commit are capped at ``max_inflight`` (oldest evicted first), so no
    dict grows without bound over a long open-loop run.
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
        self.factory = TxFactory(client_id=pid, payload_bytes=payload_bytes)
        # OrderedDict so the cap eviction unlinks the oldest entry in
        # O(1); popping a plain dict's front rescans prior tombstones.
        self._inflight: OrderedDict[tuple[int, int], float] = OrderedDict()
        self._reply_counts: dict[tuple[int, int], set[int]] = {}
        self._latencies: dict[tuple[int, int], float] = {}
        self.committed: dict[tuple[int, int], float] = {}
        self.results: dict[tuple[int, int], Any] = {}
        #: Stale submissions dropped by the ``max_inflight`` cap.
        self.evicted = 0
        network.register(self)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, op: Any = None) -> Transaction:
        """Create and broadcast a transaction; returns it."""
        tx = self.factory.make(now=self.sim.now, op=op)
        if len(self._inflight) >= self.max_inflight:
            stale, _ = self._inflight.popitem(last=False)
            self._reply_counts.pop(stale, None)
            self.evicted += 1
        self._inflight[tx.key()] = self.sim.now
        self.network.multicast(
            self.pid,
            self.replica_pids,
            SubmitTxBatch(TxBatch.from_transactions([tx]), wants_replies=True),
        )
        return tx

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
            if key in self.committed or key not in self._inflight:
                continue
            if not trusted:
                voters = self._reply_counts.setdefault(key, set())
                voters.add(sender)
                if len(voters) <= self.f:
                    continue
            self._commit(key, payload)

    def _commit(self, key: tuple[int, int], payload: Reply) -> None:
        now = self.sim.now
        self.committed[key] = now
        self.results[key] = payload.result
        # Fold the latency in and drop the per-tx bookkeeping: commit
        # is the last event that needs either entry.
        self._latencies[key] = now - self._inflight.pop(key)
        self._reply_counts.pop(key, None)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def latency(self, tx: Transaction) -> Optional[float]:
        """Submit → commit latency, or None if still pending."""
        return self._latencies.get(tx.key())

    def pending(self) -> int:
        return len(self._inflight)

    def committed_latencies(self) -> list[float]:
        """Latencies of all committed transactions (seconds)."""
        return list(self._latencies.values())


__all__ = [
    "Client",
    "SubmitTxBatch",
    "Reply",
    "DEFAULT_MAX_INFLIGHT",
]
