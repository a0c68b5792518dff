"""Cross-shard commits: 2PC layered on top of consensus decisions.

A multi-shard transaction moves one unit from its home shard's account
to its partner shard's account.  The coordinator submits an
``xprepare`` marker transaction to every touched shard — consensus
orders it into that shard's committed chain, *staging* the local
effects — and, once every touched shard has durably committed its
prepare (observed through client replies: a certified single reply for
OneShot, ``f+1`` matching replies otherwise), submits the ``xcommit``
decision the same way.  If any shard misses the prepare deadline the
decision is ``xabort`` (presumed abort: a late prepare after an abort
stages nothing).  All of it is batched: one marker slab per touched
shard per call or per decision instant, one deadline timer per call,
and one :class:`~repro.smr.Reply` per block listing its marker keys
(packed, ``client_id << 32 | tx_id``; the coordinator unpacks them).

Atomicity therefore rests on two facts the oracle checks:

* a decision is a *consensus-committed* chain entry on each shard, so
  every replica of a shard applies the same outcome at the same log
  position; and
* the coordinator sends ``xcommit`` only after all prepares committed,
  so within each shard the commit always serializes after the prepare.

The coordinator talks to each shard through a :class:`ShardPort` — a
per-shard network endpoint with the well-known pid
:data:`COORDINATOR_PID` — because shard networks are disjoint fabrics
with overlapping replica pids; the port tags replies with its shard id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..metrics.streaming import P2Quantile, StreamingMoments
from ..net import Network
from ..sim import Process, Simulator
from ..smr import Reply, SubmitTxBatch, TxBatch

#: The coordinator's pid on every shard's network (also its client id
#: in the marker transactions, so replicas route replies back to it).
COORDINATOR_PID = 95_000

#: Default prepare deadline (seconds) before a presumed abort.
DEFAULT_PREPARE_TIMEOUT = 8.0

#: A marker's packed key is ``_MARKERS | tx_id``: prepare ``2 * xid``,
#: decision ``2 * xid + 1``.
_MARKERS = COORDINATOR_PID << 32

#: The decision op kinds; every decision marker shares one of these.
XCOMMIT = "xcommit"
XABORT = "xabort"


class ShardPort(Process):
    """The coordinator's endpoint on one shard's network.

    The port points at the coordinator but not the other way round:
    the coordinator sends through the shard networks directly, so the
    two do not form a reference cycle.
    """

    def __init__(
        self, sim: Simulator, network: Network, shard_id: int, coordinator
    ) -> None:
        super().__init__(sim, COORDINATOR_PID, name=f"coord.s{shard_id}")
        self.network = network
        self.shard_id = shard_id
        self.coordinator = coordinator
        network.register(self)

    def on_message(self, sender: int, payload) -> None:
        self.coordinator.on_shard_message(self.shard_id, sender, payload)


@dataclass
class _PendingTx:
    """Coordinator-side state of one in-flight cross-shard tx."""

    xid: int
    shards: tuple[int, ...]
    submitted_at: float
    prepared: set[int] = field(default_factory=set)
    #: shard -> replica pids that acked the prepare (quorum counting).
    prepare_acks: dict[int, set[int]] = field(default_factory=dict)


class Coordinator(Process):
    """2PC coordinator across shard consensus groups.

    One instance per sharded run; it registers a :class:`ShardPort` on
    each shard's network and drives every cross-shard transaction
    through prepare → decision.  The pending table is O(in-flight); counters
    and latency sketches are O(1); ``decision_log`` is O(history), one
    record per decided transfer, because the fingerprint folds it.
    """

    def __init__(
        self,
        sim: Simulator,
        shard_networks: Sequence[Network],
        shard_replica_pids: Sequence[Sequence[int]],
        f: int,
        certified_replies: bool,
        prepare_timeout: float = DEFAULT_PREPARE_TIMEOUT,
    ) -> None:
        super().__init__(sim, COORDINATOR_PID + 1, name="coordinator")
        if len(shard_networks) != len(shard_replica_pids):
            raise ValueError("one replica pid list per shard network")
        if prepare_timeout <= 0:
            raise ValueError("prepare_timeout must be positive")
        self.networks = list(shard_networks)
        for shard, network in enumerate(self.networks):
            ShardPort(sim, network, shard, self)
        self.replica_pids = [list(p) for p in shard_replica_pids]
        self._replicas = [frozenset(p) for p in self.replica_pids]
        # A reply alone acks only if certified *and* the protocol certifies.
        self.certified_replies = certified_replies
        self.ack_quorum = f + 1
        self.prepare_timeout = prepare_timeout
        self._pending: dict[int, _PendingTx] = {}
        self._next_xid = 0
        #: A transfer's staged leg on each side, one tuple per shard and
        #: sign, shared by every prepare marker that stages it.
        self._legs = [
            {delta: (("add", f"acct{shard}", delta),) for delta in (-1, 1)}
            for shard in range(len(shard_networks))
        ]
        # Outcome counters + streaming commit-latency sketches.
        self.submitted = 0
        self.committed = 0
        self.aborted = 0
        self.decision_latency = StreamingMoments()
        self.decision_p99 = P2Quantile(0.99)
        #: (xid, outcome, decision_time) in decision order — folded into
        #: the shard fingerprint so 2PC scheduling drift is detectable.
        self.decision_log: list[tuple[int, str, float]] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_transfers(
        self, pairs: Sequence[tuple[int, int]], payload_bytes: int = 0
    ) -> range:
        """Start 2PC for one-unit transfers ``home`` → ``partner``, one
        per pair; returns their xids, minted in pair order."""
        if any(home == partner for home, partner in pairs):
            raise ValueError("cross-shard tx must touch two distinct shards")
        now = self.sim.now
        xids = range(self._next_xid, self._next_xid + len(pairs))
        self._next_xid = xids.stop
        self.submitted += len(pairs)
        markers: dict[int, list[tuple[int, Any]]] = {}
        for xid, (home, partner) in zip(xids, pairs):
            self._pending[xid] = _PendingTx(xid, (home, partner), now)
            for shard, delta in ((home, -1), (partner, 1)):
                op = ("xprepare", xid, self._legs[shard][delta])
                markers.setdefault(shard, []).append((_MARKERS | 2 * xid, op))
        if markers:
            self._send(markers, payload_bytes)
            self.after(self.prepare_timeout, self._deadline, xids)
        return xids

    def _send(
        self, markers: dict[int, list[tuple[int, Any]]], payload_bytes: int = 0
    ) -> None:
        """One marker slab per shard — its ``(packed key, op)`` rows — in
        ascending shard order, to every replica (so a faulty leader
        cannot censor it silently)."""
        for shard in sorted(markers):
            keys, ops = zip(*markers[shard])
            slab = TxBatch.from_keys(keys, payload_bytes, ops)
            self.networks[shard].multicast(
                COORDINATOR_PID,
                self.replica_pids[shard],
                SubmitTxBatch(slab, wants_replies=True),
            )

    # ------------------------------------------------------------------
    # Replies from shard replicas
    # ------------------------------------------------------------------
    def on_shard_message(self, shard: int, sender: int, payload) -> None:
        # Voters are network senders, not the self-declared ``replica``.
        if not isinstance(payload, Reply) or sender not in self._replicas[shard]:
            return
        trusted = self.certified_replies and payload.certified
        done: list[_PendingTx] = []
        for key in payload.tx_keys:
            client_id, tx_id = key >> 32, key & 0xFFFF_FFFF
            if client_id != COORDINATOR_PID or tx_id % 2 != 0:
                continue  # decision acks need no tracking
            pend = self._pending.get(tx_id // 2)
            if pend is None or shard in pend.prepared:
                continue
            acks = pend.prepare_acks.setdefault(shard, set())
            acks.add(sender)
            if trusted or len(acks) >= self.ack_quorum:
                pend.prepared.add(shard)
                if len(pend.prepared) == len(pend.shards):
                    done.append(pend)
        self._decide(done, "commit")

    def _deadline(self, xids: range) -> None:
        self._decide([p for p in map(self._pending.get, xids) if p], "abort")

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, pends: list[_PendingTx], outcome: str) -> None:
        now = self.sim.now
        kind = XCOMMIT if outcome == "commit" else XABORT
        markers: dict[int, list[tuple[int, Any]]] = {}
        for pend in pends:
            op = (kind, pend.xid)
            for shard in pend.shards:
                markers.setdefault(shard, []).append((_MARKERS | 2 * pend.xid + 1, op))
            latency = now - pend.submitted_at
            self.decision_latency.add(latency)
            self.decision_p99.add(latency)
            self.decision_log.append((pend.xid, outcome, now))
            del self._pending[pend.xid]
        if outcome == "commit":
            self.committed += len(pends)
        else:
            self.aborted += len(pends)
        self._send(markers)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def on_message(self, sender: int, payload) -> None:
        """The coordinator itself is not on any fabric; ports relay."""


__all__ = [
    "COORDINATOR_PID",
    "Coordinator",
    "DEFAULT_PREPARE_TIMEOUT",
    "ShardPort",
]
