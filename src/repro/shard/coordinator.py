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
stages nothing).

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
from typing import Optional, Sequence

from ..metrics.streaming import P2Quantile, StreamingMoments
from ..net import Network
from ..sim import Process, Simulator
from ..smr import Reply, SubmitTx, Transaction

#: The coordinator's pid on every shard's network (also its client id
#: in the marker transactions, so replicas route replies back to it).
COORDINATOR_PID = 95_000

#: Default prepare deadline (seconds) before a presumed abort.
DEFAULT_PREPARE_TIMEOUT = 8.0


class ShardPort(Process):
    """The coordinator's endpoint on one shard's network."""

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

    def submit(self, replica_pids: Sequence[int], tx: Transaction) -> None:
        """Broadcast a marker transaction to every replica (so a faulty
        leader cannot censor it silently — same policy as clients)."""
        self.network.multicast(self.pid, replica_pids, SubmitTx(tx))


@dataclass
class _PendingTx:
    """Coordinator-side state of one in-flight cross-shard tx."""

    xid: int
    shards: tuple[int, ...]
    submitted_at: float
    prepared: set[int] = field(default_factory=set)
    #: shard -> replica pids that acked the prepare (quorum counting).
    prepare_acks: dict[int, set[int]] = field(default_factory=dict)
    decided: Optional[str] = None  # "commit" | "abort"


class Coordinator(Process):
    """2PC coordinator across shard consensus groups.

    One instance per sharded run; it owns a :class:`ShardPort` per
    shard and drives every cross-shard transaction through
    prepare → decision.  Per-transaction state is dropped at decision
    time; only counters and streaming latency sketches persist, so the
    coordinator is O(in-flight), not O(history).
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
        self.ports = [
            ShardPort(sim, net, s, self)
            for s, net in enumerate(shard_networks)
        ]
        self.replica_pids = [list(p) for p in shard_replica_pids]
        self.ack_quorum = 1 if certified_replies else f + 1
        self.prepare_timeout = prepare_timeout
        self._pending: dict[int, _PendingTx] = {}
        self._next_xid = 0
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
    def submit_transfer(self, home: int, partner: int, payload_bytes: int = 0) -> int:
        """Start 2PC for a one-unit transfer ``home`` → ``partner``."""
        if home == partner:
            raise ValueError("cross-shard tx must touch two distinct shards")
        xid = self._next_xid
        self._next_xid += 1
        shards = (home, partner)
        self._pending[xid] = _PendingTx(
            xid=xid, shards=shards, submitted_at=self.sim.now
        )
        self.submitted += 1
        legs = {
            home: (("add", f"acct{home}", -1),),
            partner: (("add", f"acct{partner}", 1),),
        }
        for shard in shards:
            tx = Transaction(
                client_id=COORDINATOR_PID,
                tx_id=2 * xid,
                payload_bytes=payload_bytes,
                op=("xprepare", xid, legs[shard]),
                submit_time=self.sim.now,
            )
            self.ports[shard].submit(self.replica_pids[shard], tx)
        self.after(self.prepare_timeout, self._deadline, xid)
        return xid

    # ------------------------------------------------------------------
    # Replies from shard replicas
    # ------------------------------------------------------------------
    def on_shard_message(self, shard: int, sender: int, payload) -> None:
        if not isinstance(payload, Reply):
            return
        client_id, tx_id = payload.tx_key
        if client_id != COORDINATOR_PID or tx_id % 2 != 0:
            return  # decision acks need no tracking
        xid = tx_id // 2
        pend = self._pending.get(xid)
        if pend is None or pend.decided is not None or shard in pend.prepared:
            return
        acks = pend.prepare_acks.setdefault(shard, set())
        acks.add(payload.replica)
        certified_enough = payload.certified and self.ack_quorum == 1
        if certified_enough or len(acks) >= self.ack_quorum:
            pend.prepared.add(shard)
            if len(pend.prepared) == len(pend.shards):
                self._decide(pend, "commit")

    def _deadline(self, xid: int) -> None:
        pend = self._pending.get(xid)
        if pend is not None and pend.decided is None:
            self._decide(pend, "abort")

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, pend: _PendingTx, outcome: str) -> None:
        pend.decided = outcome
        op = ("xcommit", pend.xid) if outcome == "commit" else ("xabort", pend.xid)
        for shard in pend.shards:
            tx = Transaction(
                client_id=COORDINATOR_PID,
                tx_id=2 * pend.xid + 1,
                op=op,
                submit_time=self.sim.now,
            )
            self.ports[shard].submit(self.replica_pids[shard], tx)
        if outcome == "commit":
            self.committed += 1
        else:
            self.aborted += 1
        latency = self.sim.now - pend.submitted_at
        self.decision_latency.add(latency)
        self.decision_p99.add(latency)
        self.decision_log.append((pend.xid, outcome, self.sim.now))
        del self._pending[pend.xid]

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
