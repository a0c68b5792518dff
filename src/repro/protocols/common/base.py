"""Replica base class shared by OneShot, Damysus and HotStuff.

Provides everything that is *not* protocol logic: CPU cost charging,
deferred sends, the view pacemaker, round-robin leader election,
block storage, commit walks (execute a block and its unexecuted
ancestors), client replies, and message dispatch.  Protocol packages
subclass this and implement the paper's pseudocode on top.

Replica pids are ``0..n-1``; clients register with pids ≥ 1000.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Type

from ...crypto import Digest
from ...net import Network
from ...metrics import MetricsCollector
from ...sim import Cpu, Process, Simulator
from ...smr import (
    Block,
    BlockStore,
    ChainError,
    ExecutionLog,
    Mempool,
    Reply,
    SubmitTxBatch,
)
from ...tee import Credentials
from .config import ProtocolConfig
from .pacemaker import Pacemaker, ViewSyncMsg


class BaseReplica(Process):
    """Common machinery for a consensus replica."""

    #: Resilience factor: n >= MIN_N_FACTOR * f + 1.
    MIN_N_FACTOR = 2
    #: Protocol name for registries and reports; subclasses set it.
    PROTOCOL = "base"
    #: Whether replies to clients carry a certificate (single-reply trust).
    CERTIFIED_REPLIES = False

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: int,
        config: ProtocolConfig,
        credentials: Credentials,
        mempool: Mempool,
        collector: MetricsCollector,
    ) -> None:
        super().__init__(sim, pid, name=f"r{pid}")
        config.validate(self.MIN_N_FACTOR)
        self.network = network
        self.config = config
        self.creds = credentials
        self.ring = credentials.ring
        self.mempool = mempool
        self.collector = collector
        self.cpu = Cpu(name=f"cpu{pid}")
        self.store = BlockStore()
        self.log = ExecutionLog()
        self.view = 0
        self.pacemaker = Pacemaker(
            config.timeout_base, config.timeout_backoff, config.timeout_max
        )
        self.view_timer = self.make_timer(self._view_timeout)
        self.peers = list(range(config.n))
        #: Every replica but this one (a broadcast without loopback).
        self.others = [p for p in self.peers if p != pid]
        self.clients: dict[int, int] = {}
        self.stopped = False
        #: message type -> (handler, whether handling costs CPU time).
        self._handlers: dict[Type, tuple[Callable[[int, Any], None], bool]] = {}
        #: hash -> (exec kind, triggering certificate) awaiting ancestors.
        self._pending_commits: dict[Digest, tuple[str, Any]] = {}
        # Client submissions are not charged the dispatch overhead.
        self.register_handler(SubmitTxBatch, self._on_submit_batch, charged=False)
        if config.view_sync:
            self.register_handler(ViewSyncMsg, self._on_view_sync)
        network.register(self)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> int:
        """Deterministic round-robin leader election (Sec. IV)."""
        return view % self.config.n

    def is_leader(self, view: Optional[int] = None) -> bool:
        return self.leader_of(self.view if view is None else view) == self.pid

    # ------------------------------------------------------------------
    # CPU accounting and deferred sends
    # ------------------------------------------------------------------
    def charge(self, seconds: float) -> float:
        """Occupy this replica's core; returns the completion time.

        ``self.cpu.occupy(self.sim.now, seconds)`` written out: several
        charges per message make the second frame worth saving
        (equality with ``Resource.occupy`` is a property test).
        """
        if seconds < 0:
            raise ValueError(f"negative duration {seconds!r}")
        cpu = self.cpu
        now = self.sim.now
        busy = cpu.busy_until
        end = (now if busy < now else busy) + seconds
        cpu.busy_until = end
        cpu.total_busy += seconds
        cpu.jobs += 1
        return end

    def charge_enclave(self, enclave) -> float:
        """Drain an enclave's accrued ecall/crypto time onto the CPU."""
        return self.charge(enclave.drain_cost())

    def transmit(self, when: float, dsts: Sequence[int], payload: Any) -> None:
        """Hand ``payload`` for ``dsts`` to the network at ``when`` — the
        one seam every unicast and broadcast of this replica passes
        through (only block-fetch and pull *requests* go to the network
        directly, as single immediate sends).

        ``when`` is when the CPU work producing ``payload`` is done: at
        or before ``now`` the network gets the transmission at once,
        otherwise **one** event at ``when`` hands it over.  One
        destination is a :meth:`Network.send`; several are one
        :meth:`Network.multicast` (payload sized once, one batched
        latency draw, one batched NIC occupancy, one bulk insert of the
        deliveries).

        This equals sending each copy from its own event at ``when``,
        as replicas once did.  Those n events were scheduled back to
        back, so they carried consecutive sequence numbers at one
        timestamp and one priority: nothing could run between them.
        Doing their work in one event therefore keeps the order of
        every NIC occupancy, RNG draw, delay-hook call, envelope ``seq``
        and delivery push, and ``multicast`` is stream-identical to the
        ``send`` loop, pre-GST scalar fallback included
        (tests/property/test_prop_multicast.py, test_prop_transmit.py).
        Only the number of executed events differs.

        Fault behaviours that act on outbound traffic override this
        method — shift ``when``, return without sending, swap
        ``payload`` — and see each transmission once, whatever its
        fan-out (DESIGN.md, "The message path").
        """
        if len(dsts) == 1:
            send, to = self.network.send, dsts[0]
        else:
            send, to = self.network.multicast, dsts
        if when <= self.sim.now:
            send(self.pid, to, payload)
        else:
            self.sim.schedule_at(when, send, self.pid, to, payload)

    def send_at(self, when: float, dst: int, payload: Any) -> None:
        """Unicast once the CPU work producing ``payload`` is done."""
        self.transmit(when, (dst,), payload)

    def broadcast_at(self, when: float, payload: Any, include_self: bool = True) -> None:
        """Send to every replica (optionally not to itself)."""
        self.transmit(when, self.peers if include_self else self.others, payload)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def register_handler(
        self,
        msg_type: Type,
        handler: Callable[[int, Any], None],
        charged: bool = True,
    ) -> None:
        """Dispatch ``msg_type`` (exact type) to ``handler``; ``charged``
        handlers cost ``config.handler_overhead`` of CPU per message."""
        self._handlers[msg_type] = (handler, charged)

    def on_message(self, sender: int, payload: Any) -> None:
        if self.stopped:
            return
        entry = self._handlers.get(type(payload))
        if entry is not None:
            handler, charged = entry
            if charged:
                self.charge(self.config.handler_overhead)
            handler(sender, payload)

    def _on_submit_batch(self, sender: int, msg: SubmitTxBatch) -> None:
        """A slab: the load engines' columns, the 2PC coordinator's
        marker rows or a KV client's one-row slab.

        Only a sender that asks for replies (``wants_replies``) enters
        ``self.clients``: the engines' virtual clients never listen
        (their latency is measured replica-side at commit), so routing
        state for a million virtual client ids would be pure overhead.
        """
        if msg.wants_replies:
            for client_id, _ in msg.batch.keys():
                self.clients[client_id] = sender
        self.mempool.submit_batch(msg.batch)

    # ------------------------------------------------------------------
    # Views and the pacemaker
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the replica: enter view 0 and run the protocol hook."""
        self.enter_view(0)
        self.on_start()

    def enter_view(self, view: int) -> None:
        """Move to ``view`` (monotonic) and re-arm the view timer."""
        if view < self.view:
            raise ValueError(f"view regression {self.view} -> {view}")
        self.view = view
        self.view_timer.start(self.pacemaker.current_timeout())
        self.on_enter_view(view)

    def _view_timeout(self) -> None:
        if self.stopped:
            return
        self.collector.on_view_outcome(self.pid, self.view, "timeout", self.sim.now)
        self.pacemaker.on_timeout()
        self.on_timeout()
        if self.config.view_sync:
            # Gossip the post-timeout view so cohorts that timed out of
            # different views converge instead of livelocking (see
            # pacemaker.ViewSyncMsg).  Sent after on_timeout: the
            # protocol hook has already advanced self.view.
            self.broadcast_at(
                self.sim.now, ViewSyncMsg(self.view), include_self=False
            )

    def _on_view_sync(self, sender: int, msg: ViewSyncMsg) -> None:
        """Fast-forward toward a strictly higher gossiped view.

        Acts as if this replica's own view timer had fired early: the
        protocol's timeout hook runs so the replica contributes its
        new-view material (OneShot only sends its store certificate on
        the timeout path), then any remaining multi-view gap is jumped
        directly.  The pacemaker backoff is *not* inflated — this is
        synchronization, not a failed view.
        """
        if msg.view <= self.view:
            return
        self.on_timeout()
        if msg.view > self.view:
            self.enter_view(msg.view)

    def stop(self) -> None:
        self.stopped = True
        self.view_timer.cancel()

    # Protocol hooks -----------------------------------------------------
    def on_start(self) -> None:
        """Called once at boot (after entering view 0)."""

    def on_enter_view(self, view: int) -> None:
        """Called whenever the replica enters a view."""

    def on_timeout(self) -> None:
        """Called when the current view's timer fires."""
        raise NotImplementedError

    def on_missing_block(self, h: Digest, context: Any = None) -> None:
        """A commit needs block ``h`` but it is not stored (fetch hook)."""

    # ------------------------------------------------------------------
    # Blocks and commits
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> None:
        """Store a block and retry any commit that was waiting on it."""
        self.store.add(block)
        if self._pending_commits:
            for h, (kind, context) in list(self._pending_commits.items()):
                if self._try_commit(h, kind):
                    self._pending_commits.pop(h, None)
                else:
                    # Still gaps below: fetch the next missing ancestor.
                    self._request_missing_ancestor(h, context)

    def commit_chain(self, h: Digest, kind: str, context: Any = None) -> bool:
        """Execute the block with hash ``h`` and all unexecuted ancestors.

        Returns False (and remembers the commit for retry) when some
        ancestor block has not been received yet; the protocol's
        fetch/pull hook is invoked on the *first missing* ancestor in
        that case — the nodes certifying ``context`` executed ``h``'s
        whole chain, so they can serve any block on it.
        """
        if self.log.is_executed(h):
            return True
        if self._try_commit(h, kind):
            return True
        self._pending_commits[h] = (kind, context)
        self._request_missing_ancestor(h, context)
        return False

    def first_missing_ancestor(self, h: Digest) -> Optional[Digest]:
        """Deepest hash on ``h``'s ancestry path with no stored block."""
        cur = h
        while not self.log.is_executed(cur):
            blk = self.store.get(cur)
            if blk is None:
                return cur
            cur = blk.parent
        return None

    def _request_missing_ancestor(self, h: Digest, context: Any) -> None:
        missing = self.first_missing_ancestor(h)
        if missing is not None:
            self.on_missing_block(missing, context)

    def _try_commit(self, h: Digest, kind: str) -> bool:
        try:
            path = self.store.path_from(h, self.log.executed)
        except ChainError:
            return False
        # Execution happens once the CPU drains the verification work
        # charged for the triggering certificate.
        now = max(self.sim.now, self.cpu.busy_until)
        for blk in path:
            self.log.execute(blk, now)
            self.collector.on_execute(
                self.pid, blk.view, blk.hash, len(blk.txs), now, kind
            )
            self._reply_clients(blk, now)
        return True

    def _reply_clients(self, block: Block, when: float) -> None:
        self.mempool.mark_committed(block.txs)
        if not self.config.reply_to_clients or not self.clients:
            return
        clients = self.clients
        # One reply per client per block, clients in first-key order.
        keys_by_client: dict[int, list[tuple[int, int]]] = {}
        for key in block.txs.keys_of(clients):
            keys_by_client.setdefault(key[0], []).append(key)
        for client_id, keys in keys_by_client.items():
            self.send_at(
                when,
                clients[client_id],
                Reply(
                    tx_keys=tuple(keys),
                    view=block.view,
                    replica=self.pid,
                    certified=self.CERTIFIED_REPLIES,
                ),
            )

    def note_progress(self) -> None:
        """Reset the timeout backoff on evidence of protocol progress.

        When the reset actually shrinks the timeout (a recovery view
        armed with an inflated backoff), the running view timer is
        re-armed with the fresh value — otherwise the reset would only
        take effect one view later and every recovery cycle would pay
        the stale, doubled timeout.
        """
        inflated = self.pacemaker.consecutive_failures > 0
        self.pacemaker.on_progress()
        if inflated and not self.stopped:
            self.view_timer.start(self.pacemaker.current_timeout())

    def record_decision_progress(self) -> None:
        """Common bookkeeping when a view decides."""
        self.note_progress()
        self.collector.on_view_outcome(self.pid, self.view, "decide", self.sim.now)


__all__ = ["BaseReplica"]
