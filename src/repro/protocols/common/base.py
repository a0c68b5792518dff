"""Replica skeleton shared by OneShot, Damysus and HotStuff.

Provides everything that is *not* a protocol's own rules: CPU cost
charging, deferred sends, the view pacemaker, round-robin leader
election, the quorum size, quorum collection with per-view pruning,
quorum-certificate checks, leaf creation, block storage, block
recovery (Fig. 6 pulling), commit walks (execute a block and its
unexecuted ancestors), client replies, and table-driven message
dispatch.  A protocol subclasses this, declares its message table
(:attr:`BaseReplica.HANDLERS`) and implements the paper's pseudocode
on top; a chained variant subclasses its basic replica and overrides
the steps that pipelining changes.

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
    create_leaf,
)
from ...tee import Credentials
from .config import ProtocolConfig
from .leadermap import LeaderMap
from .pacemaker import Pacemaker, ViewSyncMsg
from .quorum import QuorumTracker


class BaseReplica(Process):
    """Common machinery for a consensus replica."""

    #: Resilience factor: n >= MIN_N_FACTOR * f + 1.
    MIN_N_FACTOR = 2
    #: Protocol name for registries and reports; subclasses set it.
    PROTOCOL = "base"
    #: Whether replies to clients carry a certificate (single-reply trust).
    CERTIFIED_REPLIES = False
    #: Message type (exact) -> name of the method handling it.
    HANDLERS: dict[type, str] = {}
    #: Block-recovery (request, reply) message types, built as
    #: ``FETCH[0](view=, block_hash=)`` and ``FETCH[1](view=, block=)``.
    FETCH: tuple[type, type]
    #: Re-ask the next certifier when no reply came within this long.
    RETRY_S = 1.0
    #: Certificate type a quorum of phase votes combines into
    #: (:meth:`collect_vote`; fields phase, view, block_hash, sigs).
    VOTE_CERT: Optional[type] = None
    #: Once every ``PRUNE_EVERY`` views, per-view state of views more
    #: than ``PRUNE_KEEP`` before the one entered is dropped.
    PRUNE_EVERY = 64
    PRUNE_KEEP = 4

    @classmethod
    def quorum_for(cls, f: int) -> int:
        """Certificate quorum: ``f+1`` at ``n = 2f+1``, ``2f+1`` at ``n = 3f+1``."""
        return (cls.MIN_N_FACTOR - 1) * f + 1

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
        #: view -> leader: deterministic round-robin election (Sec. IV).
        #: A map object rather than a method, so services that check
        #: proposers (OneShot's CHECKER) hold it without holding the
        #: replica; multi-instance drivers rebind it with an offset.
        self.leader_of = LeaderMap(config.n)
        self.pacemaker = Pacemaker(
            config.timeout_base, config.timeout_backoff, config.timeout_max
        )
        # Armed with the replica as argument (see Timer): a bound
        # method held by the timer would be a replica -> timer -> replica
        # reference cycle.
        self.view_timer = self.make_timer(type(self)._view_timeout)
        self.peers = list(range(config.n))
        #: Every replica but this one (a broadcast without loopback).
        self.others = [p for p in self.peers if p != pid]
        self.clients: dict[int, int] = {}
        self.stopped = False
        self.quorum = self.quorum_for(config.f)
        #: Highest view this replica proposed in (leads once per view).
        self._led_view = -1
        #: Quorum trackers holding per-view state (see :meth:`tracker`).
        self._trackers: list[QuorumTracker] = []
        #: Per-block maps (see :meth:`block_map`).
        self._block_maps: list[dict[Digest, Any]] = []
        self._pruned_at = 0
        #: Vote collection (:meth:`collect_vote`, OneShot's deliver votes).
        self.votes = self.tracker()
        #: hash -> (view, certifiers, index of the next one): pulls
        #: outstanding (:meth:`pull`).
        self._pulls: dict[Digest, tuple[int, tuple[int, ...], int]] = {}
        #: (requester, hash) -> view answered in (answer once, Sec. VI-E).
        self._answered: dict[tuple[int, Digest], int] = {}
        #: hash -> (exec kind, triggering certificate) awaiting ancestors.
        self._pending_commits: dict[Digest, tuple[str, Any]] = {}
        #: message type -> (function, whether handling costs CPU time).
        self._handlers = self.handler_table(config.view_sync)
        network.register(self)

    @classmethod
    def handler_table(
        cls, view_sync: bool
    ) -> dict[Type, tuple[Callable[..., None], bool]]:
        """Message type -> (plain function called as ``fn(replica,
        sender, payload)``, whether handling costs CPU time).

        Built once per class and view-sync setting, from
        :attr:`HANDLERS`, :attr:`FETCH` and the skeleton's own
        handlers, and shared by every instance.  Functions rather than
        bound methods: a table of a replica's own bound methods, held
        by that replica, would make every replica a reference cycle.
        The tables live on the class, so a fault subclass built per run
        takes its tables with it when it goes.
        """
        tables = cls.__dict__.get("_handler_tables")
        if tables is None:
            tables = {}
            cls._handler_tables = tables
        table = tables.get(view_sync)
        if table is None:
            # Client submissions are not charged the dispatch overhead.
            table = {SubmitTxBatch: (cls._on_submit_batch, False)}
            if view_sync:
                table[ViewSyncMsg] = (cls._on_view_sync, True)
            for mtype, name in cls.HANDLERS.items():
                table[mtype] = (getattr(cls, name), True)
            table[cls.FETCH[0]] = (cls.on_pull_request, True)
            table[cls.FETCH[1]] = (cls.on_pull_reply, True)
            tables[view_sync] = table
        return table

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Signature and certificate checks, quorum collection
    # ------------------------------------------------------------------
    def check_sig(self, signed: Any) -> bool:
        """Charge one signature check, then run ``signed.verify``."""
        self.charge(self.config.crypto_costs.verify(1))
        return signed.verify(self.ring)

    def check_qc(self, qc: Any, extra_sigs: int = 0, extra_cost: float = 0.0) -> bool:
        """Charge a quorum certificate's signature checks, then verify
        it against :attr:`quorum`.

        ``extra_sigs`` further signatures and ``extra_cost`` seconds of
        other work checked in the same step go into the same charge.
        """
        self.charge(
            self.config.crypto_costs.verify(len(qc.sigs) + extra_sigs) + extra_cost
        )
        return qc.verify(self.ring, self.quorum)

    def tracker(self, threshold: Optional[int] = None) -> QuorumTracker:
        """A quorum tracker (default threshold :attr:`quorum`) whose
        per-view keys are pruned as views advance."""
        t = QuorumTracker(self.quorum if threshold is None else threshold)
        self._trackers.append(t)
        return t

    def block_map(self) -> dict[Digest, Any]:
        """A block hash -> value dict that forgets executed blocks of
        views below the pruning horizon (:meth:`prune_below`)."""
        d: dict[Digest, Any] = {}
        self._block_maps.append(d)
        return d

    def prune_below(self, view: int) -> None:
        """Drop per-view state of views below ``view``.

        Only state no handler can still act on may go: every tracker
        key is a view the handlers already reject as stale, and an
        executed block's entry is never needed again (its commit and
        its ancestors' are done).  Pulls and answers go by the view they
        were made in; a pruned pull stops retrying, and the next commit
        attempt that misses its block pulls it afresh.
        """
        for t in self._trackers:
            t.clear_below(view)
        executed, store = self.log.executed, self.store
        for d in self._block_maps:
            for h in [h for h in d if h in executed and store.get(h).view < view]:
                del d[h]
        self._pulls = {h: e for h, e in self._pulls.items() if e[0] >= view}
        self._answered = {k: w for k, w in self._answered.items() if w >= view}

    def collect_vote(self, sender: int, vote: Any) -> Optional[Any]:
        """Count a phase vote — its signature checked unless this
        replica cast it — and return the :attr:`VOTE_CERT` combining
        the first quorum of signers on its (view, phase, block)."""
        if sender != self.pid and not self.check_sig(vote):
            return None
        quorum = self.votes.add(
            (vote.view, vote.phase, vote.block_hash), vote.sig.signer, vote
        )
        if quorum is None:
            return None
        return self.VOTE_CERT(
            phase=vote.phase,
            view=vote.view,
            block_hash=vote.block_hash,
            sigs=tuple(x.sig for x in quorum),
        )

    def transmit(self, when: float, dsts: Sequence[int], payload: Any) -> None:
        """Hand ``payload`` for ``dsts`` to the network at ``when`` — the
        one seam every unicast and broadcast of this replica passes
        through (only pull *requests* go to the network directly, as
        single immediate sends).

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
        every NIC occupancy, delay-hook call, envelope ``seq`` and
        delivery push.  ``multicast`` also keeps the ``send`` loop's RNG
        draws, except before GST with a latency model that draws: there
        it draws all latencies, then all extras, where the loop
        alternated (docs/invariants.md;
        tests/property/test_prop_multicast.py, test_prop_transmit.py).
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
    def on_message(self, sender: int, payload: Any) -> None:
        if self.stopped:
            return
        entry = self._handlers.get(type(payload))
        if entry is not None:
            handler, charged = entry
            if charged:
                self.charge(self.config.handler_overhead)
            handler(self, sender, payload)

    def _on_submit_batch(self, sender: int, msg: SubmitTxBatch) -> None:
        """A slab: the load engines' columns, the 2PC coordinator's
        marker slab or a KV client's one-row slab.

        Only a sender that asks for replies (``wants_replies``) enters
        ``self.clients``: the engines' virtual clients never listen
        (their latency is measured replica-side at commit), so routing
        state for a million virtual client ids would be pure overhead.
        A route is registered per one-client segment, not per row.
        """
        if msg.wants_replies:
            for client_id in msg.batch.distinct_clients():
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
        if view - self._pruned_at >= self.PRUNE_EVERY:
            self._pruned_at = view
            self.prune_below(view - self.PRUNE_KEEP)
        self.view_timer.start(self.pacemaker.current_timeout(), self)
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
        """Called when the current view's timer fires: give up the view."""
        self.enter_view(self.view + 1)

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def new_leaf(self, parent: Digest) -> Block:
        """createLeaf: the mempool's next batch on ``parent`` in this
        view, charged for hashing the block."""
        block = create_leaf(parent, self.view, self.mempool.next_batch(), self.pid)
        self.charge(self.config.crypto_costs.hash(block.wire_size()))
        return block

    def record_proposal(self, block: Block) -> None:
        """This replica proposes ``block`` in the current view: it leads
        the view no more, stores the block and reports it."""
        self._led_view = self.view
        self.add_block(block)
        self.collector.on_propose(self.pid, self.view, block.hash, self.sim.now)

    # ------------------------------------------------------------------
    # Block recovery (Fig. 6 pulling, Sec. VI-E)
    # ------------------------------------------------------------------
    def on_missing_block(self, h: Digest, context: Any) -> None:
        """A commit needs block ``h`` but it is not stored: pull it from
        the signers of ``context``, the certificate that triggered the
        commit (they executed ``h``'s whole chain)."""
        self.pull(self.view, h, context.signer_ids())

    def pull(self, view: int, h: Digest, signer_ids: Sequence[int]) -> None:
        """Fig. 6 l.1-11: ask the certifiers of ``h`` for its block, one
        at a time and skipping this replica, moving to the next one
        every :attr:`RETRY_S` until a reply arrives.  ``view`` goes into
        the request and dates the pull for :meth:`prune_below`."""
        if h in self._pulls or h in self.store or self.log.is_executed(h):
            return
        candidates = tuple(i for i in signer_ids if i != self.pid)
        if candidates:
            self._pulls[h] = (view, candidates, 0)
            self._ask(h)

    def _ask(self, h: Digest) -> None:
        entry = self._pulls.get(h)
        if entry is None or self.stopped:
            return
        view, candidates, idx = entry
        self._pulls[h] = (view, candidates, idx + 1)
        request = self.FETCH[0](view=view, block_hash=h)
        self.network.send(self.pid, candidates[idx % len(candidates)], request)
        self.after(self.RETRY_S, self._ask, h)

    def on_pull_request(self, sender: int, msg: Any) -> None:
        """Fig. 6 l.13-16: send the block, at most once per requester
        and hash (anti-DoS, Sec. VI-E); silent when it is not stored."""
        key = (sender, msg.block_hash)
        block = self.store.get(msg.block_hash)
        if block is None or key in self._answered:
            return
        self._answered[key] = self.view
        done = self.charge(self.config.handler_overhead)
        self.send_at(done, sender, self.FETCH[1](view=msg.view, block=block))

    def on_pull_reply(self, sender: int, msg: Any) -> None:
        """Fig. 6 l.18-20: store the block and stop pulling it.  A block
        nobody pulled costs its hash check and is dropped."""
        self.charge(self.config.crypto_costs.hash(msg.block.wire_size()))
        if self._pulls.pop(msg.block.hash, None) is not None:
            self.add_block(msg.block)

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
                    # Still gaps below: pull the next missing ancestor.
                    self._request_missing_ancestor(h, context)

    def commit_chain(self, h: Digest, kind: str, context: Any) -> bool:
        """Execute the block with hash ``h`` and all unexecuted ancestors.

        Returns False (and remembers the commit for retry) when some
        ancestor block has not been received yet; the *first missing*
        ancestor then goes to :meth:`on_missing_block` — the nodes
        certifying ``context`` executed ``h``'s whole chain, so they
        can serve any block on it.
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
        for client_id, keys in block.txs.keys_by_client(clients).items():
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
            self.view_timer.start(self.pacemaker.current_timeout(), self)

    def record_decision_progress(self) -> None:
        """Common bookkeeping when a view decides."""
        self.note_progress()
        self.collector.on_view_outcome(self.pid, self.view, "decide", self.sim.now)


__all__ = ["BaseReplica"]
