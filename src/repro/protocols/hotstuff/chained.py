"""Chained (pipelined) HotStuff — PODC'19, Sec. 5 / Algorithm 5.

One *generic* phase per view: the leader proposes a block carrying the
highest known QC (its justify); replicas vote to the **next** leader,
which assembles the QC and proposes on top.  Commit is by the 3-chain
rule — when blocks b ← b' ← b'' are linked by direct parent edges and
each has a QC, b is decided; the 2-chain prefix locks b (safety).

The pipelined counterpart of
:class:`~repro.protocols.hotstuff.replica.HotStuffReplica`: it inherits
the leader's highQC selection, proposal validation (``safeNode``),
voting and vote collection, and overrides only what pipelining changes
— where votes go, who proposes next, the commit rule, and new-view
traffic only at boot and after a timeout.
"""

from __future__ import annotations

from ...crypto import Digest
from ...metrics import NORMAL
from .certificates import HS_PREPARE, HsQC
from .messages import HsNewViewMsg, HsProposalMsg, HsVoteMsg
from .replica import HotStuffReplica

#: Phase tag used for all chained (generic) votes.
GENERIC = HS_PREPARE


class ChainedHotStuffReplica(HotStuffReplica):
    """Chained HotStuff: one block and two waves per view."""

    PROTOCOL = "hotstuff-chained"
    HANDLERS = {
        HsNewViewMsg: "on_new_view",
        HsProposalMsg: "on_proposal",
        HsVoteMsg: "on_vote",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: block hash -> the QC certifying it (set when first seen).  An
        #: executed block's QC is dropped: it can neither decide nor lock
        #: (the lock already certifies a newer block).
        self._qc_of: dict[Digest, HsQC] = self.block_map()
        self._voted_view = -1

    # ------------------------------------------------------------------
    # View entry / timeout
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Bootstrap: elect view 0's leader with new-view messages.
        self._send_new_view(0)

    def on_enter_view(self, view: int) -> None:
        """In steady state the pipeline needs no new-view traffic."""

    def on_timeout(self) -> None:
        # After a timeout the next leader must be told where everyone stands.
        super().on_timeout()
        self._send_new_view(self.view)

    def _known_valid(self, qc: HsQC) -> bool:
        # A highQC no newer than this replica's own was checked on arrival.
        return qc.is_genesis or qc.view == self.prepare_qc.view

    # ------------------------------------------------------------------
    # Replicas: generic vote to the NEXT leader + 3-chain commit walk
    # ------------------------------------------------------------------
    def on_proposal(self, sender: int, msg: HsProposalMsg) -> None:
        v = msg.view
        if not self._admit(sender, msg) or self._voted_view >= v:
            return
        self.add_block(msg.block)
        # A valid proposal is pipeline progress: reset the backoff even
        # when the 3-chain commit still lags (e.g. around failed views).
        self.note_progress()
        self._register_qc(msg.justify)
        self._chain_update(msg.justify)
        # Vote to the next view's leader (pipelining).
        self._voted_view = v
        self._send_vote(GENERIC, v, msg.block.hash, self.leader_of(v + 1))

    def _register_qc(self, qc: HsQC) -> None:
        super()._register_qc(qc)
        if not qc.is_genesis:
            self._qc_of.setdefault(qc.block_hash, qc)

    def _chain_update(self, qc: HsQC) -> None:
        """Algorithm 5's lock & decide rules over the justify chain.

        ``qc`` certifies b2; if b2's parent b1 also has a QC, lock b1
        (2-chain); if additionally b1's parent b0 has a QC, decide b0
        (3-chain with direct parent links).
        """
        b2 = self.store.get(qc.block_hash)
        if b2 is None:
            return
        qc1 = self._qc_of.get(b2.parent)
        if qc1 is None:
            return
        if qc1.view > self.locked_qc.view:
            self.locked_qc = qc1  # PRE-COMMIT (lock) on the 2-chain
        b1 = self.store.get(qc1.block_hash)
        if b1 is None:
            return
        qc0 = self._qc_of.get(b1.parent)
        if qc0 is None or qc0.is_genesis:
            return
        # DECIDE: 3-chain b0 <- b1 <- b2 with direct parent links.
        if not self.log.is_executed(qc0.block_hash):
            self.commit_chain(qc0.block_hash, NORMAL, context=qc0)
            self.record_decision_progress()

    # ------------------------------------------------------------------
    # Next leader: assemble the QC and keep the pipeline moving
    # ------------------------------------------------------------------
    def on_vote(self, sender: int, msg: HsVoteMsg) -> None:
        vote = msg.vote
        v = vote.view  # votes of view v elect the leader of v+1
        if self.leader_of(v + 1) != self.pid or v + 1 < self.view:
            return
        qc = self.collect_vote(sender, vote)
        if qc is None:
            return
        self._register_qc(qc)
        self._chain_update(qc)
        if v + 1 > self.view:
            self.enter_view(v + 1)
        if self.view != v + 1 or self._led_view >= self.view:
            return
        self._propose(qc)


__all__ = ["ChainedHotStuffReplica"]
