"""Basic HotStuff replica (PODC'19) — the 8-step, 3-core-phase baseline.

N ≥ 3f+1, quorums of 2f+1.  Per view: new-view (½), prepare,
pre-commit, commit phases and the decide (½) step, with the lock-commit
safety rule: a replica votes for a proposal only if it extends its
locked block or carries a newer prepareQC (``safeNode``).

No trusted components: votes are replica-key signatures; QCs are
ECDSA signature lists (as in the paper's C++ baseline), so verifying a
QC costs 2f+1 signature checks.
"""

from __future__ import annotations

from ...crypto import Digest
from ...metrics import NORMAL
from ...smr import GENESIS
from ..common import BaseReplica
from .certificates import (
    HS_COMMIT,
    HS_GENESIS_QC,
    HS_PRECOMMIT,
    HS_PREPARE,
    HsQC,
    HsVote,
)
from .messages import (
    HsFetchReq,
    HsFetchResp,
    HsNewViewMsg,
    HsProposalMsg,
    HsQcMsg,
    HsVoteMsg,
)


class HotStuffReplica(BaseReplica):
    """A Basic HotStuff replica."""

    MIN_N_FACTOR = 3
    PROTOCOL = "hotstuff"
    HANDLERS = {
        HsNewViewMsg: "on_new_view",
        HsProposalMsg: "on_proposal",
        HsVoteMsg: "on_vote",
        HsQcMsg: "on_qc",
    }
    FETCH = (HsFetchReq, HsFetchResp)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Highest QC known (prepareQC; Algorithm 5's genericQC).
        self.prepare_qc: HsQC = HS_GENESIS_QC
        self.locked_qc: HsQC = HS_GENESIS_QC
        self._nv_tracker = self.tracker(self.config.n - self.config.f)
        #: (view, hash) of the proposal this replica last accepted.
        self._accepted: tuple[int, Digest] = (-1, GENESIS.hash)

    # ------------------------------------------------------------------
    # View entry / timeout (new-view interrupt)
    # ------------------------------------------------------------------
    def on_enter_view(self, view: int) -> None:
        self._send_new_view(view)

    def _send_new_view(self, view: int) -> None:
        done = max(self.sim.now, self.cpu.busy_until)
        self.send_at(done, self.leader_of(view), HsNewViewMsg(view, self.prepare_qc))

    # ------------------------------------------------------------------
    # Leader: prepare phase
    # ------------------------------------------------------------------
    def on_new_view(self, sender: int, msg: HsNewViewMsg) -> None:
        if msg.view < self.view or self.leader_of(msg.view) != self.pid:
            return
        quorum = self._nv_tracker.add(msg.view, sender, msg)
        if quorum is None:
            return
        if msg.view > self.view:
            self.enter_view(msg.view)
        if msg.view != self.view or self._led_view >= self.view:
            return
        high_qc = max((m.justify for m in quorum), key=lambda qc: qc.view)
        if high_qc.view < self.prepare_qc.view:
            high_qc = self.prepare_qc
        # Verify the selected highQC (implementations verify lazily:
        # only the QC actually adopted, not every carried copy).
        if not self._known_valid(high_qc) and not self.check_qc(high_qc):
            return
        self._propose(high_qc)

    def _known_valid(self, qc: HsQC) -> bool:
        """Whether adopting ``qc`` as highQC needs no signature check."""
        return qc.is_genesis

    def _propose(self, justify: HsQC) -> None:
        block = self.new_leaf(justify.block_hash)
        self.record_proposal(block)
        done = max(self.sim.now, self.cpu.busy_until)
        self.broadcast_at(done, HsProposalMsg(block, self.view, justify))

    # ------------------------------------------------------------------
    # Replicas: prepare vote (safeNode rule)
    # ------------------------------------------------------------------
    def _safe_node(self, block, justify: HsQC) -> bool:
        """HotStuff's safety + liveness voting rule."""
        if justify.view > self.locked_qc.view:
            return True  # liveness rule
        if block.parent == self.locked_qc.block_hash:
            return True
        return self.store.extends_plus(block.parent, self.locked_qc.block_hash)

    def _admit(self, sender: int, msg: HsProposalMsg) -> bool:
        """Validate a proposal (leader, highQC, extension, safeNode) and
        enter its view; True iff it is for the view now current."""
        v = msg.view
        if v < self.view or sender != self.leader_of(v):
            return False
        if sender != self.pid and not self.check_qc(
            msg.justify,
            extra_cost=self.config.crypto_costs.hash(msg.block.wire_size()),
        ):
            return False
        if not msg.block.extends(msg.justify.block_hash):
            return False
        if not self._safe_node(msg.block, msg.justify):
            return False
        if v > self.view:
            self.enter_view(v)
        return v == self.view

    def on_proposal(self, sender: int, msg: HsProposalMsg) -> None:
        if not self._admit(sender, msg):
            return
        self.add_block(msg.block)
        self._accepted = (msg.view, msg.block.hash)
        self._register_qc(msg.justify)
        self._send_vote(HS_PREPARE, msg.view, msg.block.hash, sender)

    def _register_qc(self, qc: HsQC) -> None:
        if qc.view > self.prepare_qc.view:
            self.prepare_qc = qc

    def _send_vote(self, phase: str, view: int, h: Digest, to: int) -> None:
        self.charge(self.config.crypto_costs.sign())
        sig = self.creds.keypair.sign(HsVote.content_digest(phase, view, h))
        vote = HsVote(phase, view, h, sig)
        done = max(self.sim.now, self.cpu.busy_until)
        self.send_at(done, to, HsVoteMsg(vote))

    # ------------------------------------------------------------------
    # Leader: combine votes into QCs (steps 4/6/8)
    # ------------------------------------------------------------------
    def on_vote(self, sender: int, msg: HsVoteMsg) -> None:
        vote = msg.vote
        v = self.view
        if vote.view != v or self._led_view != v:
            return
        if self._accepted != (v, vote.block_hash):
            return
        qc = self.collect_vote(sender, vote)
        if qc is not None:
            done = max(self.sim.now, self.cpu.busy_until)
            self.broadcast_at(done, HsQcMsg(qc))

    # ------------------------------------------------------------------
    # Replicas: phase transitions on QCs (steps 5/7 and decide)
    # ------------------------------------------------------------------
    def on_qc(self, sender: int, msg: HsQcMsg) -> None:
        qc = msg.qc
        v = qc.view
        if v < self.view or sender != self.leader_of(v):
            return
        if sender != self.pid and not self.check_qc(qc):
            return
        if qc.phase == HS_PREPARE:
            if v != self.view:
                return
            self._register_qc(qc)
            self._send_vote(HS_PRECOMMIT, v, qc.block_hash, sender)
        elif qc.phase == HS_PRECOMMIT:
            if v != self.view:
                return
            if qc.view > self.locked_qc.view:
                self.locked_qc = qc  # lock
            self._send_vote(HS_COMMIT, v, qc.block_hash, sender)
        elif qc.phase == HS_COMMIT:
            # Decide: execute and move on.
            if v > self.view:
                self.enter_view(v)
            if v != self.view:
                return
            self.commit_chain(qc.block_hash, NORMAL, context=qc)
            self.record_decision_progress()
            self.enter_view(v + 1)


__all__ = ["HotStuffReplica"]
