"""Damysus replica (baseline) — the six-step view of Sec. III.

1. **new-view**: every replica's CHECKER signs a commitment with its
   latest prepared (view, hash) pair, sent to the view's leader.
2. **prepare (a)**: the leader feeds f+1 commitments to its
   ACCUMULATOR, extends the highest prepared block, and broadcasts the
   proposal with the accumulator's certificate.
3. **prepare (b)**: replicas verify and reply with a prepare vote.
4. **pre-commit (a)**: the leader combines f+1 prepare votes into a
   certificate and broadcasts it.
5. **pre-commit (b)**: replicas store the prepared pair *inside the
   CHECKER* (which verifies the quorum in-enclave) and reply with a
   commit vote.
6. **decide**: the leader broadcasts the combined commit certificate
   and replicas execute.

Replicas skip signature verification for material they produced
themselves (loopback deliveries), as a real implementation would.
"""

from __future__ import annotations

from typing import Optional

from ...crypto import Digest
from ...metrics import NORMAL
from ...smr import GENESIS
from ..common import BaseReplica
from .certificates import PREPARE, DamProposal, Justify
from .messages import (
    DamCertMsg,
    DamFetchReq,
    DamFetchResp,
    DamNewViewMsg,
    DamProposalMsg,
    DamVoteMsg,
)
from .tee_services import DamysusAccumulator, DamysusChecker


class DamysusReplica(BaseReplica):
    """A Damysus replica (N = 2f+1, two core phases)."""

    PROTOCOL = "damysus"
    HANDLERS = {
        DamNewViewMsg: "on_new_view",
        DamProposalMsg: "on_proposal",
        DamVoteMsg: "on_vote",
        DamCertMsg: "on_cert",
    }
    FETCH = (DamFetchReq, DamFetchResp)
    #: CHECKER enclave class and the proposal message it feeds.
    CHECKER = DamysusChecker
    PROPOSAL_MSG = DamProposalMsg

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.checker = self.CHECKER(
            self.pid,
            self.creds.keypair,
            self.ring,
            cfg.crypto_costs,
            cfg.tee_costs,
            self.quorum,
        )
        self.accumulator = DamysusAccumulator(
            self.pid,
            self.creds.keypair,
            self.ring,
            cfg.crypto_costs,
            cfg.tee_costs,
            self.quorum,
        )
        self._com_tracker = self.tracker()
        #: (view, hash) of the proposal this replica last accepted.
        self._accepted: tuple[int, Digest] = (-1, GENESIS.hash)

    # ------------------------------------------------------------------
    # View entry / timeout: step 1 (new-view)
    # ------------------------------------------------------------------
    def on_enter_view(self, view: int) -> None:
        self._send_commitment(view)

    def _send_commitment(self, view: int) -> None:
        com = self.checker.new_view(view)
        done = self.charge_enclave(self.checker)
        if com is not None:
            self.send_at(done, self.leader_of(view), DamNewViewMsg(com))

    # ------------------------------------------------------------------
    # Leader: accumulate commitments, propose (step 2)
    # ------------------------------------------------------------------
    def on_new_view(self, sender: int, msg: DamNewViewMsg) -> None:
        com = msg.commitment
        if com.view < self.view or self.leader_of(com.view) != self.pid:
            return
        if sender != self.pid and not self.check_sig(com):
            return
        quorum = self._com_tracker.add(com.view, com.sig.signer, com)
        if quorum is None:
            return
        if com.view > self.view:
            self.enter_view(com.view)
        if com.view != self.view or self._led_view >= self.view:
            return
        acc = self.accumulator.tee_accum(quorum)
        self.charge_enclave(self.accumulator)
        if acc is None:  # pragma: no cover - commitments pre-verified
            return
        self._propose(acc.prep_hash, acc)

    def _propose(self, parent: Digest, justify: Justify) -> None:
        block = self.new_leaf(parent)
        prop = self._tee_propose(block.hash)
        done = self.charge_enclave(self.checker)
        if prop is None:
            return
        self.record_proposal(block)
        self.broadcast_at(done, self.PROPOSAL_MSG(block, prop, justify))

    def _tee_propose(self, h: Digest) -> Optional[DamProposal]:
        return self.checker.tee_prepare(h)

    # ------------------------------------------------------------------
    # Replicas: prepare vote (step 3)
    # ------------------------------------------------------------------
    def on_proposal(self, sender: int, msg: DamProposalMsg) -> None:
        prop, acc = msg.proposal, msg.acc
        v = prop.view
        if v < self.view or sender != self.leader_of(v):
            return
        if sender != self.pid:
            self.charge(
                self.config.crypto_costs.verify(2)
                + self.config.crypto_costs.hash(msg.block.wire_size())
            )
            if not (prop.verify(self.ring) and acc.verify(self.ring)):
                return
        if (
            acc.view != v
            or prop.sig.signer != self.leader_of(v)
            or msg.block.hash != prop.block_hash
            or not msg.block.extends(acc.prep_hash)
        ):
            return
        if v > self.view:
            self.enter_view(v)
        if v != self.view:
            return
        self.add_block(msg.block)
        self._accepted = (v, msg.block.hash)
        vote = self.checker.tee_vote_prepare(msg.block.hash)
        done = self.charge_enclave(self.checker)
        if vote is None:
            return
        self.send_at(done, sender, DamVoteMsg(vote))

    # ------------------------------------------------------------------
    # Leader: combine votes (steps 4 & 6)
    # ------------------------------------------------------------------
    def on_vote(self, sender: int, msg: DamVoteMsg) -> None:
        vote = msg.vote
        v = self.view
        if vote.view != v or self._led_view != v:
            return
        if self._accepted != (v, vote.block_hash):
            return
        cert = self.collect_vote(sender, vote)
        if cert is not None:
            done = max(self.sim.now, self.cpu.busy_until)
            self.broadcast_at(done, DamCertMsg(cert))

    # ------------------------------------------------------------------
    # Replicas: store + commit vote (step 5), execute (after step 6)
    # ------------------------------------------------------------------
    def on_cert(self, sender: int, msg: DamCertMsg) -> None:
        cert = msg.cert
        v = cert.view
        if v < self.view or sender != self.leader_of(v):
            return
        if cert.phase == PREPARE:
            if v != self.view:
                return  # prepare certs are only actionable in-view
            # Sec. III: every node verifies message authenticity before
            # processing; the CHECKER then re-verifies inside the
            # enclave before mutating its prepared pair (it cannot
            # trust the untrusted side's check).
            if sender != self.pid and not self.check_qc(cert):
                return
            commit_vote = self.checker.tee_store(cert)
            done = self.charge_enclave(self.checker)
            if commit_vote is None:
                return
            self.send_at(done, sender, DamVoteMsg(commit_vote))
            return
        # COMMIT certificate: verify and execute.
        if sender != self.pid and not self.check_qc(cert):
            return
        if v > self.view:
            self.enter_view(v)
        if v != self.view:
            return
        self.commit_chain(cert.block_hash, NORMAL, context=cert)
        self.record_decision_progress()
        self.enter_view(v + 1)


__all__ = ["DamysusReplica"]
