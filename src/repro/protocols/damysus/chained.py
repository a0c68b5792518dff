"""Chained (pipelined) Damysus.

Sec. III: "Like Chained-HotStuff, Chained-Damysus supports pipelined
operations for improved performance."  One block per view, two waves
per view, and Damysus's 2-chain commit: block b is decided once a
prepare certificate exists for a direct child of b (two TEE-guarded
f+1 quorums on the chain).

* view v's leader proposes ⟨b_v, prop, justify⟩ where ``justify`` is
  either the prepare certificate of b_{v-1} (steady state) or an
  ACCUMULATOR certificate (after a timeout);
* replicas verify the justify *inside the CHECKER*, which records the
  prepared pair and signs a once-per-view vote, sent to view v+1's
  leader;
* on timeout, replicas ship their CHECKER commitment to the next
  leader, whose ACCUMULATOR selects the highest prepared pair — the
  basic protocol's view-change machinery, inherited unchanged from
  :class:`~repro.protocols.damysus.replica.DamysusReplica`.
"""

from __future__ import annotations

from typing import Optional

from ...crypto import Digest
from ...metrics import NORMAL
from .certificates import PREPARE, DamAccum, DamCert, DamProposal
from .messages import ChainedDamProposalMsg, DamNewViewMsg, DamVoteMsg
from .replica import DamysusReplica
from .tee_services import ChainedDamysusChecker


class ChainedDamysusReplica(DamysusReplica):
    """Chained Damysus: one block per view, 2-chain commit."""

    PROTOCOL = "damysus-chained"
    HANDLERS = {
        DamNewViewMsg: "on_new_view",
        ChainedDamProposalMsg: "on_proposal",
        DamVoteMsg: "on_vote",
    }
    CHECKER = ChainedDamysusChecker
    PROPOSAL_MSG = ChainedDamProposalMsg

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: block hash -> prepare certificate (for the 2-chain walk).
        self._cert_of: dict[Digest, DamCert] = self.block_map()

    # ------------------------------------------------------------------
    # Bootstrap & timeout: commitments to the (next) leader
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._send_commitment(0)

    def on_enter_view(self, view: int) -> None:
        """In steady state the pipeline needs no commitments."""

    def on_timeout(self) -> None:
        super().on_timeout()
        self._send_commitment(self.view)

    def _tee_propose(self, h: Digest) -> Optional[DamProposal]:
        return self.checker.tee_propose(h, self.view)

    # ------------------------------------------------------------------
    # Next leader: a quorum of prepare votes certifies the block, and
    # the certificate justifies the next proposal.
    # ------------------------------------------------------------------
    def on_vote(self, sender: int, msg: DamVoteMsg) -> None:
        vote = msg.vote
        v = vote.view  # votes of view v elect the leader of v+1
        if vote.phase != PREPARE or self.leader_of(v + 1) != self.pid:
            return
        if v + 1 < self.view:
            return
        cert = self.collect_vote(sender, vote)
        if cert is None:
            return
        self._register_cert(cert)
        if v + 1 > self.view:
            self.enter_view(v + 1)
        if self.view != v + 1 or self._led_view >= self.view:
            return
        self._propose(cert.block_hash, cert)

    # ------------------------------------------------------------------
    # Replicas: vote to the next leader, 2-chain commit walk
    # ------------------------------------------------------------------
    def on_proposal(self, sender: int, msg: ChainedDamProposalMsg) -> None:
        prop, justify = msg.proposal, msg.justify
        v = prop.view
        if v < self.view or sender != self.leader_of(v):
            return
        if sender != self.pid:
            # Untrusted pre-check (Sec. III: verify before processing);
            # the CHECKER re-verifies the justify in-enclave.
            self.charge(
                self.config.crypto_costs.verify(1 + justify.sig_count)
                + self.config.crypto_costs.hash(msg.block.wire_size())
            )
            if not prop.verify(self.ring):
                return
        if prop.sig.signer != self.leader_of(v) or msg.block.hash != prop.block_hash:
            return
        parent = (
            justify.block_hash
            if isinstance(justify, DamCert)
            else justify.prep_hash
        )
        if not msg.block.extends(parent):
            return
        if isinstance(justify, DamAccum) and justify.view != v:
            return
        if v > self.view:
            self.enter_view(v)
        if v != self.view:
            return
        self.add_block(msg.block)
        # A valid proposal is pipeline progress: reset the backoff even
        # when the k-chain commit still lags (e.g. around failed views).
        self.note_progress()
        if isinstance(justify, DamCert):
            self._register_cert(justify)
        vote = self.checker.tee_vote_chained(msg.block.hash, v, justify)
        done = self.charge_enclave(self.checker)
        if vote is None:
            return
        self.send_at(done, self.leader_of(v + 1), DamVoteMsg(vote))

    def _register_cert(self, cert: DamCert) -> None:
        """Record a prepare certificate and run the 2-chain commit."""
        if cert.block_hash in self._cert_of:
            return
        self._cert_of[cert.block_hash] = cert
        b1 = self.store.get(cert.block_hash)
        if b1 is None:
            return
        cert0 = self._cert_of.get(b1.parent)
        if cert0 is None:
            return
        # 2-chain: b0 <- b1, both certified with a direct parent link.
        if not self.log.is_executed(cert0.block_hash):
            self.commit_chain(cert0.block_hash, NORMAL, context=cert0)
            self.record_decision_progress()


__all__ = [
    "ChainedDamysusReplica",
    "ChainedDamysusChecker",
    "ChainedDamProposalMsg",
]
