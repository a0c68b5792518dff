"""Chained (pipelined) OneShot.

The paper closes with: "As other streamlined protocols, OneShot can be
seamlessly turned into a chained version" (Sec. IX).  This module is
that version.  Per view the leader proposes one block whose quorum
certificate doubles as the *decide* message for the previous block:

* view v's leader broadcasts ⟨b_v, φ_p, φ_c(b_{v-1})⟩ — the embedded
  prepare certificate simultaneously justifies b_v and **commits**
  b_{v-1} (f+1 replicas stored it: OneShot's 1-chain commit rule);
* replicas store b_v and send their store certificates to the *next*
  view's leader, which assembles φ_c(b_v) and proposes b_{v+1}.

A view therefore costs two communication waves instead of four, and a
block is decided every view — roughly doubling throughput at equal
commit latency.  The unhappy paths (timeouts, new-view certificates,
piggyback / accumulator / deliver) are inherited unchanged from the
basic replica: a failed view falls back to exactly Fig. 5's machinery,
and the recovery proposal re-enters the pipeline.
"""

from __future__ import annotations

from ..metrics import NORMAL
from .certificates import Accumulator, PrepareCert
from .messages import ProposalMsg, StoreMsg
from .replica import OneShotReplica


def _qc_commits(qc) -> bool:
    """Whether a proposal's quorum certificate commits its block.

    A prepare certificate or a ``B = true`` accumulator attests that
    f+1 replicas stored the block — OneShot's commit condition.  A vote
    certificate (catch-up deliver phase) only proves one correct node
    holds the block, so the committed prefix waits one more view.
    """
    if isinstance(qc, PrepareCert):
        return not qc.is_genesis
    return isinstance(qc, Accumulator) and qc.certified


class ChainedOneShotReplica(OneShotReplica):
    """Pipelined OneShot: one block per view, two waves per view."""

    PROTOCOL = "oneshot-chained"

    # ------------------------------------------------------------------
    # Prepare phase, replica side: commit the certificate's block and
    # store toward the *next* leader.
    # ------------------------------------------------------------------
    def on_proposal(self, sender: int, msg: ProposalMsg) -> None:
        if not self._admit(sender, msg):
            return
        # 1-chain commit: the certificate decides the previous block.
        if _qc_commits(msg.qc):
            qh = msg.block.parent
            kind = self._proposal_kind.get(qh, msg.exec_kind)
            self.commit_chain(qh, kind, context=msg.qc)
            self.record_decision_progress()
        # Pipelining: the store certificate goes to the NEXT leader.
        self._store(msg.proposal, self.leader_of(msg.proposal.view + 1))

    # ------------------------------------------------------------------
    # Next leader: assemble the certificate, enter the view, propose.
    # ------------------------------------------------------------------
    def on_store(self, sender: int, msg: StoreMsg) -> None:
        cert = msg.cert
        v = cert.stored_view
        if (
            cert.prop_view != v
            or self.leader_of(v + 1) != self.pid
            or v + 1 < self.view
        ):
            return
        phi_c = self._collect_store(cert)
        if phi_c is None:
            return
        if v + 1 > self.view:
            self._advance_to(v + 1)
        if self.view != v + 1 or self._led_view >= self.view:
            return
        if self._deliver is not None:
            if not self.OPTIONS.preempt_catchup:
                return
            self._deliver = None  # fresher evidence preempts the deliver
        self._propose(cert.block_hash, phi_c, NORMAL)


__all__ = ["ChainedOneShotReplica"]
