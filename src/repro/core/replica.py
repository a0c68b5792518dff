"""The OneShot replica — Fig. 5a (prepare / decide / new-view) and
Fig. 5b (deliver), with the Sec. VI-F optimizations.

A replica's behaviour per view:

* **As leader** it waits for either a prepare certificate from the
  previous view (→ *normal execution*, l.11-13) or f+1 new-view
  certificates (l.15-27), which lead to a *piggyback execution* (all
  f+1 store the same block → reconstruct the prepare certificate), a
  direct proposal via a ``B = true`` accumulator (re-vote avoidance),
  or a *catch-up execution* (deliver phase, Fig. 5b).
* **As any replica** it stores leader proposals via ``TEEstore``
  (l.29-33), executes on prepare certificates (l.41-46), and on
  timeout ships its latest proposal to the next leader (l.48-52).

View synchronization: certificates for a higher view are themselves
proof that f+1 replicas reached that view, so a lagging replica
*jumps*, fast-forwarding its CHECKER by storing its latest proposal
once per skipped view (each ``TEEstore`` increments the TEE view by
exactly one — the enclave interface has no other way forward).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..crypto import Digest
from ..metrics import CATCHUP, NORMAL, PIGGYBACK
from ..smr import GENESIS, Block
from .certificates import (
    GENESIS_PROPOSAL,
    GENESIS_QC,
    NewViewCert,
    PrepareCert,
    Proposal,
    QuorumCert,
    StoreCert,
    certifies,
    nv_triple,
    qc_ref,
)
from .messages import (
    DeliverMsg,
    NewViewMsg,
    PrepCertMsg,
    ProposalMsg,
    PullReply,
    PullRequest,
    StoreMsg,
    VoteMsg,
)
from .tee_services import AccumulatorService, Checker
from ..protocols.common import BaseReplica


@dataclass(frozen=True)
class OneShotOptions:
    """Toggles for the Sec. VI-F optimizations (ablation knobs)."""

    #: l.24 / Fig. 5c l.18 — skip the deliver phase when the highest
    #: new-view certificate is certified by its own hash.
    avoid_revotes: bool = True
    #: VI-F(b) — omit the block from a new-view certificate when the
    #: next leader provably has it.
    omit_known_blocks: bool = True
    #: VI-F(c) — abandon a running deliver phase if the previous view's
    #: prepare certificate shows up.
    preempt_catchup: bool = True


@dataclass(frozen=True)
class Prop:
    """The ``prop`` variable (l.3): latest proposal from a leader."""

    block: Optional[Block]
    proposal: Proposal
    qc: QuorumCert


class OneShotReplica(BaseReplica):
    """A OneShot replica (N = 2f+1)."""

    PROTOCOL = "oneshot"
    #: Replies forward the prepare certificate — one reply suffices.
    CERTIFIED_REPLIES = True
    HANDLERS = {
        NewViewMsg: "on_new_view",
        ProposalMsg: "on_proposal",
        StoreMsg: "on_store",
        PrepCertMsg: "on_prep_cert",
        DeliverMsg: "on_deliver",
        VoteMsg: "on_vote",
    }
    FETCH = (PullRequest, PullReply)
    #: Optimization toggles; subclass via :func:`oneshot_with_options`.
    OPTIONS = OneShotOptions()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.checker = Checker(
            self.pid,
            self.creds.keypair,
            self.ring,
            cfg.crypto_costs,
            cfg.tee_costs,
            self.leader_of,
        )
        self.accumulator = AccumulatorService(
            self.pid,
            self.creds.keypair,
            self.ring,
            cfg.crypto_costs,
            cfg.tee_costs,
            self.quorum,
        )
        self.prop = Prop(GENESIS, GENESIS_PROPOSAL, GENESIS_QC)
        self.last_store: Optional[StoreCert] = None
        #: Last proposal the CHECKER accepted — always storable again,
        #: so it can drive TEE fast-forwards across skipped views.
        self._ff_proposal: Proposal = GENESIS_PROPOSAL
        # Leader-side collection state (store certificates and deliver
        # votes are combined in self.votes)
        self._nv_tracker = self.tracker()
        self._prep_certs: dict[int, PrepareCert] = {}  # stored_view -> φ_c
        self._deliver: Optional[tuple[int, Digest]] = None  # (view, h)
        self._current_proposal: Optional[Proposal] = None
        self._proposal_kind: dict[Digest, str] = self.block_map()

    # ------------------------------------------------------------------
    # Boot & view plumbing
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._maybe_lead()

    def on_enter_view(self, view: int) -> None:
        self._maybe_lead()

    def prune_below(self, view: int) -> None:
        super().prune_below(view)
        for w in [w for w in self._prep_certs if w < view]:
            del self._prep_certs[w]

    def _sync_tee(self, target: int) -> None:
        """Fast-forward the CHECKER to ``target`` (if behind).

        The TEE's only way forward is one ``TEEstore`` per view, so a
        lagging replica re-stores its last accepted proposal once per
        skipped view.  ``prepv`` is unchanged by these calls (the
        proposal's view is already ``prepv``), so no safety state is
        fabricated — only the counter catches up.
        """
        steps = target - self.checker.view
        if steps <= 0:
            return
        for _ in range(steps):
            if self.checker.tee_store(self._ff_proposal) is None:
                break  # pragma: no cover - _ff_proposal is storable
        self.charge_enclave(self.checker)

    def _advance_to(self, view: int) -> None:
        """Jump to ``view`` on certificate evidence, fast-forwarding the TEE."""
        self._sync_tee(view)
        if self._deliver is not None and self._deliver[0] < view:
            self._deliver = None
        if view > self.view:
            self.enter_view(view)

    # ------------------------------------------------------------------
    # New-view ½-phase (receive side, leader of the new view)
    # ------------------------------------------------------------------
    def on_new_view(self, sender: int, msg: NewViewMsg) -> None:
        cert = msg.cert
        if isinstance(cert, PrepareCert):
            self._on_nv_prep_cert(cert)
        elif isinstance(cert, NewViewCert):
            self._on_nv_timeout_cert(cert)

    def _on_nv_prep_cert(self, cert: PrepareCert) -> None:
        w = cert.stored_view  # targets view w+1
        if w + 1 < self.view or self.leader_of(w + 1) != self.pid:
            return
        if w in self._prep_certs:
            return  # already have one; skip re-verification
        # New-view prepare certs are decide-phase certs (prop_view = w).
        if not self.check_qc(cert) or cert.prop_view != w:
            return
        self._prep_certs[w] = cert
        if w + 1 > self.view:
            self._advance_to(w + 1)
        self._maybe_lead()

    def _on_nv_timeout_cert(self, cert: NewViewCert) -> None:
        w, h, v1 = nv_triple(cert)
        if w + 1 < self.view or self.leader_of(w + 1) != self.pid:
            return
        if not self.check_qc(cert):
            return
        if cert.block is not None:
            self.add_block(cert.block)
        quorum = self._nv_tracker.add(w, cert.store.sig.signer, cert)
        if quorum is not None:
            self._on_nv_quorum(w, quorum)

    def _on_nv_quorum(self, w: int, certs: list[NewViewCert]) -> None:
        """l.15-27: f+1 new-view certificates for stored view ``w``."""
        v = w + 1
        if v > self.view:
            self._advance_to(v)
        if v != self.view or self._led_view >= v or self._deliver is not None:
            return
        triples = {nv_triple(c) for c in certs}
        if len(triples) == 1:
            # PIGGYBACK (l.17-20): all f+1 stored the same block.
            phi_c = certs[0].store.combine(tuple(c.store.sig for c in certs))
            self._propose(phi_c.block_hash, phi_c, PIGGYBACK)
            return
        # Accumulator path (l.21-27).  Among certificates with the
        # highest proposal view, prefer a self-certified one — that is
        # what lets the B flag skip the deliver phase (Sec. VI-F a).
        top = max(
            certs,
            key=lambda c: (nv_triple(c)[2], certifies(nv_triple(c)[1], c)),
        )
        rest = [c for c in certs if c is not top]
        acc = self.accumulator.tee_accum(top, rest)
        done = self.charge_enclave(self.accumulator)
        if acc is None:  # pragma: no cover - inputs pre-verified
            return
        if acc.certified and self.OPTIONS.avoid_revotes:
            # l.24-25: the top block already has a quorum certificate.
            self._propose(acc.block_hash, acc, NORMAL)
            return
        # CATCH-UP (l.26-27): start the deliver phase.  Re-attach the
        # block so every replica can vote on a block it has received.
        if top.block is None:
            blk = self.store.get(top.store.block_hash)
            if blk is not None:
                top = replace(top, block=blk)
        self._deliver = (v, top.store.block_hash)
        self.broadcast_at(done, DeliverMsg(acc=acc, top=top))

    # ------------------------------------------------------------------
    # Leading
    # ------------------------------------------------------------------
    def _known_prep_cert(self, view: int) -> Optional[PrepareCert]:
        """A prepare certificate usable to lead ``view`` (l.12)."""
        if view == 0:
            return GENESIS_QC
        return self._prep_certs.get(view - 1)

    def _maybe_lead(self) -> None:
        """Run the leader's prepare-phase logic if ready (l.11-13)."""
        v = self.view
        if self.stopped or not self.is_leader(v) or self._led_view >= v:
            return
        phi_c = self._known_prep_cert(v)
        if phi_c is None:
            return
        if self._deliver is not None:
            if not self.OPTIONS.preempt_catchup:
                return
            # VI-F(c): preempt the catch-up execution.
            self._deliver = None
        self._propose(phi_c.block_hash, phi_c, NORMAL)

    def _propose(self, h: Digest, qc: QuorumCert, kind: str) -> None:
        """l.5-8: createLeaf, certify via TEEprepare, broadcast."""
        block = self.new_leaf(h)
        phi_p = self.checker.tee_prepare(block.hash)
        done = self.charge_enclave(self.checker)
        if phi_p is None:
            return  # TEE refused: already proposed in this view
        self._current_proposal = phi_p
        self._proposal_kind[block.hash] = kind
        self.record_proposal(block)
        self.broadcast_at(done, ProposalMsg(block, phi_p, qc, exec_kind=kind))

    # ------------------------------------------------------------------
    # Prepare phase, replica side (l.29-33)
    # ------------------------------------------------------------------
    def on_proposal(self, sender: int, msg: ProposalMsg) -> None:
        if self._admit(sender, msg):
            self._store(msg.proposal, sender)

    def _admit(self, sender: int, msg: ProposalMsg) -> bool:
        """Validate a proposal (l.30/l.32), enter its view and adopt it
        as ``prop``; True iff it is for the view now current."""
        phi_p = msg.proposal
        v = phi_p.view
        if v < self.view or sender != self.leader_of(v):
            return False
        hashing = self.config.crypto_costs.hash(msg.block.wire_size())
        if not self.check_qc(msg.qc, extra_sigs=1, extra_cost=hashing):
            return False
        ref = qc_ref(msg.qc)
        if ref is None or not phi_p.verify(self.ring):
            return False
        qv, qh = ref
        # l.30/l.32: φ_qc is for ⟨view, h⟩, b ≻ h, H(b) == φ_p.hash.
        if qv != v or msg.block.hash != phi_p.block_hash or not msg.block.extends(qh):
            return False
        if v > self.view:
            self._advance_to(v)
        if v != self.view:
            return False
        self.add_block(msg.block)
        self._proposal_kind[msg.block.hash] = msg.exec_kind
        self.prop = Prop(msg.block, phi_p, msg.qc)
        self.pull(qv, qh, msg.qc.signer_ids())  # Sec. VI-E: the parent
        return True

    def _store(self, phi_p: Proposal, to: int) -> None:
        """TEEstore ``phi_p`` and send the store certificate to ``to``."""
        self._sync_tee(phi_p.view)  # catch the CHECKER up if this replica lagged
        phi_s = self.checker.tee_store(phi_p)
        done = self.charge_enclave(self.checker)
        if phi_s is None:
            return
        self._ff_proposal = phi_p
        self.last_store = phi_s
        self.send_at(done, to, StoreMsg(phi_s))

    # ------------------------------------------------------------------
    # Decide ½-phase, leader side (l.36-39)
    # ------------------------------------------------------------------
    def on_store(self, sender: int, msg: StoreMsg) -> None:
        cert = msg.cert
        v = self.view
        # l.37: only store(view, h, view) counts.
        if cert.stored_view != v or cert.prop_view != v or self._led_view != v:
            return
        phi_c = self._collect_store(cert)
        if phi_c is None:
            return
        done = max(self.sim.now, self.cpu.busy_until)
        assert self._current_proposal is not None
        self.broadcast_at(done, PrepCertMsg(phi_c, self._current_proposal))

    def _collect_store(self, cert: StoreCert) -> Optional[PrepareCert]:
        """Count a verified store certificate; the prepare certificate
        φ_c once f+1 replicas stored the same block in its view."""
        if not self.check_sig(cert):
            return None
        return self.combine(cert, cert.stored_view)

    # ------------------------------------------------------------------
    # Decide ½-phase, replica side (l.41-46)
    # ------------------------------------------------------------------
    def on_prep_cert(self, sender: int, msg: PrepCertMsg) -> None:
        phi_c = msg.cert
        v = phi_c.stored_view
        if phi_c.prop_view != v or sender != self.leader_of(v):
            return
        if v < self.view:
            # Stale for the decide phase — but if it certifies the view
            # this replica is now leading from, it is exactly the l.12
            # "prepare certificate from the previous view" (and the
            # trigger for catch-up preemption, Sec. VI-F c).
            if v == self.view - 1 and self.is_leader():
                self._on_nv_prep_cert(phi_c)
            return
        if not self.check_qc(phi_c, extra_sigs=1):
            return
        phi_p = msg.proposal
        if (
            phi_p.view != v
            or phi_p.block_hash != phi_c.block_hash
            or not phi_p.verify(self.ring)
        ):
            return
        if v > self.view:
            self._advance_to(v)
        if v != self.view:
            return
        h = phi_c.block_hash
        kind = self._proposal_kind.get(h, NORMAL)
        self.commit_chain(h, kind, context=phi_c)
        # Keep the TEE in lock-step even if this replica never stored
        # the proposal (a small certificate can overtake a large block).
        self._sync_tee(v + 1)
        # l.45: prop := ⟨b, φ_p, φ_c⟩; view++.
        self.prop = Prop(self.store.get(h), phi_p, phi_c)
        self.record_decision_progress()
        done = max(self.sim.now, self.cpu.busy_until)
        self.enter_view(v + 1)
        # l.46: forward φ_c as the new-view certificate.
        self.send_at(done, self.leader_of(self.view), NewViewMsg(phi_c))

    # ------------------------------------------------------------------
    # Deliver phase (Fig. 5b)
    # ------------------------------------------------------------------
    def on_deliver(self, sender: int, msg: DeliverMsg) -> None:
        acc, top = msg.acc, msg.top
        v = acc.view + 1  # deliver runs in the view after the stored view
        if v < self.view or sender != self.leader_of(v):
            return
        # l.5: acc valid ∧ VERIFY(φ_n) ∧ b₁ ≻ h₂.
        if not self.check_qc(top, extra_sigs=1) or not acc.verify(
            self.ring, self.quorum
        ):
            return
        if (
            acc.block_hash != top.store.block_hash
            or top.store.stored_view != acc.view
        ):
            return
        ref = qc_ref(top.qc)
        if ref is None:
            return
        rv, h2 = ref
        b1 = top.block
        if b1 is not None and not (b1.extends(h2) or b1.hash == h2):
            return
        if v > self.view:
            self._advance_to(v)
        if v != self.view:
            return
        if b1 is not None:
            self.add_block(b1)
        else:
            # Vote only for received blocks — pull it first (Sec. VI-B f).
            self.pull(top.store.prop_view, top.store.block_hash, acc.ids)
            return
        self.pull(rv, h2, top.qc.signer_ids())
        self._sync_tee(v)  # votes must carry the current view
        vote = self.checker.tee_vote(top.store.block_hash)
        done = self.charge_enclave(self.checker)
        self.send_at(done, sender, VoteMsg(vote))

    def on_vote(self, sender: int, msg: VoteMsg) -> None:
        """Fig. 5b l.8-11: assemble the vote certificate, then propose."""
        vote = msg.vote
        if self._deliver is None:
            return
        dv, dh = self._deliver
        if vote.view != dv or vote.block_hash != dh or dv != self.view:
            return
        if not self.check_sig(vote):
            return
        phi_vc = self.combine(vote, dv)
        if phi_vc is None:
            return
        self._deliver = None
        self._propose(dh, phi_vc, CATCHUP)

    # ------------------------------------------------------------------
    # New-view ½-phase, timeout side (l.48-52)
    # ------------------------------------------------------------------
    def on_timeout(self) -> None:
        w = self.view
        self._deliver = None
        self.enter_view(w + 1)
        if self.last_store is not None and self.last_store.stored_view == w:
            phi_s = self.last_store  # l.51: "if not already executed"
            done = self.sim.now
        else:
            self._sync_tee(w)  # no-op unless this replica lagged
            phi_s = self.checker.tee_store(self.prop.proposal)
            done = self.charge_enclave(self.checker)
            if phi_s is None:  # pragma: no cover - honest props store
                return
            self._ff_proposal = self.prop.proposal
            self.last_store = phi_s
        leader = self.leader_of(self.view)
        block = self.prop.block
        nv = NewViewCert(block=block, store=phi_s, qc=self.prop.qc)
        if (
            block is not None
            and self.OPTIONS.omit_known_blocks
            and self._leader_has_block(leader, nv)
        ):
            nv = replace(nv, block=None)  # VI-F(b)
        self.send_at(done, leader, NewViewMsg(nv))

    def _leader_has_block(self, leader: int, nv: NewViewCert) -> bool:
        """VI-F(b): the new leader provably received this block already.

        True when the proposal's quorum certificate certifies the block
        itself and the leader is among its signers (it stored/voted for
        the block, so it received it).
        """
        assert nv.block is not None
        if not certifies(nv.block.hash, nv):
            return False
        return leader in nv.qc.signer_ids()


def oneshot_with_options(options: OneShotOptions) -> type[OneShotReplica]:
    """A OneShot replica class with specific optimization toggles."""

    class _Configured(OneShotReplica):
        OPTIONS = options

    _Configured.__name__ = "OneShotReplica"
    _Configured.__qualname__ = "OneShotReplica"
    return _Configured


__all__ = ["OneShotReplica", "OneShotOptions", "Prop", "oneshot_with_options"]
