"""OneShot's trusted services — the CHECKER and ACCUMULATOR (Fig. 5c).

CHECKER state: a ``(view, phase)`` counter and ``prepv`` (the view of
the latest proposed block it stored).  Its guarantees:

* ``TEEprepare`` — at most **one proposal per view** (the phase bit
  flips ``ph₀ → ph₁`` and is only reset by ``TEEstore``);
* ``TEEstore`` — at most **one store certificate per view** (the view
  counter increments), only for verified leader proposals with
  ``view ≥ v ≥ prepv``;
* ``TEEvote`` — votes carry the TEE's current view.

ACCUMULATOR: ``TEEaccum`` verifies f+1 new-view certificates from
distinct signers for the same stored view, asserts the first has the
highest proposal view, and emits a signed accumulator whose Boolean B
records whether that certificate is certified by its own hash
(Sec. VI-F(a), re-vote avoidance).

Unlike Damysus's components (see
:mod:`repro.protocols.damysus.tee_services`), the CHECKER stores only a
*view number* (not a hash) and the ACCUMULATOR is never invoked in
normal executions.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..crypto import CryptoCostModel, Digest, KeyPair, KeyRing
from ..smr import GENESIS
from ..tee import Enclave, TeeCostModel
from .certificates import (
    PH0,
    PH1,
    Accumulator,
    NewViewCert,
    Proposal,
    StoreCert,
    Vote,
    certifies,
    nv_triple,
)


class Checker(Enclave):
    """The per-replica CHECKER service."""

    def __init__(
        self,
        owner: int,
        keypair: KeyPair,
        ring: KeyRing,
        crypto_costs: CryptoCostModel,
        tee_costs: TeeCostModel,
        leader_of: Callable[[int], int],
    ) -> None:
        super().__init__(owner, keypair, ring, crypto_costs, tee_costs)
        self._leader_of = leader_of
        self.view = 0
        self.phase = PH0
        #: View of the latest proposed block stored (genesis = -1).
        self.prepv = -1

    def rebind_leader_map(self, leader_of: Callable[[int], int]) -> None:
        """Replace the view -> leader map used to validate proposals.

        The map is part of the enclave's provisioning, not its mutable
        protocol state, so swapping it (e.g. the staggered rotations of
        the multi-instance experiments) is a supported reconfiguration
        — callers must keep it consistent with the host replica's own
        ``leader_of`` or every proposal check diverges.
        """
        self._leader_of = leader_of

    # -- l.5-8, Fig. 5c -------------------------------------------------
    def tee_prepare(self, h: Digest) -> Optional[Proposal]:
        """Certify a proposal; at most once per view."""
        self._enter()
        if self.phase != PH0:
            return None
        self.phase = PH1
        return self._issue(Proposal, h, self.view)

    # -- l.10-13, Fig. 5c -----------------------------------------------
    def tee_store(self, prop: Proposal) -> Optional[StoreCert]:
        """Store a proposal; increments the view; at most once per view."""
        self._enter()
        if not self._verify_proposal(prop):
            return None
        if not (self.view >= prop.view >= self.prepv):
            return None
        self.prepv = prop.view
        self.view += 1
        self.phase = PH0
        return self._issue(StoreCert, self.view - 1, prop.block_hash, prop.view)

    def _verify_proposal(self, prop: Proposal) -> bool:
        """VERIFY(φ_p) ∧ φ_p is from the leader (of its view)."""
        if prop.is_genesis:
            return prop.block_hash == GENESIS.hash
        if prop.sig is None or prop.sig.signer != self._leader_of(prop.view):
            return False
        return self._verify(prop.digest(), prop.sig)

    # -- l.21-22, Fig. 5c -----------------------------------------------
    def tee_vote(self, h: Digest) -> Vote:
        """Vote for a block at the TEE's current view (deliver phase)."""
        self._enter()
        return self._issue(Vote, h, self.view)


class AccumulatorService(Enclave):
    """The per-replica ACCUMULATOR service (used only when leading)."""

    def __init__(
        self,
        owner: int,
        keypair: KeyPair,
        ring: KeyRing,
        crypto_costs: CryptoCostModel,
        tee_costs: TeeCostModel,
        quorum: int,
    ) -> None:
        super().__init__(owner, keypair, ring, crypto_costs, tee_costs)
        self.quorum = quorum

    # -- l.15-19, Fig. 5c -----------------------------------------------
    def tee_accum(
        self, top: NewViewCert, rest: list[NewViewCert]
    ) -> Optional[Accumulator]:
        """Certify that ``top`` carries the highest proposal view.

        ``top`` and every element of ``rest`` must be valid nv-form
        certificates for the same stored view, from f+1 distinct
        signers in total, with ``top``'s proposal view maximal.
        """
        self._enter()
        certs = [top, *rest]
        if len(certs) < self.quorum:
            return None
        signers: list[int] = []
        v2_top, h_top, v1_top = nv_triple(top)
        for nv in certs:
            if not isinstance(nv, NewViewCert):
                return None
            # Cost model: verifying each certificate inside the enclave.
            if not nv.verify(self._ring, self.quorum):
                return None
            self._charge(
                self._crypto.verify(nv.sig_count) * self._tee.crypto_factor
            )
            v2, _, v1 = nv_triple(nv)
            if v2 != v2_top or v1 > v1_top:
                return None
            signers.append(nv.store.sig.signer)
        if len(set(signers)) < self.quorum:
            return None
        return self._issue(
            Accumulator, certifies(h_top, top), v2_top, h_top, tuple(signers)
        )


__all__ = ["Checker", "AccumulatorService"]
