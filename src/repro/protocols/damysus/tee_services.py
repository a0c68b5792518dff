"""Damysus's trusted components (baseline).

Compared to OneShot's (Sec. VI-A of the OneShot paper), Damysus's
CHECKER stores *both* a view and a hash for the last prepared block and
exposes one more entry point (it signs two vote rounds per view), and
its ACCUMULATOR runs in the prepare phase of **every** view.

CHECKER per-view step machine: ``NEW_VIEW → VOTED_PREPARE → STORED``;
leaders additionally pass through ``PROPOSED`` between the first two.
Each signing entry point is usable at most once per view, which is the
non-equivocation guarantee.
"""

from __future__ import annotations

from typing import Optional

from ...crypto import CryptoCostModel, Digest, KeyPair, KeyRing
from ...smr import GENESIS
from ...tee import Enclave, TeeCostModel
from .certificates import (
    COMMIT,
    PREPARE,
    Commitment,
    DamAccum,
    DamCert,
    DamProposal,
    DamVote,
    Justify,
)

# Per-view step counter values (strictly increasing within a view).
_STEP_NV = 0
_STEP_PROPOSED = 1
_STEP_VOTED_PREPARE = 2
_STEP_STORED = 3


class DamysusChecker(Enclave):
    """Per-replica CHECKER: monotonic (view, step) + prepared pair."""

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
        self.view = -1
        self.step = _STEP_STORED  # allows the first new_view(0)
        self.prep_view = -1
        self.prep_hash: Digest = GENESIS.hash

    def new_view(self, view: int) -> Optional[Commitment]:
        """Advance to ``view`` and emit the new-view commitment."""
        self._enter()
        if view <= self.view:
            return None  # monotonic
        self.view = view
        self.step = _STEP_NV
        return self._issue(Commitment, self.prep_view, self.prep_hash, view)

    def tee_prepare(self, h: Digest) -> Optional[DamProposal]:
        """Leader proposal; once per view (prevents equivocation)."""
        self._enter()
        if self.step != _STEP_NV:
            return None
        self.step = _STEP_PROPOSED
        return self._issue(DamProposal, h, self.view)

    def tee_vote_prepare(self, h: Digest) -> Optional[DamVote]:
        """Prepare-phase vote; once per view."""
        self._enter()
        if self.step not in (_STEP_NV, _STEP_PROPOSED):
            return None
        self.step = _STEP_VOTED_PREPARE
        return self._issue(DamVote, h, self.view, PREPARE)

    def tee_store(self, cert: DamCert) -> Optional[DamVote]:
        """Record a prepared block after verifying its prepare quorum
        *inside the enclave*, and emit the commit-phase vote."""
        self._enter()
        if self.step != _STEP_VOTED_PREPARE:
            return None
        if cert.phase != PREPARE or cert.view != self.view:
            return None
        self._charge(self._crypto.verify(cert.sig_count) * self._tee.crypto_factor)
        if not cert.verify(self._ring, self.quorum):
            return None
        self.step = _STEP_STORED
        self.prep_view = cert.view
        self.prep_hash = cert.block_hash
        return self._issue(DamVote, cert.block_hash, cert.view, COMMIT)


class DamysusAccumulator(Enclave):
    """Leader-side ACCUMULATOR: invoked in every view's prepare phase."""

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

    def tee_accum(self, commitments: list[Commitment]) -> Optional[DamAccum]:
        """Select the highest prepared pair among f+1 commitments."""
        self._enter()
        if len(commitments) < self.quorum:
            return None
        view = commitments[0].view
        signers = set()
        best = commitments[0]
        for com in commitments:
            self._charge(self._crypto.verify() * self._tee.crypto_factor)
            if com.view != view or not com.verify(self._ring):
                return None
            signers.add(com.sig.signer)
            if com.prep_view > best.prep_view:
                best = com
        if len(signers) < self.quorum:
            return None
        return self._issue(DamAccum, view, best.prep_hash, best.prep_view)


class ChainedDamysusChecker(Enclave):
    """CHECKER for chained operation: one proposal and one vote per
    view, with the prepared pair updated in-enclave from the verified
    justify certificate."""

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
        self.voted_view = -1
        self.proposed_view = -1
        self.prep_view = -1
        self.prep_hash: Digest = GENESIS.hash

    def tee_propose(self, h: Digest, view: int) -> Optional[DamProposal]:
        """Sign a proposal; monotonic, once per view."""
        self._enter()
        if view <= self.proposed_view:
            return None
        self.proposed_view = view
        return self._issue(DamProposal, h, view)

    def tee_vote_chained(
        self, h: Digest, view: int, justify: Justify
    ) -> Optional[DamVote]:
        """Verify the justify in-enclave, record the prepared pair, and
        sign the once-per-view prepare vote."""
        self._enter()
        if view <= self.voted_view or not isinstance(justify, (DamCert, DamAccum)):
            return None
        self._charge(self._crypto.verify(justify.sig_count) * self._tee.crypto_factor)
        if not justify.verify(self._ring, self.quorum):
            return None
        if isinstance(justify, DamCert):
            if justify.phase != PREPARE:
                return None
            if justify.view >= self.prep_view:
                self.prep_view = justify.view
                self.prep_hash = justify.block_hash
        self.voted_view = view
        return self._issue(DamVote, h, view, PREPARE)

    def new_view(self, view: int) -> Optional[Commitment]:
        """Timeout commitment: the latest prepared pair, tagged ``view``."""
        self._enter()
        return self._issue(Commitment, self.prep_view, self.prep_hash, view)


__all__ = [
    "DamysusChecker",
    "DamysusAccumulator",
    "ChainedDamysusChecker",
    "Justify",
]
