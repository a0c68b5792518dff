"""Damysus certificates (baseline, Sec. III of the OneShot paper).

* **Commitment** — the (prepared view, prepared hash) pair a replica's
  CHECKER signs and sends to the next leader in the new-view phase.
* **DamAccum** — the ACCUMULATOR's output over f+1 commitments: a
  signed assertion of the pair with the highest prepared view.
* **DamProposal** — the leader's CHECKER-signed proposal (one per view).
* **DamVote** — a CHECKER-signed phase vote (prepare or commit).
* **DamCert** — f+1 combined votes for one phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ...crypto import Digest, KeyRing, Signature, digest_of
from ...crypto.memo import record_valid, seen_valid

#: Vote phases.
PREPARE = "prepare"
COMMIT = "commit"


def commitment_digest(prep_view: int, prep_hash: Digest, view: int) -> Digest:
    return digest_of("dam-com", prep_view, prep_hash, view)


def accum_digest(view: int, prep_hash: Digest, prep_view: int) -> Digest:
    return digest_of("dam-acc", view, prep_hash, prep_view)


def proposal_digest(h: Digest, view: int) -> Digest:
    return digest_of("dam-prop", h, view)


def vote_digest(h: Digest, view: int, phase: str) -> Digest:
    return digest_of("dam-vote", h, view, phase)


@dataclass(frozen=True)
class Commitment:
    """``com(prep_view, prep_hash, view)_σ``."""

    prep_view: int
    prep_hash: Digest
    view: int
    sig: Signature

    def verify(self, ring: KeyRing) -> bool:
        return ring.verify(
            commitment_digest(self.prep_view, self.prep_hash, self.view), self.sig
        )

    def wire_size(self) -> int:
        return 48 + 64


@dataclass(frozen=True)
class DamAccum:
    """``acc(view, prep_hash, prep_view)_σ`` — highest prepared pair."""

    view: int
    prep_hash: Digest
    prep_view: int
    sig: Signature

    def verify(self, ring: KeyRing) -> bool:
        return ring.verify(
            accum_digest(self.view, self.prep_hash, self.prep_view), self.sig
        )

    def wire_size(self) -> int:
        return 48 + 64


@dataclass(frozen=True)
class DamProposal:
    """``prop(h, view)_σ`` from the leader's CHECKER."""

    block_hash: Digest
    view: int
    sig: Signature

    def verify(self, ring: KeyRing) -> bool:
        return ring.verify(proposal_digest(self.block_hash, self.view), self.sig)

    def wire_size(self) -> int:
        return 40 + 64


@dataclass(frozen=True)
class DamVote:
    """``vote(h, view, phase)_σ``."""

    block_hash: Digest
    view: int
    phase: str
    sig: Signature

    def verify(self, ring: KeyRing) -> bool:
        return ring.verify(
            vote_digest(self.block_hash, self.view, self.phase), self.sig
        )

    def wire_size(self) -> int:
        return 48 + 64


@dataclass(frozen=True)
class DamCert:
    """``cert(h, view, phase)_{σ⃗^{f+1}}`` — a combined phase quorum."""

    block_hash: Digest
    view: int
    phase: str
    sigs: tuple[Signature, ...]

    def signer_ids(self) -> tuple[int, ...]:
        return tuple(s.signer for s in self.sigs)

    def verify(self, ring: KeyRing, quorum: int) -> bool:
        if seen_valid(self, ring, quorum):
            return True
        if len(set(self.signer_ids())) < quorum:
            return False
        digest = vote_digest(self.block_hash, self.view, self.phase)
        if not ring.verify_all(digest, self.sigs):
            return False
        record_valid(self, ring, quorum)
        return True

    def wire_size(self) -> int:
        return 48 + 64 * len(self.sigs)


#: A chained proposal's justification: prepare certificate (steady
#: state) or ACCUMULATOR certificate (after a timeout).
Justify = Union[DamCert, DamAccum]


__all__ = [
    "PREPARE",
    "COMMIT",
    "Commitment",
    "DamAccum",
    "DamProposal",
    "DamVote",
    "DamCert",
    "Justify",
    "commitment_digest",
    "accum_digest",
    "proposal_digest",
    "vote_digest",
]
