"""Damysus wire messages — the six communication steps of Sec. III."""

from __future__ import annotations

from dataclasses import dataclass

from ...crypto import Digest
from ...smr import Block
from .certificates import Commitment, DamAccum, DamCert, DamProposal, DamVote, Justify


@dataclass(frozen=True)
class DamNewViewMsg:
    """Step 1: replica → leader, the CHECKER's commitment."""

    commitment: Commitment

    def wire_size(self) -> int:
        return 8 + self.commitment.wire_size()


@dataclass(frozen=True)
class DamProposalMsg:
    """Step 2: leader → all, ⟨block, proposal, accumulator⟩."""

    block: Block
    proposal: DamProposal
    acc: DamAccum

    def wire_size(self) -> int:
        return (
            8
            + self.block.wire_size()
            + self.proposal.wire_size()
            + self.acc.wire_size()
        )


@dataclass(frozen=True)
class ChainedDamProposalMsg:
    """Chained Damysus: leader → all, ⟨block, proposal, justify⟩, where
    ``justify`` is the parent's prepare certificate (steady state) or
    an ACCUMULATOR certificate (after a timeout)."""

    block: Block
    proposal: DamProposal
    justify: Justify

    def wire_size(self) -> int:
        return (
            8
            + self.block.wire_size()
            + self.proposal.wire_size()
            + self.justify.wire_size()
        )


@dataclass(frozen=True)
class DamVoteMsg:
    """Steps 3 & 5: replica → leader, a phase vote."""

    vote: DamVote

    def wire_size(self) -> int:
        return 8 + self.vote.wire_size()


@dataclass(frozen=True)
class DamCertMsg:
    """Steps 4 & 6: leader → all, a combined phase certificate."""

    cert: DamCert

    def wire_size(self) -> int:
        return 8 + self.cert.wire_size()


@dataclass(frozen=True)
class DamFetchReq:
    """Block recovery request (not part of the six steps).  ``view`` is
    the requester's local bookkeeping (the one recovery path dates
    pulls by it) and is not on the wire: the size counts the hash only."""

    view: int
    block_hash: Digest

    def wire_size(self) -> int:
        return 40


@dataclass(frozen=True)
class DamFetchResp:
    """Block recovery reply; ``view`` echoes the request, off the wire."""

    view: int
    block: Block

    def wire_size(self) -> int:
        return 8 + self.block.wire_size()


__all__ = [
    "DamNewViewMsg",
    "DamProposalMsg",
    "ChainedDamProposalMsg",
    "DamVoteMsg",
    "DamCertMsg",
    "DamFetchReq",
    "DamFetchResp",
]
