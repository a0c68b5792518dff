"""Basic HotStuff wire messages — the 8 communication steps of Fig. 1."""

from __future__ import annotations

from dataclasses import dataclass

from ...crypto import Digest
from ...smr import Block
from .certificates import HsQC, HsVote


@dataclass(frozen=True)
class HsNewViewMsg:
    """Step 1: replica → leader, carrying the replica's prepareQC."""

    view: int  # the view this message opens
    justify: HsQC

    def wire_size(self) -> int:
        return 16 + self.justify.wire_size()


@dataclass(frozen=True)
class HsProposalMsg:
    """Step 2 (prepare): leader → all, ⟨block, highQC⟩."""

    block: Block
    view: int
    justify: HsQC  # highQC

    def wire_size(self) -> int:
        return 16 + self.block.wire_size() + self.justify.wire_size()


@dataclass(frozen=True)
class HsVoteMsg:
    """Steps 3/5/7: replica → leader, a phase vote."""

    vote: HsVote

    def wire_size(self) -> int:
        return 8 + self.vote.wire_size()


@dataclass(frozen=True)
class HsQcMsg:
    """Steps 4/6/8: leader → all, the combined QC of the prior phase."""

    qc: HsQC

    def wire_size(self) -> int:
        return 8 + self.qc.wire_size()


@dataclass(frozen=True)
class HsFetchReq:
    """Block recovery request.  ``view`` is the requester's local
    bookkeeping (the one recovery path dates pulls by it) and is not
    on the wire: the size counts the hash only."""

    view: int
    block_hash: Digest

    def wire_size(self) -> int:
        return 40


@dataclass(frozen=True)
class HsFetchResp:
    """Block recovery reply; ``view`` echoes the request, off the wire."""

    view: int
    block: Block

    def wire_size(self) -> int:
        return 8 + self.block.wire_size()


__all__ = [
    "HsNewViewMsg",
    "HsProposalMsg",
    "HsVoteMsg",
    "HsQcMsg",
    "HsFetchReq",
    "HsFetchResp",
]
