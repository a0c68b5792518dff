"""Basic HotStuff certificates (PODC'19 baseline).

Votes are partial signatures over ``(phase, view, hash)``; a quorum
certificate (QC) combines 2f+1 of them.  The paper's C++ baseline uses
ECDSA signature lists (no threshold aggregation), so verifying a QC
costs 2f+1 signature checks — we model the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...crypto import Digest, Signature
from ...crypto.signed import Certificate, Statement
from ...smr import GENESIS

#: HotStuff phases.
HS_PREPARE = "prepare"
HS_PRECOMMIT = "pre-commit"
HS_COMMIT = "commit"
HS_DECIDE = "decide"


@dataclass(frozen=True)
class HsVote(Statement):
    """A partial signature for one phase of one view."""

    DOMAIN = "hs-vote"
    HEAD = 48
    phase: str
    view: int
    block_hash: Digest
    sig: Signature


@dataclass(frozen=True)
class HsQC(Certificate, of=HsVote):
    """A quorum certificate: 2f+1 votes on ``(phase, view, hash)``."""

    HEAD = 48
    phase: str
    view: int
    block_hash: Digest
    sigs: tuple[Signature, ...]

    @property
    def is_genesis(self) -> bool:
        return self.view == -1 and self.block_hash == GENESIS.hash


#: Bootstrap QC: genesis is prepared before view 0.
HS_GENESIS_QC = HsQC(phase=HS_PREPARE, view=-1, block_hash=GENESIS.hash, sigs=())


__all__ = [
    "HS_PREPARE",
    "HS_PRECOMMIT",
    "HS_COMMIT",
    "HS_DECIDE",
    "HsVote",
    "HsQC",
    "HS_GENESIS_QC",
]
