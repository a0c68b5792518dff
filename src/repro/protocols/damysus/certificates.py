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

from ...crypto import Digest, Signature
from ...crypto.signed import Certificate, Statement

#: Vote phases.
PREPARE = "prepare"
COMMIT = "commit"


@dataclass(frozen=True)
class Commitment(Statement):
    """``com(prep_view, prep_hash, view)_σ``."""

    DOMAIN = "dam-com"
    HEAD = 48
    prep_view: int
    prep_hash: Digest
    view: int
    sig: Signature


@dataclass(frozen=True)
class DamAccum(Statement):
    """``acc(view, prep_hash, prep_view)_σ`` — highest prepared pair."""

    DOMAIN = "dam-acc"
    HEAD = 48
    view: int
    prep_hash: Digest
    prep_view: int
    sig: Signature


@dataclass(frozen=True)
class DamProposal(Statement):
    """``prop(h, view)_σ`` from the leader's CHECKER."""

    DOMAIN = "dam-prop"
    HEAD = 40
    block_hash: Digest
    view: int
    sig: Signature


@dataclass(frozen=True)
class DamVote(Statement):
    """``vote(h, view, phase)_σ``."""

    DOMAIN = "dam-vote"
    HEAD = 48
    block_hash: Digest
    view: int
    phase: str
    sig: Signature


@dataclass(frozen=True)
class DamCert(Certificate, of=DamVote):
    """``cert(h, view, phase)_{σ⃗^{f+1}}`` — a combined phase quorum."""

    HEAD = 48
    block_hash: Digest
    view: int
    phase: str
    sigs: tuple[Signature, ...]


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
]
