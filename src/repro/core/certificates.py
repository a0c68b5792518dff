"""OneShot certificates — Definitions 1-6 of the paper.

* **Proposal** (Def. 1): ``prop(h, v)_σ`` — produced by ``TEEprepare``,
  at most one per view.
* **Store certificate** (Def. 2): ``store(v₂, h, v₁)_σ`` — produced by
  ``TEEstore``; block ``h`` proposed at ``v₁`` was "stored" at ``v₂``.
* **Prepare certificate** (Def. 3): ``prep(v₂, h, v₁)_{σ⃗^{f+1}}`` —
  f+1 store-certificate signatures combined by a leader.
* **Vote / vote certificate** (Def. 4): ``vote(h, v)_σ`` and
  ``vc(h, v)_{σ⃗^{f+1}}`` — the catch-up deliver phase.
* **Accumulator** (Def. 5): ``acc(B, v, h, id⃗)_σ`` — produced by
  ``TEEaccum``; certifies the highest new-view certificate.
* **New-view certificate** (Def. 6): a prepare certificate or
  ``nv(b, φ_s, φ_qc)``.

A *quorum certificate* ``φ_qc`` is a prepare certificate, a vote
certificate, or a ``B = true`` accumulator; :func:`qc_ref` maps each to
the ⟨view, hash⟩ pair it is *for*, following Sec. VI-B(f):
``prep(v−1, h, v')`` and ``acc(true, v−1, h, id⃗)`` are for ⟨v, h⟩,
``vc(h, v)`` is for ⟨v, h⟩.

Defs. 1-5 are :mod:`repro.crypto.signed` statements and certificates:
each class declares its domain tag, wire size and fields only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..crypto import Digest, KeyRing, Signature
from ..crypto.memo import record_valid, seen_valid
from ..crypto.signed import SIG_BYTES, Certificate, Statement
from ..smr import GENESIS, Block

#: Phase labels of the CHECKER counter.
PH0, PH1 = 0, 1


# ----------------------------------------------------------------------
# Def. 1 — Proposals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Proposal(Statement):
    """``prop(h, v)_σ``; ``view == -1`` is the unsigned genesis bootstrap."""

    DOMAIN = "os-prop"
    HEAD = 40
    block_hash: Digest
    view: int
    sig: Optional[Signature]

    @property
    def is_genesis(self) -> bool:
        return self.view == -1

    def verify(self, ring: KeyRing, quorum: int = 1) -> bool:
        if self.is_genesis:
            return self.block_hash == GENESIS.hash and self.sig is None
        return self.sig is not None and super().verify(ring)


#: The bootstrap proposal every replica starts from.
GENESIS_PROPOSAL = Proposal(block_hash=GENESIS.hash, view=-1, sig=None)


# ----------------------------------------------------------------------
# Defs. 2-3 — Store and prepare certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreCert(Statement):
    """``store(v₂, h, v₁)_σ``."""

    DOMAIN = "os-store"
    HEAD = 48
    stored_view: int  # v2
    block_hash: Digest
    prop_view: int  # v1
    sig: Signature


@dataclass(frozen=True)
class PrepareCert(Certificate, of=StoreCert):
    """``prep(v₂, h, v₁)_{σ⃗^{f+1}}`` — f+1 store-cert signatures.

    The instance with ``stored_view == prop_view == -1`` over the
    genesis hash is the bootstrap certificate, valid by convention.
    """

    HEAD = 48
    stored_view: int
    block_hash: Digest
    prop_view: int
    sigs: tuple[Signature, ...]

    @property
    def is_genesis(self) -> bool:
        return (
            self.stored_view == -1
            and self.prop_view == -1
            and self.block_hash == GENESIS.hash
        )


#: Bootstrap certificate: "genesis was prepared before view 0".
GENESIS_QC = PrepareCert(
    stored_view=-1, block_hash=GENESIS.hash, prop_view=-1, sigs=()
)


# ----------------------------------------------------------------------
# Def. 4 — Votes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Vote(Statement):
    """``vote(h, v)_σ``."""

    DOMAIN = "os-vote"
    HEAD = 40
    block_hash: Digest
    view: int
    sig: Signature


@dataclass(frozen=True)
class VoteCert(Certificate, of=Vote):
    """``vc(h, v)_{σ⃗^{f+1}}``."""

    HEAD = 40
    block_hash: Digest
    view: int
    sigs: tuple[Signature, ...]


# ----------------------------------------------------------------------
# Def. 5 — Accumulators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Accumulator(Statement):
    """``acc(B, v, h, id⃗)_σ``.

    ``certified`` is the Boolean B: whether the top new-view
    certificate is certified by its own hash (the re-vote-avoidance
    marker of Sec. VI-F(a)).  ``ids`` are the f+1 contributors — the
    nodes a block pull asks (:meth:`signer_ids`).
    """

    DOMAIN = "os-acc"
    HEAD = 48
    certified: bool  # B
    view: int  # v (the stored view of the contributing certificates)
    block_hash: Digest
    ids: tuple[int, ...]
    sig: Signature

    def signer_ids(self) -> tuple[int, ...]:
        return self.ids

    def verify(self, ring: KeyRing, quorum: int = 1) -> bool:
        """Def. 5 validity: correct signature + f+1 unique ids."""
        if seen_valid(self, ring, quorum):
            return True
        if len(set(self.ids)) < quorum or not super().verify(ring):
            return False
        record_valid(self, ring, quorum)
        return True

    def wire_size(self) -> int:
        return self.HEAD + 4 * len(self.ids) + SIG_BYTES


#: A quorum certificate φ_qc (Sec. VI-B(f)).
QuorumCert = Union[PrepareCert, VoteCert, Accumulator]


def qc_ref(qc: QuorumCert) -> Optional[tuple[int, Digest]]:
    """The ⟨view, hash⟩ pair a quorum certificate is *for*.

    Returns None for a ``B = false`` accumulator, which is not usable
    as a quorum certificate.
    """
    if isinstance(qc, PrepareCert):
        return (qc.stored_view + 1, qc.block_hash)
    if isinstance(qc, VoteCert):
        return (qc.view, qc.block_hash)
    if isinstance(qc, Accumulator):
        if not qc.certified:
            return None
        return (qc.view + 1, qc.block_hash)
    return None


# ----------------------------------------------------------------------
# Def. 6 — New-view certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NewViewCert:
    """``nv(b, φ_s, φ_qc)``.

    ``block`` may be None under the large-block-omission optimization
    (Sec. VI-F(b)) — the receiver pulls it if needed.
    """

    block: Optional[Block]
    store: StoreCert
    qc: QuorumCert

    @property
    def sig_count(self) -> int:
        """Signature checks one verification costs: the store
        certificate's and the quorum certificate's."""
        return 1 + self.qc.sig_count

    def verify(self, ring: KeyRing, quorum: int) -> bool:
        """Structural + cryptographic validity of an nv-form certificate.

        Checks the store certificate's signature, the inner quorum
        certificate, and Def. 6's consistency: either the stored block
        extends the qc's block at the proposal view (timeout after an
        undecided proposal, l.31), or the qc certifies the stored block
        itself (timeout after a decision, l.45).

        The full check is memoized on the (frozen) instance per
        ``(ring, quorum)``: the next leader and every deliver-phase
        replica receive the same certificate object, so it is checked
        once, not once per receiver.  Simulated cost is unaffected —
        callers charge :attr:`sig_count` regardless.
        """
        if seen_valid(self, ring, quorum):
            return True
        store, block = self.store, self.block
        if not store.verify(ring) or not self.qc.verify(ring, quorum):
            return False
        ref = qc_ref(self.qc)
        if ref is None:
            return False
        qc_view, qc_hash = ref
        if qc_hash == store.block_hash:
            # Self-certified (decided in view v₁, qc is for ⟨v₁+1, h⟩).
            if qc_view != store.prop_view + 1:
                return False
        else:
            # Extends case: qc is for ⟨v₁, h'⟩ and b ≻ h'.
            if qc_view != store.prop_view:
                return False
            if block is not None and not block.extends(qc_hash):
                return False
        if block is not None and block.hash != store.block_hash:
            return False
        record_valid(self, ring, quorum)
        return True

    def wire_size(self) -> int:
        qc_size = self.qc.wire_size()
        blk = self.block.wire_size() if self.block is not None else 0
        return 8 + blk + self.store.wire_size() + qc_size


#: Either arm of Def. 6.
NewView = Union[PrepareCert, NewViewCert]


def nv_triple(nv: NewView) -> tuple[int, Digest, int]:
    """The ⟨v₂, h, v₁⟩ a new-view certificate is *for* (Def. 6)."""
    if isinstance(nv, PrepareCert):
        return (nv.stored_view, nv.block_hash, nv.prop_view)
    return (nv.store.stored_view, nv.store.block_hash, nv.store.prop_view)


def certifies(h: Digest, nv: NewView) -> bool:
    """Def. 6's ``certifies(h', φ_n)``: the nv certificate's quorum
    certificate is for the very block the store certificate stores."""
    if not isinstance(nv, NewViewCert):
        return False
    ref = qc_ref(nv.qc)
    return ref is not None and ref[1] == nv.store.block_hash == h


__all__ = [
    "PH0",
    "PH1",
    "SIG_BYTES",
    "Proposal",
    "GENESIS_PROPOSAL",
    "StoreCert",
    "PrepareCert",
    "GENESIS_QC",
    "Vote",
    "VoteCert",
    "Accumulator",
    "QuorumCert",
    "NewView",
    "NewViewCert",
    "qc_ref",
    "nv_triple",
    "certifies",
]
