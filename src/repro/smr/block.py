"""Blocks and the extension relation.

A block ``b`` contains client transactions and the hash of the block it
builds on (Sec. IV).  ``b ≻ h`` ("b directly extends the block with
hash h") is checked via the stored parent hash; ``≻⁺`` is its
transitive closure (implemented in :mod:`repro.smr.chain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto import Digest, digest_of, encode, sequence_header, sha256
from .transaction import TxBatch

#: ``encode`` of a 5-item tuple up to its first item, ``"block"``.
_BLOCK_HEAD = sequence_header(5) + encode("block")


@dataclass(frozen=True, eq=False)
class Block:
    """An immutable block proposed at ``view`` extending ``parent``,
    carrying its transactions as one :class:`TxBatch` slab.  Two blocks
    are equal when their digests are — the digest covers every field.
    """

    parent: Digest
    view: int
    txs: TxBatch = TxBatch()
    proposer: int = -1

    @cached_property
    def hash(self) -> Digest:
        """``digest_of("block", parent, view, proposer, rows)`` bit for
        bit, ``rows`` being every transaction's ``("tx", client_id,
        tx_id, payload_bytes)``, with the transaction part written per
        slab segment and no process-global memo entry."""
        return sha256(
            _BLOCK_HEAD
            + encode(self.parent)
            + encode(self.view)
            + encode(self.proposer)
            + self.txs.encoding()
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Block) and self.hash == other.hash

    def __hash__(self) -> int:
        return hash(self.hash)

    def extends(self, h: Digest) -> bool:
        """The paper's ``b ≻ h`` relation."""
        return self.parent == h

    @cached_property
    def _wire_size(self) -> int:
        return self.txs.wire_size()

    def wire_size(self) -> int:
        """Bytes on the wire: transactions carry their own 40 B overhead
        (which amortizes the 32 B parent hash, Sec. VIII); cached, so a
        broadcast sizes the block once, not once per destination."""
        return self._wire_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Block v={self.view} p={self.proposer} "
            f"{len(self.txs)}tx {self.hash.hex()[:8]}>"
        )


def make_genesis() -> Block:
    """The unique genesis block (view -1, no parent)."""
    return Block(parent=digest_of("pre-genesis"), view=-1, txs=TxBatch(), proposer=-1)


#: Shared immutable genesis instance and its hash.
GENESIS = make_genesis()
GENESIS_HASH: Digest = GENESIS.hash


def create_leaf(
    parent_hash: Digest,
    view: int,
    txs: TxBatch,
    proposer: int,
) -> Block:
    """The paper's ``createLeaf``: a new block extending ``parent_hash``."""
    return Block(parent=parent_hash, view=view, txs=txs, proposer=proposer)


__all__ = ["Block", "GENESIS", "GENESIS_HASH", "create_leaf", "make_genesis"]
