"""Unit tests for blocks and transactions."""

import pytest

from repro.smr import (
    GENESIS,
    GENESIS_HASH,
    TX_OVERHEAD_BYTES,
    Block,
    Transaction,
    TxFactory,
    create_leaf,
    make_genesis,
)


def test_genesis_is_stable():
    assert make_genesis().hash == GENESIS.hash == GENESIS_HASH
    assert GENESIS.view == -1
    assert len(GENESIS.txs) == 0 and tuple(GENESIS.txs) == ()


def test_create_leaf_extends_parent():
    b = create_leaf(GENESIS.hash, view=0, txs=(), proposer=1)
    assert b.extends(GENESIS.hash)
    assert not b.extends(b.hash)


def test_block_hash_covers_fields():
    txs = TxFactory(0).batch(2)
    base = create_leaf(GENESIS.hash, 0, txs, proposer=1)
    assert base.hash != create_leaf(GENESIS.hash, 1, txs, proposer=1).hash
    assert base.hash != create_leaf(GENESIS.hash, 0, txs, proposer=2).hash
    assert base.hash != create_leaf(base.hash, 0, txs, proposer=1).hash
    assert base.hash != create_leaf(GENESIS.hash, 0, txs[:1], proposer=1).hash


def test_block_hash_cached_and_deterministic():
    b = create_leaf(GENESIS.hash, 0, (), 0)
    assert b.hash is b.hash  # cached object
    b2 = create_leaf(GENESIS.hash, 0, (), 0)
    assert b.hash == b2.hash


def test_blocks_compare_and_hash_by_digest():
    """A block built from Transactions and one built from the equivalent
    slab are the same block: equal, same hash, same dict key."""
    slab = TxFactory(7, payload_bytes=256).batch(400, now=1.5)
    from_slab = create_leaf(GENESIS.hash, 3, slab, proposer=2)
    from_txs = create_leaf(GENESIS.hash, 3, tuple(slab), proposer=2)
    assert from_slab == from_txs and hash(from_slab) == hash(from_txs)
    assert {from_slab: "x"}[from_txs] == "x"
    assert list(from_txs.txs) == list(slab)
    other = create_leaf(GENESIS.hash, 3, slab[:399], proposer=2)
    assert from_slab != other and from_slab != from_slab.hash
    assert len({from_slab, from_txs, other}) == 2


def test_block_hashing_stays_out_of_the_digest_memo():
    """The run's ``digest_of`` memos hold no per-block entry (each used
    to pin a 400-row tuple until 65 536 others pushed it out)."""
    from repro.crypto import digest_memo_entries

    before = digest_memo_entries()
    factory, parent = TxFactory(11, payload_bytes=256), GENESIS.hash
    for view in range(100):
        parent = create_leaf(parent, view, factory.batch(400), view % 4).hash
    assert digest_memo_entries() == before


def test_paper_block_sizes():
    """Sec. VIII: 400x40B = 15.6KB (0B) and 400x296B = 115.6KB (256B)."""
    factory0 = TxFactory(0, payload_bytes=0)
    b0 = create_leaf(GENESIS.hash, 0, factory0.batch(400), 0)
    assert abs(b0.wire_size() - 400 * 40) <= 16  # + tiny block header

    factory256 = TxFactory(0, payload_bytes=256)
    b256 = create_leaf(GENESIS.hash, 0, factory256.batch(400), 0)
    assert abs(b256.wire_size() - 400 * (40 + 256)) <= 16


def test_tx_overhead_is_40_bytes():
    tx = Transaction(client_id=1, tx_id=2, payload_bytes=0)
    assert tx.wire_size() == TX_OVERHEAD_BYTES == 40
    assert Transaction(1, 2, payload_bytes=256).wire_size() == 296


def test_tx_factory_unique_increasing_ids():
    f = TxFactory(5)
    a, b = f.make(), f.make()
    assert a.client_id == b.client_id == 5
    assert b.tx_id == a.tx_id + 1
    assert a.key() != b.key()


def test_tx_encoding_distinguishes_txs():
    assert Transaction(1, 1).encoding() != Transaction(1, 2).encoding()


def test_blocks_are_immutable():
    b = create_leaf(GENESIS.hash, 0, (), 0)
    with pytest.raises(Exception):
        b.view = 3
