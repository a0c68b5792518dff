"""Unit tests for blocks and transactions."""

import pytest

from repro.smr import (
    GENESIS,
    GENESIS_HASH,
    TX_OVERHEAD_BYTES,
    Block,
    TxBatch,
    TxFactory,
    create_leaf,
    make_genesis,
)


def test_genesis_is_stable():
    assert make_genesis().hash == GENESIS.hash == GENESIS_HASH
    assert GENESIS.view == -1
    assert len(GENESIS.txs) == 0 and GENESIS.txs.segments == ()


def test_create_leaf_extends_parent():
    b = create_leaf(GENESIS.hash, view=0, txs=TxBatch(), proposer=1)
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
    b = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    assert b.hash is b.hash  # cached object
    b2 = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    assert b.hash == b2.hash


def test_blocks_compare_and_hash_by_digest():
    """A block built from the filler's run and one built from the same
    rows as packed keys are the same block: equal, same hash, same dict
    key."""
    slab = TxFactory(7, payload_bytes=256).batch(400)
    from_slab = create_leaf(GENESIS.hash, 3, slab, proposer=2)
    from_keys = create_leaf(
        GENESIS.hash, 3, TxBatch.from_keys(slab.packed(), 256), proposer=2
    )
    assert from_slab == from_keys and hash(from_slab) == hash(from_keys)
    assert {from_slab: "x"}[from_keys] == "x"
    assert from_keys.txs.keys() == slab.keys()
    other = create_leaf(GENESIS.hash, 3, slab[:399], proposer=2)
    assert from_slab != other and from_slab != from_slab.hash
    assert len({from_slab, from_keys, other}) == 2


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
    """A row costs 40 B plus its payload; a slab adds an 8 B header."""
    assert TxBatch.columns([1], [2]).wire_size() - 8 == TX_OVERHEAD_BYTES == 40
    assert TxBatch.columns([1], [2], payload_bytes=256).wire_size() - 8 == 296


def test_tx_factory_unique_increasing_ids():
    f = TxFactory(5)
    (a,), (b,) = f.batch(1).keys(), f.batch(1).keys()
    assert a[0] == b[0] == 5
    assert b[1] == a[1] + 1
    assert a != b


def test_tx_encoding_distinguishes_txs():
    assert TxBatch.columns([1], [1]).encoding() != TxBatch.columns([1], [2]).encoding()


def test_blocks_are_immutable():
    b = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    with pytest.raises(Exception):
        b.view = 3
