"""Unit tests for the block store and ancestry relations."""

import pytest

from repro.smr import GENESIS, BlockStore, ChainError, TxBatch, create_leaf


def chain(store, length, start_parent=None, view0=0, proposer=0):
    parent = start_parent if start_parent is not None else GENESIS.hash
    blocks = []
    for i in range(length):
        b = create_leaf(parent, view0 + i, TxBatch(), proposer)
        store.add(b)
        blocks.append(b)
        parent = b.hash
    return blocks


def test_store_contains_genesis():
    s = BlockStore()
    assert GENESIS.hash in s
    assert s.height(GENESIS.hash) == 0


def test_add_and_get():
    s = BlockStore()
    b = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    s.add(b)
    assert s.get(b.hash) is b
    assert s.get(b"\x00" * 32) is None


def test_add_idempotent():
    s = BlockStore()
    b = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    s.add(b)
    s.add(b)
    assert len(s) == 2  # genesis + b


def test_heights_follow_chain():
    s = BlockStore()
    blocks = chain(s, 4)
    assert [s.height(b.hash) for b in blocks] == [1, 2, 3, 4]


def test_out_of_order_insert_settles_heights():
    s = BlockStore()
    a = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    b = create_leaf(a.hash, 1, TxBatch(), 0)
    c = create_leaf(b.hash, 2, TxBatch(), 0)
    s.add(c)
    s.add(b)
    assert s.height(c.hash) is None  # ancestry gap
    s.add(a)
    assert s.height(c.hash) == 3


def test_extends_plus_transitive():
    s = BlockStore()
    blocks = chain(s, 3)
    assert s.extends_plus(blocks[2].hash, blocks[0].hash)
    assert s.extends_plus(blocks[2].hash, GENESIS.hash)
    assert not s.extends_plus(blocks[0].hash, blocks[2].hash)


def test_extends_plus_irreflexive():
    s = BlockStore()
    (b,) = chain(s, 1)
    assert not s.extends_plus(b.hash, b.hash)


def test_conflicts_on_forks():
    s = BlockStore()
    a = chain(s, 2)
    fork = create_leaf(a[0].hash, 5, TxBatch(), 1)
    s.add(fork)
    assert s.conflicts(a[1].hash, fork.hash)
    assert not s.conflicts(a[1].hash, a[0].hash)
    assert not s.conflicts(a[0].hash, a[0].hash)


def test_conflicts_requires_known_ancestry():
    s = BlockStore()
    a = chain(s, 1)
    with pytest.raises(ChainError):
        s.conflicts(a[0].hash, b"\x11" * 32)


def test_path_from_unexecuted():
    s = BlockStore()
    blocks = chain(s, 3)
    executed = {GENESIS.hash, blocks[0].hash}
    path = s.path_from(blocks[2].hash, executed)
    assert [b.hash for b in path] == [blocks[1].hash, blocks[2].hash]


def test_path_from_missing_block_raises():
    s = BlockStore()
    a = create_leaf(GENESIS.hash, 0, TxBatch(), 0)
    b = create_leaf(a.hash, 1, TxBatch(), 0)
    s.add(b)  # a missing
    with pytest.raises(ChainError):
        s.path_from(b.hash, {GENESIS.hash})


def test_path_from_already_executed_is_empty():
    s = BlockStore()
    blocks = chain(s, 1)
    assert s.path_from(blocks[0].hash, {GENESIS.hash, blocks[0].hash}) == []


def test_ancestors_walk():
    s = BlockStore()
    blocks = chain(s, 3)
    walked = list(s.ancestors(blocks[2].hash))
    assert [b.hash for b in walked] == [
        blocks[2].hash,
        blocks[1].hash,
        blocks[0].hash,
        GENESIS.hash,
    ]
