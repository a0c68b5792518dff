"""Unit tests for execution logs and the KV state machine."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.smr import (
    GENESIS,
    ExecutionLog,
    KVStore,
    TxBatch,
    create_leaf,
    prefix_agreement,
)


def _block(parent, view, ops=()):
    txs = TxBatch.columns(
        [1] * len(ops), [view * 100 + i for i in range(len(ops))], ops=ops
    )
    return create_leaf(parent, view, txs, proposer=0)


def test_kv_set_get_del():
    kv = KVStore()
    kv.apply(("set", "a", 1))
    assert kv.get("a") == 1
    kv.apply(("del", "a"))
    assert kv.get("a") is None
    kv.apply(("del", "a"))  # deleting absent key is fine


def test_kv_add_accumulates():
    kv = KVStore()
    kv.apply(("add", "c", 2))
    kv.apply(("add", "c", 3))
    assert kv.get("c") == 5


def test_kv_unknown_op_rejected():
    with pytest.raises(ValueError):
        KVStore().apply(("frobnicate", "x"))


def test_kv_none_op_is_noop():
    kv = KVStore()
    kv.apply(None)
    assert kv.ops_applied == 0


def test_kv_state_digest_order_independent():
    a, b = KVStore(), KVStore()
    a.apply(("set", "x", 1))
    a.apply(("set", "y", 2))
    b.apply(("set", "y", 2))
    b.apply(("set", "x", 1))
    assert a.state_digest() == b.state_digest()


def test_log_executes_in_chain_order():
    log = ExecutionLog()
    b1 = _block(GENESIS.hash, 0, [("set", "k", 1)])
    b2 = _block(b1.hash, 1, [("set", "k", 2)])
    log.execute(b1, 1.0)
    log.execute(b2, 2.0)
    assert len(log) == 2
    assert log.head_hash() == b2.hash
    assert log.state.get("k") == 2
    assert log.execution_time(1) == 2.0


def test_when_length_fires_once_inside_the_reaching_execute():
    log = ExecutionLog()
    seen = []
    log.when_length(2, lambda: seen.append((len(log), log.txs_executed)))
    b1 = _block(GENESIS.hash, 0, [("set", "k", 1)])
    b2 = _block(b1.hash, 1, [("set", "k", 2)])
    b3 = _block(b2.hash, 2)
    log.execute(b1, 1.0)
    assert seen == []
    log.execute(b2, 2.0)
    # Called from within execute, after the block is fully accounted.
    assert seen == [(2, 2)]
    log.execute(b3, 3.0)
    assert seen == [(2, 2)]


def test_when_length_already_reached_fires_at_once():
    log = ExecutionLog()
    log.execute(_block(GENESIS.hash, 0), 1.0)
    seen = []
    log.when_length(1, lambda: seen.append("now"))
    log.when_length(0, lambda: seen.append("zero"))
    assert seen == ["now", "zero"]


def test_log_rejects_double_execution():
    log = ExecutionLog()
    b1 = _block(GENESIS.hash, 0)
    log.execute(b1, 1.0)
    with pytest.raises(ValueError):
        log.execute(b1, 2.0)


def test_log_rejects_out_of_order():
    log = ExecutionLog()
    b1 = _block(GENESIS.hash, 0)
    orphan = _block(b"\x22" * 32, 1)
    log.execute(b1, 1.0)
    with pytest.raises(ValueError):
        log.execute(orphan, 2.0)


def test_genesis_counts_as_executed():
    log = ExecutionLog()
    assert log.is_executed(GENESIS.hash)
    assert len(log) == 0


def test_log_digest_tracks_order():
    log1, log2 = ExecutionLog(), ExecutionLog()
    b1 = _block(GENESIS.hash, 0)
    assert log1.log_digest() == log2.log_digest()
    log1.execute(b1, 1.0)
    assert log1.log_digest() != log2.log_digest()


def test_txs_executed_counter():
    log = ExecutionLog()
    b1 = _block(GENESIS.hash, 0, [("set", "a", 1), ("set", "b", 2)])
    log.execute(b1, 1.0)
    assert log.txs_executed == 2


def test_prefix_agreement_holds_for_prefixes():
    b1 = _block(GENESIS.hash, 0)
    b2 = _block(b1.hash, 1)
    l1, l2 = ExecutionLog(), ExecutionLog()
    l1.execute(b1, 1.0)
    l1.execute(b2, 2.0)
    l2.execute(b1, 1.0)
    assert prefix_agreement([l1, l2])


def test_prefix_agreement_detects_forks():
    b1 = _block(GENESIS.hash, 0)
    fork = _block(GENESIS.hash, 5)
    l1, l2 = ExecutionLog(), ExecutionLog()
    l1.execute(b1, 1.0)
    l2.execute(fork, 1.0)
    assert not prefix_agreement([l1, l2])


def _pairwise_prefix_agreement(logs):
    """The definition: every pair agrees on its common prefix."""
    return all(
        x.hash == y.hash
        for i, a in enumerate(logs)
        for b in logs[i + 1 :]
        for x, y in zip(a.blocks, b.blocks)
    )


@st.composite
def _log_sets(draw):
    """Prefixes of one base chain (empty and equal-length ones
    included), some with one block replaced at any position — a fork
    there, or a no-op when the draw repeats the base block."""
    base = draw(st.lists(st.integers(0, 3), max_size=8))
    logs = []
    for _ in range(draw(st.integers(0, 5))):
        hashes = base[: draw(st.integers(0, len(base)))]
        if hashes and draw(st.booleans()):
            pos = draw(st.integers(0, len(hashes) - 1))
            hashes[pos] = draw(st.integers(0, 3))
        blocks = [SimpleNamespace(hash=h) for h in hashes]
        logs.append(SimpleNamespace(blocks=blocks))
    return logs


@given(_log_sets())
def test_prefix_agreement_matches_the_pairwise_definition(logs):
    assert prefix_agreement(logs) == _pairwise_prefix_agreement(logs)
