"""Unit tests for mempools and workload sources."""

from repro.smr import (
    BLOCK_TXS,
    Mempool,
    Transaction,
    TxBatch,
    TxFactory,
)


def _submit(mp, tx):
    """A client's one-row slab; whether it was accepted."""
    return mp.submit_batch(TxBatch.from_transactions([tx])) == 1


def _commit(mp, *txs):
    mp.mark_committed(TxBatch.from_transactions(txs))


def _window(mp, keys):
    """Which of ``keys`` the dedup window currently remembers."""
    return [k for k in keys if mp.seen_recently(k)]


def test_block_txs_matches_paper():
    assert BLOCK_TXS == 400


def test_saturated_source_full_batches():
    src = TxFactory(10_000, payload_bytes=256)
    batch = src.batch(400)
    assert len(batch) == 400
    assert all(t.payload_bytes == 256 for t in batch)


def test_saturated_source_ids_increase():
    src = TxFactory(10_000)
    a = src.batch(3)
    b = src.batch(3)
    assert [t.tx_id for t in [*a, *b]] == list(range(6))


def test_mempool_fifo_order():
    mp = Mempool(batch_size=10)
    f = TxFactory(1)
    txs = [f.make() for _ in range(3)]
    for t in txs:
        _submit(mp, t)
    assert tuple(mp.next_batch()) == tuple(txs)


def test_mempool_dedup():
    mp = Mempool()
    t = Transaction(1, 1)
    assert _submit(mp, t)
    assert not _submit(mp, t)
    assert len(mp) == 1


def test_mempool_mark_committed_removes_and_blocks_resubmit():
    mp = Mempool()
    t = Transaction(1, 1)
    _submit(mp, t)
    _commit(mp, t)
    assert len(mp) == 0
    assert not _submit(mp, t)


def test_mempool_tops_up_from_source():
    mp = Mempool(source=TxFactory(10_000), batch_size=5)
    client_tx = Transaction(1, 1)
    _submit(mp, client_tx)
    batch = mp.next_batch()
    assert len(batch) == 5
    assert batch[0] == client_tx  # client txs first


def test_mempool_without_source_returns_partial_batch():
    mp = Mempool(batch_size=5)
    _submit(mp, Transaction(1, 1))
    assert len(mp.next_batch()) == 1
    assert len(mp.next_batch()) == 0


def test_batch_size_respected_with_many_pending():
    mp = Mempool(batch_size=2)
    f = TxFactory(9)
    for _ in range(5):
        _submit(mp, f.make())
    assert len(mp.next_batch()) == 2
    assert len(mp) == 3


# -- bounded dedup window ----------------------------------------------
def test_dedup_window_must_be_positive():
    import pytest

    with pytest.raises(ValueError):
        Mempool(dedup_window=0)
    with pytest.raises(ValueError):
        Mempool(dedup_window=-5)


def test_default_dedup_window_is_bounded():
    from repro.smr import DEFAULT_DEDUP_WINDOW

    assert Mempool().dedup_window == DEFAULT_DEDUP_WINDOW
    assert DEFAULT_DEDUP_WINDOW > 0


def test_seen_set_never_exceeds_window():
    mp = Mempool(dedup_window=8)
    for i in range(50):
        _submit(mp, Transaction(1, i))
    assert _window(mp, [(1, i) for i in range(50)]) == [
        (1, i) for i in range(42, 50)
    ]


def test_duplicate_within_window_rejected():
    mp = Mempool(dedup_window=4)
    t = Transaction(1, 1)
    assert _submit(mp, t)
    _submit(mp, Transaction(1, 2))
    assert not _submit(mp, t)


def test_resubmit_after_horizon_is_readmitted():
    """A retransmission arriving after its key aged out of the window
    is accepted again — commit-time dedup is the execution layer's job."""
    mp = Mempool(dedup_window=3)
    t = Transaction(1, 1)
    _submit(mp, t)
    mp.next_batch()  # drain pending; t is no longer queued
    for i in range(2, 6):  # push t's key out of the 3-wide window
        _submit(mp, Transaction(1, i))
    assert not mp.seen_recently(t.key())
    assert _submit(mp, t)


def test_readmitted_pending_key_never_duplicates_a_batch():
    """If a still-pending transaction's key ages out and it is
    resubmitted, the first copy drains and the later one is skipped —
    no batch ever carries the transaction twice."""
    mp = Mempool(dedup_window=2, batch_size=10)
    t = Transaction(1, 1)
    _submit(mp, t)  # stays pending (no next_batch call)
    _submit(mp, Transaction(1, 2))
    _submit(mp, Transaction(1, 3))  # t's key evicted from window
    assert _submit(mp, t)  # re-admitted
    batch = mp.next_batch()
    assert sum(1 for tx in batch if tx.key() == t.key()) == 1


def test_mark_committed_key_inside_window_blocks_resubmit():
    mp = Mempool(dedup_window=4)
    t = Transaction(1, 1)
    _submit(mp, t)
    _commit(mp, t)
    assert not _submit(mp, t)
    assert len(mp) == 0


# -- batched commit (the per-block hot path) ---------------------------
def _state(mp, keys):
    return (_window(mp, keys), len(mp))


def test_mark_committed_many_equals_per_tx_loop():
    """One slab commit ≡ one commit per transaction: same window
    contents *and insertion order* (order decides future evictions)."""
    a, b = Mempool(dedup_window=100), Mempool(dedup_window=100)
    txs = [Transaction(3, i) for i in range(30)]
    for mp in (a, b):
        for t in txs[:5]:
            _submit(mp, t)
    _commit(a, *txs)
    for t in txs:
        _commit(b, t)
    probe = [t.key() for t in txs]
    assert _state(a, probe) == _state(b, probe)
    # Same insertion order: 75 more keys push out the same 5 oldest.
    for mp in (a, b):
        for i in range(75):
            _submit(mp, Transaction(7, i))
    assert _window(a, probe) == _window(b, probe) == probe[5:]


def test_mark_committed_keys_bulk_path_preserves_duplicate_positions():
    """A key already in the window keeps its original position when a
    later commit names it again."""
    a, b = Mempool(dedup_window=6), Mempool(dedup_window=6)
    for mp in (a, b):
        _commit(mp, Transaction(1, 1))
        _commit(mp, Transaction(1, 2))
    keys = [(1, 2), (1, 9), (1, 1), (1, 8)]
    _commit(a, *(Transaction(c, t) for c, t in keys))
    for cid, txid in keys:
        _commit(b, Transaction(cid, txid))
    for mp in (a, b):
        # Window order is 1, 2, 9, 8: three fresh keys evict 1 alone.
        for i in range(3):
            _submit(mp, Transaction(5, i))
        assert _window(mp, keys) == [(1, 2), (1, 9), (1, 8)]


def test_mark_committed_keys_eviction_path_equals_per_tx_loop():
    """When the commit overflows the window its evictions must match
    the per-transaction loop's exactly."""
    a, b = Mempool(dedup_window=10), Mempool(dedup_window=10)
    txs = [Transaction(2, i) for i in range(25)]
    for mp in (a, b):
        for t in txs[:8]:
            _submit(mp, t)
    _commit(a, *txs)
    for t in txs:
        _commit(b, t)
    probe = [t.key() for t in txs]
    assert _state(a, probe) == _state(b, probe)
    assert _window(a, probe) == probe[15:]


def test_mark_committed_keys_drops_pending_entries():
    mp = Mempool(dedup_window=50, batch_size=10)
    txs = [Transaction(4, i) for i in range(6)]
    for t in txs:
        _submit(mp, t)
    _commit(mp, *txs[:4])
    assert len(mp) == 2
    assert [t.tx_id for t in mp.next_batch()] == [4, 5]


# -- committed runs enter the window as intervals ------------------------
def test_committed_run_counts_as_its_length_and_leaves_from_its_front():
    mp = Mempool(dedup_window=10)
    mp.mark_committed(TxBatch.run(10_000, 0, 6))
    mp.mark_committed(TxBatch.run(10_001, 0, 6))
    probe = [(10_000, i) for i in range(6)] + [(10_001, i) for i in range(6)]
    assert _window(mp, probe) == probe[2:]  # 12 keys, room for 10
    assert not _submit(mp, Transaction(10_001, 5))
    assert _submit(mp, Transaction(10_000, 1))  # aged out: re-admitted
    assert not mp.seen_recently((10_000, 2))  # ...and pushed one more out


def test_run_longer_than_the_window_keeps_its_tail():
    mp = Mempool(dedup_window=4)
    _submit(mp, Transaction(1, 1))
    mp.mark_committed(TxBatch.run(10_000, 0, 9))
    assert not mp.seen_recently((1, 1))
    assert _window(mp, [(10_000, i) for i in range(9)]) == [
        (10_000, i) for i in range(5, 9)
    ]


def test_run_sharing_a_client_id_with_single_keys_is_expanded():
    """A pending key inside a committed run must leave the pool, and a
    key the window already holds must keep its position."""
    mp = Mempool(dedup_window=8, batch_size=10)
    _submit(mp, Transaction(5, 2))
    _submit(mp, Transaction(5, 40))
    mp.mark_committed(TxBatch.run(5, 0, 4))
    assert [t.key() for t in mp.next_batch()] == [(5, 40)]
    # Window order: (5,2) (5,40) (5,0) (5,1) (5,3); four more evict
    # (5,2) first although the run named it last-but-one.
    for i in range(4):
        _submit(mp, Transaction(6, i))
    assert _window(mp, [(5, i) for i in range(4)]) == [(5, 0), (5, 1), (5, 3)]


def test_overlapping_runs_of_one_client_are_expanded():
    a, b = Mempool(dedup_window=7), Mempool(dedup_window=7)
    a.mark_committed(TxBatch.run(9, 0, 4))
    a.mark_committed(TxBatch.run(9, 2, 4))
    for t in (0, 1, 2, 3, 2, 3, 4, 5):
        _commit(b, Transaction(9, t))
    probe = [(9, i) for i in range(6)]
    for mp in (a, b):
        _submit(mp, Transaction(1, 1))
        _submit(mp, Transaction(1, 2))
    assert _window(a, probe) == _window(b, probe) == probe[1:]


def test_drain_skips_windows_committed_from_another_block():
    # Rows 0-5 of the head slab commit from another leader's block; the
    # drain skips them a window at a time and resumes on the live rows.
    mp = Mempool(dedup_window=50, batch_size=3)
    mp.submit_batch(TxBatch.columns([4] * 10, range(10), [0.0] * 10))
    mp.submit_batch(TxBatch.columns([5] * 2, range(2), [0.0] * 2))
    _commit(mp, *(Transaction(4, i) for i in range(6)))
    assert [t.key() for t in mp.next_batch()] == [(4, 6), (4, 7), (4, 8)]
    assert [t.key() for t in mp.next_batch()] == [(4, 9), (5, 0), (5, 1)]
    assert len(mp) == 0
