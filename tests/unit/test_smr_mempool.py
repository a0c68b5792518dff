"""Unit tests for mempools and workload sources."""

from repro.smr import (
    BLOCK_TXS,
    Mempool,
    TxBatch,
    TxFactory,
)

from ..conftest import slab_rows


def _submit(mp, key):
    """A client's one-row slab for ``(client_id, tx_id)``; whether it
    was accepted."""
    return mp.submit_batch(TxBatch.columns([key[0]], [key[1]])) == 1


def _commit(mp, *keys):
    """A committed block carrying ``keys`` as one key segment."""
    mp.mark_committed(TxBatch.columns([c for c, _ in keys], [t for _, t in keys]))


def _window(mp, keys):
    """Which of ``keys`` the dedup window currently remembers."""
    return [k for k in keys if mp.seen_recently(k)]


def test_block_txs_matches_paper():
    assert BLOCK_TXS == 400


def test_saturated_source_full_batches():
    src = TxFactory(10_000, payload_bytes=256)
    batch = src.batch(400)
    assert len(batch) == 400
    assert all(p == 256 for _, _, p, _ in slab_rows(batch))


def test_saturated_source_ids_increase():
    src = TxFactory(10_000)
    a = src.batch(3)
    b = src.batch(3)
    assert [t for _, t in a.keys() + b.keys()] == list(range(6))


def test_mempool_fifo_order():
    mp = Mempool(batch_size=10)
    keys = [(1, i) for i in range(3)]
    for k in keys:
        _submit(mp, k)
    assert mp.next_batch().keys() == tuple(keys)


def test_mempool_dedup():
    mp = Mempool()
    t = (1, 1)
    assert _submit(mp, t)
    assert not _submit(mp, t)
    assert len(mp) == 1


def test_mempool_mark_committed_removes_and_blocks_resubmit():
    mp = Mempool()
    t = (1, 1)
    _submit(mp, t)
    _commit(mp, t)
    assert len(mp) == 0
    assert not _submit(mp, t)


def test_mempool_tops_up_from_source():
    mp = Mempool(source=TxFactory(10_000), batch_size=5)
    _submit(mp, (1, 1))
    batch = mp.next_batch()
    assert len(batch) == 5
    assert batch.keys()[0] == (1, 1)  # client txs first


def test_mempool_without_source_returns_partial_batch():
    mp = Mempool(batch_size=5)
    _submit(mp, (1, 1))
    assert len(mp.next_batch()) == 1
    assert len(mp.next_batch()) == 0


def test_batch_size_respected_with_many_pending():
    mp = Mempool(batch_size=2)
    for i in range(5):
        _submit(mp, (9, i))
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
        _submit(mp, (1, i))
    assert _window(mp, [(1, i) for i in range(50)]) == [
        (1, i) for i in range(42, 50)
    ]


def test_duplicate_within_window_rejected():
    mp = Mempool(dedup_window=4)
    t = (1, 1)
    assert _submit(mp, t)
    _submit(mp, (1, 2))
    assert not _submit(mp, t)


def test_resubmit_after_horizon_is_readmitted():
    """A retransmission arriving after its key aged out of the window
    is accepted again — commit-time dedup is the execution layer's job."""
    mp = Mempool(dedup_window=3)
    t = (1, 1)
    _submit(mp, t)
    mp.next_batch()  # drain pending; t is no longer queued
    for i in range(2, 6):  # push t's key out of the 3-wide window
        _submit(mp, (1, i))
    assert not mp.seen_recently(t)
    assert _submit(mp, t)


def test_readmitted_pending_key_never_duplicates_a_batch():
    """If a still-pending transaction's key ages out and it is
    resubmitted, the first copy drains and the later one is skipped —
    no batch ever carries the transaction twice."""
    mp = Mempool(dedup_window=2, batch_size=10)
    t = (1, 1)
    _submit(mp, t)  # stays pending (no next_batch call)
    _submit(mp, (1, 2))
    _submit(mp, (1, 3))  # t's key evicted from window
    assert _submit(mp, t)  # re-admitted
    assert mp.next_batch().keys().count(t) == 1


def test_mark_committed_key_inside_window_blocks_resubmit():
    mp = Mempool(dedup_window=4)
    t = (1, 1)
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
    txs = [(3, i) for i in range(30)]
    for mp in (a, b):
        for t in txs[:5]:
            _submit(mp, t)
    _commit(a, *txs)
    for t in txs:
        _commit(b, t)
    probe = txs
    assert _state(a, probe) == _state(b, probe)
    # Same insertion order: 75 more keys push out the same 5 oldest.
    for mp in (a, b):
        for i in range(75):
            _submit(mp, (7, i))
    assert _window(a, probe) == _window(b, probe) == probe[5:]


def test_mark_committed_keys_bulk_path_preserves_duplicate_positions():
    """A key already in the window keeps its original position when a
    later commit names it again."""
    a, b = Mempool(dedup_window=6), Mempool(dedup_window=6)
    for mp in (a, b):
        _commit(mp, (1, 1))
        _commit(mp, (1, 2))
    keys = [(1, 2), (1, 9), (1, 1), (1, 8)]
    _commit(a, *keys)
    for key in keys:
        _commit(b, key)
    for mp in (a, b):
        # Window order is 1, 2, 9, 8: three fresh keys evict 1 alone.
        for i in range(3):
            _submit(mp, (5, i))
        assert _window(mp, keys) == [(1, 2), (1, 9), (1, 8)]


def test_mark_committed_keys_eviction_path_equals_per_tx_loop():
    """When the commit overflows the window its evictions must match
    the per-transaction loop's exactly."""
    a, b = Mempool(dedup_window=10), Mempool(dedup_window=10)
    txs = [(2, i) for i in range(25)]
    for mp in (a, b):
        for t in txs[:8]:
            _submit(mp, t)
    _commit(a, *txs)
    for t in txs:
        _commit(b, t)
    probe = txs
    assert _state(a, probe) == _state(b, probe)
    assert _window(a, probe) == probe[15:]


def test_mark_committed_keys_drops_pending_entries():
    mp = Mempool(dedup_window=50, batch_size=10)
    txs = [(4, i) for i in range(6)]
    for t in txs:
        _submit(mp, t)
    _commit(mp, *txs[:4])
    assert len(mp) == 2
    assert mp.next_batch().keys() == ((4, 4), (4, 5))


def test_drain_skips_windows_committed_from_another_block():
    # Rows 0-5 of the head slab commit from another leader's block; the
    # drain skips them a window at a time and resumes on the live rows.
    mp = Mempool(dedup_window=50, batch_size=3)
    mp.submit_batch(TxBatch.columns([4] * 10, range(10)))
    mp.submit_batch(TxBatch.columns([5] * 2, range(2)))
    _commit(mp, *((4, i) for i in range(6)))
    assert mp.next_batch().keys() == ((4, 6), (4, 7), (4, 8))
    assert mp.next_batch().keys() == ((4, 9), (5, 0), (5, 1))
    assert len(mp) == 0
