"""Slab ingest: accept/reject identical to a per-key window, one FIFO
drain across every kind of slab, and the window of submitted keys
identical to a per-key window that ignores the filler."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smr import (
    DEFAULT_DEDUP_WINDOW,
    Client,
    Mempool,
    SubmitTxBatch,
    TxBatch,
    TxFactory,
)
from repro.shard import SHARD_WORKLOAD_PID

from ..conftest import make_cluster, slab_rows


def _batch_from_keys(keys, payload=0):
    return TxBatch.columns(
        np.array([c for c, _ in keys], dtype=np.int64),
        np.array([t for _, t in keys], dtype=np.int64),
        payload,
    )


def _one_row(key):
    """A KV client's submission: a one-row slab."""
    return TxBatch.columns([key[0]], [key[1]])


class _PerKeyReference:
    """The mempool's bookkeeping with a plain FIFO of single keys and a
    set of pending keys: the window every slab split must be
    indistinguishable from."""

    def __init__(self, window=DEFAULT_DEDUP_WINDOW):
        self.window = window
        self.seen = OrderedDict()
        self.pending = set()

    def _remember(self, k):
        if k in self.seen:
            return False
        if len(self.seen) >= self.window:
            self.seen.popitem(last=False)
        self.seen[k] = None
        return True

    def submit(self, k):
        if not self._remember(k):
            return False
        self.pending.add(k)
        return True

    def commit(self, keys):
        for k in keys:
            self._remember(k)
            self.pending.discard(k)

    def drained(self, keys):
        self.pending.difference_update(keys)

    def __len__(self):
        return len(self.pending)


class TestBatchScalarEquivalence:
    def test_accepts_match_scalar_with_duplicates_and_eviction(self):
        rng = np.random.default_rng(11)
        # Key stream with heavy duplication against a small window so
        # FIFO eviction (and post-eviction re-admission) is exercised.
        keys = [
            (int(c), int(t))
            for c, t in zip(
                rng.integers(0, 40, size=3000), rng.integers(0, 25, size=3000)
            )
        ]
        ref = _PerKeyReference(window=64)
        batched = Mempool(batch_size=10**9, dedup_window=64)
        accepts = [ref.submit(k) for k in keys]
        slab_accepts = []
        for lo in range(0, len(keys), 37):
            chunk = keys[lo : lo + 37]
            got = batched.submit_batch(_batch_from_keys(chunk))
            slab_accepts.append(got)
        assert sum(accepts) == sum(slab_accepts)
        # Identical dedup-window contents afterwards.
        universe = [(c, t) for c in range(40) for t in range(25)]
        assert [k for k in universe if k in ref.seen] == [
            k for k in universe if batched.seen_recently(k)
        ]
        assert len(ref) == len(batched)

    def test_across_250k_fifo_horizon(self):
        # More distinct keys than the default window: the oldest age
        # out and a retransmission of an aged-out key is re-admitted by
        # both.
        n = DEFAULT_DEDUP_WINDOW + 10_000
        keys = [(i % 97, i) for i in range(n)]
        keys += keys[:500]  # beyond-horizon retransmissions: re-admitted
        keys += keys[-600:-100]  # in-horizon duplicates: rejected
        ref = _PerKeyReference()
        batched = Mempool(batch_size=10**9)
        n_ref = sum(ref.submit(k) for k in keys)
        n_batched = 0
        for lo in range(0, len(keys), 1024):
            n_batched += batched.submit_batch(
                _batch_from_keys(keys[lo : lo + 1024])
            )
        assert n_ref == n_batched == n + 500
        assert [k for k in keys if k in ref.seen] == [
            k for k in keys if batched.seen_recently(k)
        ]

    def test_interleaved_scalar_and_batch_share_window(self):
        mp = Mempool(batch_size=10**9, dedup_window=100)
        assert mp.submit_batch(_one_row((1, 1))) == 1
        assert mp.submit_batch(_batch_from_keys([(1, 1), (2, 2)])) == 1
        assert mp.submit_batch(_one_row((2, 2))) == 0
        assert len(mp) == 2


class TestSlabDrain:
    def test_one_fifo_across_client_and_engine_slabs(self):
        """A KV client's submission drains in arrival order between two
        pump column slabs at a real replica — no kind of slab jumps
        the queue."""
        sim, net, cluster = make_cluster("oneshot", f=1)
        pids = [r.pid for r in cluster.replicas]
        client = Client(sim, net, pid=1000, replica_pids=pids, f=1)
        net.multicast(SHARD_WORKLOAD_PID, pids, SubmitTxBatch(
            _batch_from_keys([(1, 0), (2, 0)])
        ))
        sim.run()
        tx_id = client.submit(("set", "k", 1))
        sim.run()
        net.multicast(SHARD_WORKLOAD_PID, pids, SubmitTxBatch(
            _batch_from_keys([(3, 0)])
        ))
        sim.run()
        mp = cluster.replicas[0].mempool
        assert len(mp) == 4
        assert mp.next_batch().keys()[:4] == (
            (1, 0), (2, 0), (client.pid, tx_id), (3, 0),
        )
        assert len(mp) == 0

    def test_committed_while_slab_pending_is_skipped(self):
        mp = Mempool(batch_size=10)
        mp.submit_batch(_batch_from_keys([(1, 0), (2, 0), (3, 0)]))
        mp.mark_committed(_one_row((2, 0)))
        assert len(mp) == 2
        assert mp.next_batch().keys() == ((1, 0), (3, 0))

    def test_committed_keys_bulk_while_slab_pending(self):
        mp = Mempool(batch_size=10)
        mp.submit_batch(_batch_from_keys([(i, 0) for i in range(6)]))
        mp.mark_committed(_batch_from_keys([(0, 0), (5, 0), (77, 77)]))
        assert len(mp) == 4
        assert mp.next_batch().keys() == tuple((i, 0) for i in (1, 2, 3, 4))

    def test_minted_rows_carry_slab_metadata(self):
        mp = Mempool(batch_size=2)
        slab = TxBatch.columns(
            np.array([5, 6], dtype=np.int64),
            np.array([0, 3], dtype=np.int64),
            payload_bytes=256,
        )
        mp.submit_batch(slab)
        txs = mp.next_batch()
        assert slab_rows(txs) == [(5, 0, 256, None), (6, 3, 256, None)]

    def test_partial_slab_drain_keeps_cursor(self):
        mp = Mempool(batch_size=2)
        mp.submit_batch(_batch_from_keys([(i, 0) for i in range(5)]))
        assert len(mp.next_batch()) == 2
        assert len(mp) == 3
        assert len(mp.next_batch()) == 2
        assert mp.next_batch().keys() == ((4, 0),)

    def test_drained_slices_share_the_slab_and_filler_tops_up(self):
        mp = Mempool(source=TxFactory(10_000), batch_size=6)
        row = TxBatch.columns([9], [0], ops=[("set", "k", 1)])
        slab = _batch_from_keys([(i, 0) for i in range(3)])
        mp.submit_batch(row)
        mp.submit_batch(slab)
        block = mp.next_batch()
        assert block.keys() == (
            (9, 0), (0, 0), (1, 0), (2, 0), (10_000, 0), (10_000, 1),
        )
        rows = slab_rows(block)
        assert rows[0][3] == ("set", "k", 1) and rows[5] == (10_000, 1, 0, None)
        assert block.segments[0] is row.segments[0]  # no row was copied
        assert block.segments[1] is slab.segments[0]


# -- the window of submitted keys against a per-key window ----------------
_CIDS, _TIDS = range(6), range(24)
#: The filler's client id: like a replica's ``10_000 + pid``, no
#: submission carries it.
_FILLER = 10_000
_key = st.tuples(st.sampled_from(_CIDS), st.sampled_from(_TIDS))
_op = st.one_of(
    st.tuples(st.just("submit"), _key),
    st.tuples(st.just("submit_batch"), st.lists(_key, max_size=8)),
    st.tuples(st.just("commit_keys"), st.lists(_key, max_size=8)),
    st.tuples(
        st.just("commit_run"), st.tuples(st.sampled_from(_TIDS), st.integers(0, 9))
    ),
    st.tuples(st.just("propose_and_commit"), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.lists(_op, max_size=40))
def test_window_of_submitted_keys_equals_per_key_window(window, batch_size, ops):
    """Random interleavings of submissions, key commits, filler run
    commits and proposals against tiny windows: every accept/reject,
    every ``seen_recently`` answer and ``len()`` match a per-key window
    that remembers nothing of a filler commit.  No filler key is ever
    remembered, and a filler commit changes neither ``len()`` nor the
    window (so it evicts nothing)."""
    mp = Mempool(TxFactory(_FILLER), batch_size, dedup_window=window)
    ref = _PerKeyReference(window)
    universe = [(c, t) for c in (*_CIDS, _FILLER) for t in range(40)]

    def remembered():
        return [k for k in universe if mp.seen_recently(k)]

    for kind, arg in ops:
        if kind == "submit":
            assert mp.submit_batch(_one_row(arg)) == ref.submit(arg)
        elif kind == "submit_batch":
            expected = sum([ref.submit(k) for k in arg])
            assert mp.submit_batch(_batch_from_keys(arg)) == expected
        elif kind == "commit_keys":
            mp.mark_committed(_batch_from_keys(arg))
            ref.commit(arg)
        elif kind == "commit_run":
            start, n = arg
            before = (remembered(), len(mp))
            mp.mark_committed(TxBatch.run(_FILLER, start, n))
            assert (remembered(), len(mp)) == before
        else:
            block = mp.next_batch()
            ref.drained(block.keys())
            mp.mark_committed(block)
            ref.commit([k for k in block.keys() if k[0] != _FILLER])
        assert len(mp) == len(ref)
        assert remembered() == [k for k in universe if k in ref.seen]
        assert not any(c == _FILLER for c, _ in remembered())


# -- packed keys against the tuple-keyed reference -------------------------
#: Ids at the edges of the 32-bit contract, where a packing slip (a sign,
#: a shift, a mask) would alias two keys or split one.
_EDGE_IDS = st.sampled_from([0, 1, 2, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1])
_edge_key = st.tuples(_EDGE_IDS, _EDGE_IDS)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_edge_key, max_size=6), max_size=8),
    st.integers(1, 10),
    st.lists(st.booleans(), max_size=8),
)
def test_packed_keys_round_trip_and_window_matches_the_tuple_reference(
    slabs, window, commits
):
    """``packed()`` and ``keys()`` are one another's image, and a
    window of packed keys accepts and rejects exactly the rows the
    tuple-keyed reference does — committed slabs included."""
    mp = Mempool(batch_size=10**9, dedup_window=window)
    ref = _PerKeyReference(window)
    for keys, commit in zip(slabs, commits + [False] * len(slabs)):
        batch = _batch_from_keys(keys)
        assert batch.keys() == tuple(keys)
        assert list(batch.packed()) == [c << 32 | t for c, t in keys]
        if commit:
            mp.mark_committed(batch)
            ref.commit(keys)
        else:
            assert mp.submit_batch(batch) == sum([ref.submit(k) for k in keys])
        assert len(mp) == len(ref)
    universe = [(c, t) for c in (0, 1, 2, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)
                for t in (0, 1, 2, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)]
    assert [k for k in universe if mp.seen_recently(k)] == [
        k for k in universe if k in ref.seen
    ]
