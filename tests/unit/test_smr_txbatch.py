"""Columnar TxBatch slabs and the batched submit message."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import digest_of, encode, encode_int_range
from repro.smr import (
    GENESIS,
    ExecutionLog,
    SubmitTxBatch,
    Transaction,
    TxBatch,
    TxFactory,
    create_leaf,
)
from repro.smr.transaction import TX_OVERHEAD_BYTES


def _slab(n=8, payload=0):
    return TxBatch.columns(
        np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64), payload
    )


def _client_ids(batch):
    """Every row's client id, unpacked from its key."""
    return [k >> 32 for k in batch.packed()]


def _tx_ids(batch):
    """Every row's tx id, unpacked from its key."""
    return [k & 0xFFFF_FFFF for k in batch.packed()]


class TestTxBatch:
    def test_length_and_wire_size(self):
        b = _slab(10, payload=256)
        assert len(b) == 10
        assert b.wire_size() == 8 + 10 * (TX_OVERHEAD_BYTES + 256)

    def test_columns_are_read_only(self):
        b = _slab()
        with pytest.raises(TypeError):
            b.packed()[0] = 99
        with pytest.raises(TypeError):
            b.segments[0].packed[0] = 99

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            TxBatch.columns(np.arange(3), np.arange(4))

    def test_keys_match_rows(self):
        b = _slab(5)
        assert list(b.keys()) == [(i, 0) for i in range(5)]

    def test_select_subset(self):
        b = _slab(6, payload=4)
        sub = b.select([1, 4])
        assert list(sub.keys()) == [(1, 0), (4, 0)]
        assert [t.payload_bytes for t in sub] == [4, 4]
        assert sub.packed() == (b.packed()[1], b.packed()[4])

    def test_mint_equals_factory_transactions(self):
        """Rows read out of a slab are plain Transactions."""
        b = _slab(4, payload=16)
        txs = [b[0], b[2]]
        assert all(isinstance(t, Transaction) for t in txs)
        assert [t.key() for t in txs] == [(0, 0), (2, 0)]
        assert all(t.payload_bytes == 16 for t in txs)
        assert txs[1] == Transaction(2, 0, 16)
        assert b[-1] == list(b)[-1]
        with pytest.raises(IndexError):
            b[4]

    def test_roundtrip_from_transactions(self):
        factory = TxFactory(client_id=7, payload_bytes=8)
        txs = [factory.make() for _ in range(5)]
        b = TxBatch.from_transactions(txs)
        assert list(b) == txs
        assert _tx_ids(b) == [0, 1, 2, 3, 4]

    def test_from_transactions_keeps_mixed_payloads_and_ops(self):
        txs = [
            Transaction(1, 0, 0, ("set", "k", 1)),
            Transaction(2, 7, 0, None),
            Transaction(1, 1, 256, None),
            Transaction(3, 2, 256, ("del", "k")),
            Transaction(1, 2, 0, ("add", "n", -1)),
        ]
        b = TxBatch.from_transactions(txs)
        assert list(b) == txs
        # A new column segment wherever the payload changes.
        assert [len(seg) for seg in b.segments] == [2, 2, 1]
        assert b.segments[0].ops == (("set", "k", 1), None)
        assert b.encoding() == encode(tuple(t.encoding() for t in txs))
        assert b.wire_size() == 8 + sum(t.wire_size() for t in txs)
        assert b.wire_size() == 8 + 5 * TX_OVERHEAD_BYTES + 2 * 256
        assert TxBatch.from_transactions([]).segments == ()

    def test_segments_without_ops_carry_no_op_column(self):
        plain = TxBatch.from_transactions([Transaction(1, 0), Transaction(1, 1)])
        assert plain.segments[0].ops is None
        assert TxBatch.columns([1], [0], ops=[None]).segments[0].ops is None
        with pytest.raises(ValueError):
            TxBatch.columns([1, 2], [0, 0], ops=[None])

    def test_select_and_slices_keep_ops_aligned(self):
        txs = [
            Transaction(i % 3, i, 0, None if i % 2 else ("add", "n", i))
            for i in range(8)
        ]
        b = TxBatch.from_transactions(txs)
        assert list(b.select([5, 0, 4])) == [txs[5], txs[0], txs[4]]
        assert list(b[3:7]) == txs[3:7]
        assert list(b[3:7][1:3]) == txs[4:6]
        assert b.select([1, 3]).segments[0].ops is None  # no op left
        mixed = TxBatch.concat([b, TxBatch.run(5, 0, 2), b[6:]])
        rows = list(mixed)
        assert list(mixed.select([9, 0, 10, 7])) == [
            rows[9], rows[0], rows[10], rows[7],
        ]
        assert [t.op for t in mixed[6:11]] == [t.op for t in rows[6:11]]

    def test_run_is_arithmetic(self):
        run = TxFactory(client_id=3, payload_bytes=256).batch(400)
        assert len(run) == 400 and len(run.segments) == 1
        assert run.wire_size() == 8 + 400 * (TX_OVERHEAD_BYTES + 256)
        assert run[399] == Transaction(3, 399, 256, None)
        assert [t.tx_id for t in run[398:]] == [398, 399]
        assert _client_ids(run) == [3] * 400
        with pytest.raises(ValueError):
            TxBatch.run(3, -1, 5)

    def test_slices_and_concat_cross_segments(self):
        cols = TxBatch.from_transactions([Transaction(9, i) for i in range(3)])
        mixed = TxBatch.concat([cols, _slab(4), TxBatch.run(5, 10, 3)])
        assert len(mixed) == 10 and len(mixed.segments) == 3
        everything = list(mixed)
        assert list(mixed[2:8]) == everything[2:8]
        assert list(mixed[::3]) == everything[::3]
        assert list(mixed[7:]) == [Transaction(5, 10 + i) for i in range(3)]
        assert len(mixed[5:5]) == 0 and mixed[5:5].segments == ()

    def test_keys_by_client_visits_only_registered_clients(self):
        cols = TxBatch.from_transactions([Transaction(9, 0), Transaction(8, 0)])
        mixed = TxBatch.concat([cols, _slab(4), TxBatch.run(5, 10, 2)])
        assert mixed.keys_by_client({}) == {}
        routes = mixed.keys_by_client({5: "c", 2: "b", 9: "a"})
        # Clients in first-row order, each with its rows' packed keys.
        assert list(routes.items()) == [
            (9, [9 << 32]), (2, [2 << 32]), (5, [5 << 32 | 10, 5 << 32 | 11]),
        ]
        assert mixed.distinct_clients() == {9, 8, 0, 1, 2, 3, 5}


class TestIdContract:
    """Client and transaction ids are unsigned 32-bit; each constructor
    names the field an out-of-range id came in."""

    @pytest.mark.parametrize(
        "cids,tids,field",
        [
            ([2**32], [0], "client_id"),
            ([-1], [0], "client_id"),
            (np.array([2**63], dtype=np.uint64), [0], "client_id"),
            ([0], [-1], "tx_id"),
            ([0], [2**32], "tx_id"),
            ([0], [2**64], "tx_id"),
        ],
    )
    def test_columns_reject_ids_outside_32_bits(self, cids, tids, field):
        with pytest.raises(ValueError, match=field):
            TxBatch.columns(cids, tids)

    @pytest.mark.parametrize(
        "args,field",
        [((2**32, 0, 1), "client_id"), ((-1, 0, 1), "client_id"),
         ((0, 2**32 - 1, 2), "tx_id"), ((0, -1, 1), "tx_id")],
    )
    def test_runs_reject_ids_outside_32_bits(self, args, field):
        with pytest.raises(ValueError, match=field):
            TxBatch.run(*args)

    @pytest.mark.parametrize("keys", [[-1], [1 << 64], [0, 2**70]])
    def test_from_keys_rejects_keys_outside_64_bits(self, keys):
        with pytest.raises(ValueError, match="packed key"):
            TxBatch.from_keys(keys)

    def test_from_transactions_names_the_field(self):
        with pytest.raises(ValueError, match="client_id"):
            TxBatch.from_transactions([Transaction(2**32, 0)])
        with pytest.raises(ValueError, match="tx_id"):
            TxBatch.from_transactions([Transaction(1, -5)])

    def test_the_largest_ids_pack_and_unpack(self):
        top = 2**32 - 1
        run = TxBatch.run(top, top - 2, 3)
        cols = TxBatch.columns([top, 0], [0, top])
        assert list(run.packed()) == [(top << 32) | t for t in range(top - 2, 2**32)]
        assert cols.packed() == (top << 32, top)
        assert TxBatch.concat([run, cols]).keys() == (
            (top, top - 2), (top, top - 1), (top, top), (top, 0), (0, top),
        )


class TestFrozenSlab:
    """The slab is immutable all the way down, so every receiver of a
    multicast block or ``SubmitTxBatch`` may share it."""

    def test_no_field_or_column_of_any_segment_can_be_written(self):
        ops = TxBatch.from_transactions(
            [Transaction(9, 0, op=("del", "k")), Transaction(9, 1)]
        )
        mixed = TxBatch.concat([ops, _slab(4)[1:3], TxBatch.run(5, 10, 3)])
        taken = (ops.select([1, 0]).segments[0], ops[:1].segments[0])
        for obj in (mixed, *mixed.segments, _slab(3).select([0, 2]).segments[0],
                    *taken):
            for field in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, field.name, None)
                value = getattr(obj, field.name)
                if isinstance(value, np.ndarray):
                    with pytest.raises(ValueError):
                        value[0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.extra = 1
        # The op column is a tuple, in every segment cut from the slab.
        for seg in (ops.segments[0], *taken):
            assert type(seg.ops) is tuple
            with pytest.raises(TypeError):
                seg.ops[0] = ("set", "k", 1)
        # A segment's keys are a tuple (a run's a range), and no segment
        # has a __dict__ to grow a cache in.
        for seg in mixed.segments:
            assert not hasattr(seg, "__dict__")
            assert type(seg.packed) in (tuple, range)
        with pytest.raises(TypeError):
            mixed.packed()[0] = 1
        with pytest.raises(TypeError):
            mixed.keys()[0] = (1, 1)

    def test_caller_arrays_are_copied(self):
        cids = np.arange(3, dtype=np.int64)
        b = TxBatch.columns(cids, cids)
        cids[0] = 77
        assert _client_ids(b)[0] == 0 and cids.flags.writeable


# -- canonical bytes -----------------------------------------------------
def _reference(slab):
    return encode(tuple(t.encoding() for t in slab))


@pytest.mark.parametrize("payload", [0, 256])
@pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
def test_encoding_across_digit_width_boundaries(power, payload):
    start, n = 10**power - 3, 6  # ...9 -> 10..., 99 999 -> 100 000
    run = TxBatch.run(10_001, start, n, payload)
    ids = np.arange(start, start + n)
    cols = TxBatch.columns(ids, ids[::-1], payload)
    for slab in (run, cols, run[2:5], cols[2:5]):
        assert slab.encoding() == _reference(slab)


def test_encoding_of_empty_and_full_blocks():
    assert TxBatch().encoding() == encode(())
    for payload in (0, 256):
        full = TxFactory(10_000, payload).batch(400)
        assert full.encoding() == _reference(full)
    # A digit count of 37 is the byte "%": constant parts are escaped.
    head = encode(10**36)
    assert encode_int_range(head, range(8, 12), head) == b"".join(
        head + encode(i) + head for i in range(8, 12)
    )


_ids = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(0, 200_000),
    st.sampled_from([0, 9, 10, 99_999, 100_000, 2**31, 2**32 - 1]),
)
_segments = st.one_of(
    st.lists(
        st.builds(
            Transaction, _ids, _ids, st.sampled_from([0, 256, 7]),
            st.sampled_from([None, ("set", "k", 1)]),
        ),
        max_size=4,
    ).map(TxBatch.from_transactions),
    st.tuples(
        st.lists(st.tuples(_ids, _ids), max_size=6),
        st.sampled_from([0, 256]),
    ).map(lambda a: TxBatch.columns(
        [c for c, _ in a[0]], [t for _, t in a[0]], a[1]
    )),
    st.builds(
        TxBatch.run, st.integers(0, 10**6), st.integers(0, 10**6),
        st.integers(0, 30), st.sampled_from([0, 256]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_segments, max_size=4), st.integers(-1, 50), st.integers(-1, 9))
def test_slab_encoding_equals_per_transaction_encoding(parts, view, proposer):
    """Pending rows + slab slices + filler, random ids: same bytes, and
    the block digest is the one ``digest_of`` gives the tuple form."""
    slab = TxBatch.concat(parts)
    assert slab.encoding() == _reference(slab)
    assert slab.wire_size() == 8 + sum(t.wire_size() for t in slab)
    block = create_leaf(GENESIS.hash, view, slab, proposer)
    assert block.hash == digest_of(
        "block", GENESIS.hash, view, proposer,
        tuple(t.encoding() for t in slab),
    )


# -- ops survive the slab path ---------------------------------------------
def test_op_survives_slab_block_execute_and_applies_once():
    """Transaction -> slab -> block -> execute keeps the op; a pipelined
    leader ordering the same transaction twice applies it once."""
    tx = Transaction(client_id=4, tx_id=0, op=("add", "n", 5))
    filler = TxFactory(10_000)
    first = TxBatch.concat(
        [TxBatch.from_transactions([tx]), filler.batch(3)]
    )
    second = TxBatch.concat(
        [filler.batch(2), TxBatch.from_transactions([tx]).select([0])]
    )
    b1 = create_leaf(GENESIS.hash, 0, first, proposer=0)
    b2 = create_leaf(b1.hash, 1, second, proposer=1)
    assert b1.txs[0].op == ("add", "n", 5) and b2.txs[2].op == ("add", "n", 5)
    log = ExecutionLog()
    log.execute(b1, 1.0)
    log.execute(b2, 2.0)
    assert log.state.get("n") == 5 and log.state.ops_applied == 1
    assert log.txs_executed == 7


class TestSubmitTxBatch:
    def test_wire_size_wraps_batch(self):
        b = _slab(8, payload=16)
        assert SubmitTxBatch(b).wire_size() == 8 + b.wire_size()
