"""Columnar TxBatch slabs and the batched submit message."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import digest_of, encode
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
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.linspace(0.0, 1.0, n),
        payload,
    )


class TestTxBatch:
    def test_length_and_wire_size(self):
        b = _slab(10, payload=256)
        assert len(b) == 10
        assert b.wire_size() == 8 + 10 * (TX_OVERHEAD_BYTES + 256)

    def test_columns_are_read_only(self):
        b = _slab()
        with pytest.raises(ValueError):
            b.client_ids[0] = 99

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            TxBatch.columns(
                np.arange(3), np.arange(4), np.zeros(3, dtype=np.float64)
            )

    def test_keys_match_rows(self):
        b = _slab(5)
        assert list(b.keys()) == [(i, 0) for i in range(5)]

    def test_select_subset(self):
        b = _slab(6, payload=4)
        sub = b.select([1, 4])
        assert list(sub.keys()) == [(1, 0), (4, 0)]
        assert [t.payload_bytes for t in sub] == [4, 4]
        assert sub.submit_times.tolist() == [
            b.submit_times[1], b.submit_times[4]
        ]

    def test_mint_equals_factory_transactions(self):
        """Rows read out of a slab are plain Transactions."""
        b = _slab(4, payload=16)
        txs = [b[0], b[2]]
        assert all(isinstance(t, Transaction) for t in txs)
        assert [t.key() for t in txs] == [(0, 0), (2, 0)]
        assert all(t.payload_bytes == 16 for t in txs)
        assert txs[1].submit_time == pytest.approx(b.submit_times[2])
        assert b[-1] == list(b)[-1]
        with pytest.raises(IndexError):
            b[4]

    def test_roundtrip_from_transactions(self):
        factory = TxFactory(client_id=7, payload_bytes=8)
        txs = [factory.make(now=float(i)) for i in range(5)]
        b = TxBatch.from_transactions(txs)
        assert list(b) == txs
        assert b.tx_ids.tolist() == [0, 1, 2, 3, 4]

    def test_from_transactions_keeps_mixed_payloads_and_ops(self):
        txs = [
            Transaction(1, 0, payload_bytes=0, op=("set", "k", 1)),
            Transaction(1, 1, payload_bytes=256),
        ]
        b = TxBatch.from_transactions(txs)
        assert b[0] is txs[0] and b[1] is txs[1]
        assert b.wire_size() == 8 + 2 * TX_OVERHEAD_BYTES + 256
        assert list(b.op_rows) == [txs[0]]
        assert list(b.select([1, 0])) == [txs[1], txs[0]]

    def test_run_is_arithmetic(self):
        run = TxFactory(client_id=3, payload_bytes=256).batch(400, now=2.5)
        assert len(run) == 400 and len(run.segments) == 1
        assert run.wire_size() == 8 + 400 * (TX_OVERHEAD_BYTES + 256)
        assert run[399] == Transaction(3, 399, 256, None, 2.5)
        assert [t.tx_id for t in run[398:]] == [398, 399]
        assert run.client_ids.tolist() == [3] * 400
        with pytest.raises(ValueError):
            TxBatch.run(3, -1, 5)

    def test_slices_and_concat_cross_segments(self):
        rows = TxBatch.from_transactions([Transaction(9, i) for i in range(3)])
        mixed = TxBatch.concat([rows, _slab(4), TxBatch.run(5, 10, 3)])
        assert len(mixed) == 10 and len(mixed.segments) == 3
        everything = list(mixed)
        assert list(mixed[2:8]) == everything[2:8]
        assert list(mixed[::3]) == everything[::3]
        assert list(mixed[7:]) == [Transaction(5, 10 + i) for i in range(3)]
        assert len(mixed[5:5]) == 0 and mixed[5:5].segments == ()

    def test_keys_of_visits_only_registered_clients(self):
        rows = TxBatch.from_transactions([Transaction(9, 0), Transaction(8, 0)])
        mixed = TxBatch.concat([rows, _slab(4), TxBatch.run(5, 10, 2)])
        assert list(mixed.keys_of({})) == []
        assert list(mixed.keys_of({9: "a", 2: "b", 5: "c"})) == [
            (9, 0), (2, 0), (5, 10), (5, 11),
        ]


class TestFrozenSlab:
    """The slab is immutable all the way down: this is the runtime half
    of the ``deep-freeze`` lint allowance for ``_Columns``."""

    def test_no_field_or_column_of_any_segment_can_be_written(self):
        rows = TxBatch.from_transactions([Transaction(9, 0, op=("del", "k"))])
        mixed = TxBatch.concat([rows, _slab(4)[1:3], TxBatch.run(5, 10, 3)])
        for obj in (mixed, *mixed.segments, _slab(3).select([0, 2]).segments[0]):
            for field in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, field.name, None)
                value = getattr(obj, field.name)
                if isinstance(value, np.ndarray):
                    with pytest.raises(ValueError):
                        value[0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.extra = 1
        for column in (mixed.client_ids, mixed.tx_ids, mixed.submit_times):
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(TypeError):
            mixed.keys()[0] = (1, 1)

    def test_caller_arrays_are_copied(self):
        cids = np.arange(3, dtype=np.int64)
        b = TxBatch.columns(cids, cids, np.zeros(3))
        cids[0] = 77
        assert b.client_ids[0] == 0 and cids.flags.writeable


# -- canonical bytes -----------------------------------------------------
def _reference(slab):
    return encode(tuple(t.encoding() for t in slab))


@pytest.mark.parametrize("payload", [0, 256])
@pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
def test_encoding_across_digit_width_boundaries(power, payload):
    start, n = 10**power - 3, 6  # ...9 -> 10..., 99 999 -> 100 000
    run = TxBatch.run(10_001, start, n, payload)
    ids = np.arange(start, start + n)
    cols = TxBatch.columns(ids, ids[::-1], np.zeros(n), payload)
    for slab in (run, cols, run[2:5], cols[2:5]):
        assert slab.encoding() == _reference(slab)


def test_encoding_of_empty_and_full_blocks():
    assert TxBatch().encoding() == encode(())
    for payload in (0, 256):
        full = TxFactory(10_000, payload).batch(400)
        assert full.encoding() == _reference(full)
    assert TxBatch.run(10**36, 0, 2).encoding() == _reference(
        TxBatch.run(10**36, 0, 2)
    )  # a digit count of 37 is the byte "%"


_ids = st.one_of(
    st.integers(-(2**62), 2**62),
    st.integers(0, 200_000),
    st.sampled_from([0, 9, 10, 99_999, 100_000, 10**18, 2**63 - 1]),
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
        [c for c, _ in a[0]], [t for _, t in a[0]], [0.0] * len(a[0]), a[1]
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
