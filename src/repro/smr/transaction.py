"""Client transactions and the columnar slabs that carry them.

Per the paper's evaluation: a transaction carries 2x4 B of metadata
(client id and transaction id) plus the amortized 32 B previous-block
hash, i.e. 40 B of overhead on top of its payload.  Experiments use
payloads of 0 B (protocol overhead) and 256 B (trend with block size).

Between source, mempool, block, execution and client replies the only
transaction container is the :class:`TxBatch` slab: a few segments
describing many rows, so a 400-transaction block costs its handlers a
handful of operations.  A segment is an arithmetic run or a set of
columns; an ``op`` lives only in a column segment's ``ops`` column.  No
slab holds a :class:`Transaction`: one is built when a reader indexes
or iterates a slab, and not retained.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby, repeat
from operator import attrgetter
from typing import (
    Any, Collection, Iterable, Iterator, Optional, Sequence, Union,
)

import numpy as np

from ..crypto import encode, encode_int_range, encode_int_rows, sequence_header

#: Fixed per-transaction overhead in bytes (paper Sec. VIII).
TX_OVERHEAD_BYTES = 40


@dataclass(frozen=True, slots=True)
class Transaction:
    """An opaque client command with size accounting.

    ``op`` is an optional application-level operation (used by the
    replicated key-value store example); the consensus layer never
    inspects it.
    """

    client_id: int
    tx_id: int
    payload_bytes: int = 0
    op: Any = None
    submit_time: float = 0.0

    def wire_size(self) -> int:
        return TX_OVERHEAD_BYTES + self.payload_bytes

    def key(self) -> tuple[int, int]:
        """Globally unique identity of this transaction."""
        return (self.client_id, self.tx_id)

    def encoding(self) -> tuple:
        """Fields contributing to the enclosing block's hash."""
        return ("tx", self.client_id, self.tx_id, self.payload_bytes)


#: ``encode(t.encoding())`` up to the client id.
_ROW_HEAD = sequence_header(4) + encode("tx")


@dataclass(frozen=True, eq=False)
class _Run:
    """One client, consecutive ids, one submit time: pure arithmetic."""

    client_id: int
    start: int
    n: int
    payload_bytes: int
    submit_time: float

    ops = None

    def __len__(self) -> int:
        return self.n

    @property
    def span(self) -> tuple[int, int]:
        return (self.client_id, self.client_id)

    @property
    def keys(self) -> tuple[tuple[int, int], ...]:
        cid = self.client_id
        return tuple([(cid, t) for t in range(self.start, self.start + self.n)])

    def row(self, i: int) -> Transaction:
        return Transaction(
            self.client_id, self.start + i, self.payload_bytes, None,
            self.submit_time,
        )

    def slice(self, lo: int, hi: int) -> "_Run":
        return replace(self, start=self.start + lo, n=hi - lo)

    def wire_bytes(self) -> int:
        return self.n * (TX_OVERHEAD_BYTES + self.payload_bytes)

    def encoding(self) -> bytes:
        return encode_int_range(
            _ROW_HEAD + encode(self.client_id),
            range(self.start, self.start + self.n),
            encode(self.payload_bytes),
        )


@dataclass(frozen=True, eq=False)
class _Columns:
    """Rows as read-only numpy columns sharing one payload size.

    ``ops`` is the op column: a tuple aligned with the rows (``None``
    where a row has no op), or ``None`` when no row has one.  Ops are
    opaque to consensus — never hashed, never sized — so they are kept
    as the objects their client made.
    """

    client_ids: np.ndarray
    tx_ids: np.ndarray
    submit_times: np.ndarray
    payload_bytes: int
    ops: Optional[tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        for column in (self.client_ids, self.tx_ids, self.submit_times):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tx_ids)

    @cached_property
    def span(self) -> tuple[int, int]:
        return (int(self.client_ids.min()), int(self.client_ids.max()))

    @cached_property
    def keys(self) -> tuple[tuple[int, int], ...]:
        lo, hi = self.span
        cids = repeat(lo) if lo == hi else self.client_ids.tolist()
        return tuple(zip(cids, self.tx_ids.tolist()))

    def row(self, i: int) -> Transaction:
        return Transaction(
            int(self.client_ids[i]), int(self.tx_ids[i]), self.payload_bytes,
            self.ops and self.ops[i], float(self.submit_times[i]),
        )

    def slice(self, lo: int, hi: int) -> "_Columns":
        return self.take(np.s_[lo:hi])

    def take(self, index) -> "_Columns":
        """Rows at ``index`` (a slice is a view, an index array a copy)."""
        ops = self.ops and _op_column(
            self.ops[index] if type(index) is slice
            else [self.ops[i] for i in index.tolist()]
        )
        return _Columns(
            self.client_ids[index], self.tx_ids[index],
            self.submit_times[index], self.payload_bytes, ops,
        )

    def wire_bytes(self) -> int:
        return len(self) * (TX_OVERHEAD_BYTES + self.payload_bytes)

    def encoding(self) -> bytes:
        return encode_int_rows(
            _ROW_HEAD, (self.client_ids, self.tx_ids), encode(self.payload_bytes)
        )


def _op_column(ops: Iterable[Any]) -> Optional[tuple[Any, ...]]:
    """``ops`` as an op column: a tuple, or ``None`` if every op is."""
    ops = tuple(ops)
    return ops if any(op is not None for op in ops) else None


Segment = Union[_Run, _Columns]


def _column(name: str) -> property:
    def read(self: "TxBatch") -> np.ndarray:
        if len(self.segments) == 1 and type(self.segments[0]) is _Columns:
            return getattr(self.segments[0], name + "s")
        column = np.array([getattr(t, name) for t in self])
        column.setflags(write=False)
        return column

    return property(read, doc=f"Every row's ``{name}``, read-only.")


@dataclass(frozen=True, eq=False)
class TxBatch(SequenceABC):
    """An immutable slab of transactions: a tuple of non-empty segments.

    A segment is an arithmetic run (the saturated source's filler) or a
    set of numpy columns with an optional op column (the workload
    engine's arrivals, 2PC marker slabs, client submissions and slices
    of them).  A slab is frozen all the way down — read-only columns, an
    op tuple, no mutators, write-once caches — so it rides inside frozen
    messages and blocks and is shared by every replica.  It reads as a
    sequence of :class:`Transaction`, built on each access and never
    retained.
    """

    segments: tuple[Segment, ...] = ()

    # -- construction ------------------------------------------------------
    @classmethod
    def columns(
        cls,
        client_ids: np.ndarray,
        tx_ids: np.ndarray,
        submit_times: np.ndarray,
        payload_bytes: int = 0,
        ops: Optional[Sequence[Any]] = None,
    ) -> "TxBatch":
        """A slab over (copies of) parallel columns; ``ops``, if given,
        holds one op (or ``None``) per row."""
        if not len(client_ids) == len(tx_ids) == len(submit_times) == len(
            tx_ids if ops is None else ops
        ):
            raise ValueError("TxBatch columns must have equal length")
        return cls._of(_Columns(
            np.array(client_ids, dtype=np.int64),
            np.array(tx_ids, dtype=np.int64),
            np.array(submit_times, dtype=np.float64),
            int(payload_bytes),
            None if ops is None else _op_column(ops),
        ))

    @classmethod
    def run(
        cls,
        client_id: int,
        start: int,
        n: int,
        payload_bytes: int = 0,
        submit_time: float = 0.0,
    ) -> "TxBatch":
        """``n`` rows of one client with ids ``start, start+1, ...``."""
        if client_id < 0 or start < 0 or n < 0:
            raise ValueError("a run needs non-negative ids and length")
        return cls._of(_Run(client_id, start, n, payload_bytes, submit_time))

    @classmethod
    def from_transactions(cls, txs: Iterable[Transaction]) -> "TxBatch":
        """The rows of ``txs`` (ops and payloads intact) as columns, one
        segment per stretch of equal payload size."""
        parts = []
        for payload, group in groupby(txs, attrgetter("payload_bytes")):
            cids, tids, times, ops = zip(
                *[(t.client_id, t.tx_id, t.submit_time, t.op) for t in group]
            )
            parts.append(cls.columns(cids, tids, times, payload, ops))
        return cls.concat(parts)

    @classmethod
    def concat(cls, parts: Iterable["TxBatch"]) -> "TxBatch":
        """The rows of ``parts`` in order, sharing their segments."""
        return cls(tuple(seg for part in parts for seg in part.segments))

    @classmethod
    def _of(cls, segment: Segment) -> "TxBatch":
        return cls((segment,)) if len(segment) else cls()

    # -- the sequence of transactions ---------------------------------------
    @cached_property
    def _len(self) -> int:
        return sum(map(len, self.segments))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Transaction]:
        for seg in self.segments:
            yield from map(seg.row, range(len(seg)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(self._len)
            if step != 1:
                return self.select(range(lo, hi, step))
            out = []
            for seg in self.segments:
                a, b = max(lo, 0), min(hi, len(seg))
                if a < b:
                    out.append(seg if b - a == len(seg) else seg.slice(a, b))
                lo -= len(seg)
                hi -= len(seg)
            return TxBatch(tuple(out))
        if index < 0:
            index += self._len
        for seg in self.segments:
            if 0 <= index < len(seg):
                return seg.row(index)
            index -= len(seg)
        raise IndexError("TxBatch index out of range")

    def select(self, indices: Sequence[int]) -> "TxBatch":
        """A new slab holding only the ``indices`` rows, in that order."""
        if len(self.segments) == 1 and type(self.segments[0]) is _Columns:
            idx = np.asarray(indices, dtype=np.int64)
            return self._of(self.segments[0].take(idx))
        return self.from_transactions(self[int(i)] for i in indices)

    client_ids = _column("client_id")
    tx_ids = _column("tx_id")
    submit_times = _column("submit_time")

    # -- whole-slab reads, one step per segment -----------------------------
    def wire_size(self) -> int:
        """Bytes on the wire: per-tx overhead plus payloads."""
        return 8 + sum(seg.wire_bytes() for seg in self.segments)

    def encoding(self) -> bytes:
        """``encode(tuple(t.encoding() for t in self))``, byte for byte."""
        return sequence_header(self._len) + b"".join(
            [seg.encoding() for seg in self.segments]
        )

    def keys(self) -> tuple[tuple[int, int], ...]:
        """``(client_id, tx_id)`` per row (cached on stored segments)."""
        if len(self.segments) == 1:
            return self.segments[0].keys
        return tuple([k for seg in self.segments for k in seg.keys])

    def keys_of(self, client_ids: Collection[int]) -> Iterator[tuple[int, int]]:
        """Keys of the rows submitted by any of ``client_ids``, skipping
        every segment whose client-id span holds none of them."""
        for seg in self.segments:
            lo, hi = seg.span
            if any(lo <= c <= hi for c in client_ids):
                yield from (k for k in seg.keys if k[0] in client_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TxBatch {len(self)}tx in {len(self.segments)} segments>"


class TxFactory:
    """Deterministic transaction generator for a synthetic client."""

    def __init__(self, client_id: int, payload_bytes: int = 0) -> None:
        self.client_id = client_id
        self.payload_bytes = payload_bytes
        self._next_id = 0

    def make(self, now: float = 0.0, op: Any = None) -> Transaction:
        tx_id = self._next_id
        self._next_id = tx_id + 1
        return Transaction(
            client_id=self.client_id,
            tx_id=tx_id,
            payload_bytes=self.payload_bytes,
            op=op,
            submit_time=now,
        )

    def batch(self, n: int, now: float = 0.0) -> TxBatch:
        """``n`` fresh transactions as one arithmetic slab; same ids as
        ``n`` :meth:`make` calls."""
        start = self._next_id
        self._next_id = start + n
        return TxBatch.run(self.client_id, start, n, self.payload_bytes, now)


__all__ = ["Transaction", "TxBatch", "TxFactory", "TX_OVERHEAD_BYTES"]
