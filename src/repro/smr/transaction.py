"""Client transactions and the columnar slabs that carry them.

Per the paper's evaluation: a transaction carries 2x4 B of metadata
(client id and transaction id) plus the amortized 32 B previous-block
hash, i.e. 40 B of overhead on top of its payload.  Experiments use
payloads of 0 B (protocol overhead) and 256 B (trend with block size).

Between source, mempool, block, execution and client replies the only
transaction container is the :class:`TxBatch` slab: a few segments
describing many rows, so a 400-transaction block costs its handlers a
handful of operations.  A segment is an arithmetic run or a tuple of
packed keys; an ``op`` lives only in a key segment's ``ops`` column.  No
slab holds a :class:`Transaction`: one is built when a reader indexes
or iterates a slab, and not retained.  Inside the program a
transaction's identity is one int, its *packed key* ``client_id << 32 |
tx_id``: both ids are unsigned 32-bit, like the paper's 4-byte fields.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, groupby
from operator import attrgetter
from typing import (
    Any, Collection, Iterable, Iterator, Optional, Sequence, Union,
)

import numpy as np

from ..crypto import encode, encode_int_range, encode_int_rows, sequence_header

#: Fixed per-transaction overhead in bytes (paper Sec. VIII).
TX_OVERHEAD_BYTES = 40

#: Client and transaction ids are unsigned 32-bit: ``[0, ID_LIMIT)``.
ID_LIMIT = 1 << 32


@dataclass(frozen=True, slots=True)
class Transaction:
    """An opaque client command with size accounting; ``op`` (the KV
    example's operation) is never inspected by consensus."""

    client_id: int
    tx_id: int
    payload_bytes: int = 0
    op: Any = None

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

#: The low 32 bits of a packed key: its ``tx_id``.
_TX_MASK = ID_LIMIT - 1


@dataclass(frozen=True, eq=False)
class _Run:
    """One client, consecutive ids: pure arithmetic."""

    __slots__ = ("client_id", "start", "n", "payload_bytes")
    client_id: int
    start: int
    n: int
    payload_bytes: int

    ops = None

    def __len__(self) -> int:
        return self.n

    @property
    def span(self) -> tuple[int, int]:
        return (self.client_id, self.client_id)

    @property
    def packed(self) -> range:
        first = self.client_id << 32 | self.start
        return range(first, first + self.n)

    def row(self, i: int) -> Transaction:
        return Transaction(self.client_id, self.start + i, self.payload_bytes)

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
class _Keys:
    """Rows as a tuple of packed keys sharing one payload size.

    ``ops`` is the op column: a tuple aligned with the rows (``None``
    where a row has no op), or ``None`` when no row has one.  Ops are
    opaque to consensus — never hashed, never sized — so they are kept
    as the objects their client made.  The id columns exist only while
    :meth:`encoding` writes them.
    """

    __slots__ = ("packed", "payload_bytes", "ops")
    packed: tuple[int, ...]
    payload_bytes: int
    ops: Optional[tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.packed)

    @property
    def span(self) -> tuple[int, int]:
        return (min(self.packed) >> 32, max(self.packed) >> 32)

    def row(self, i: int) -> Transaction:
        k = self.packed[i]
        return Transaction(
            k >> 32, k & _TX_MASK, self.payload_bytes, self.ops and self.ops[i]
        )

    def slice(self, lo: int, hi: int) -> "_Keys":
        ops = self.ops and _op_column(self.ops[lo:hi])
        return _Keys(self.packed[lo:hi], self.payload_bytes, ops)

    def take(self, index: Sequence[int]) -> "_Keys":
        """The rows at ``index``, in that order."""
        ops = self.ops and _op_column([self.ops[i] for i in index])
        packed = self.packed
        return _Keys(tuple([packed[i] for i in index]), self.payload_bytes, ops)

    def wire_bytes(self) -> int:
        return len(self) * (TX_OVERHEAD_BYTES + self.payload_bytes)

    def encoding(self) -> bytes:
        wide = np.array(self.packed, dtype=np.uint64)
        ids = ((wide >> np.uint64(32)).astype(np.int64),
               (wide & np.uint64(_TX_MASK)).astype(np.int64))
        return encode_int_rows(_ROW_HEAD, ids, encode(self.payload_bytes))


def _id_column(name: str, ids: Any) -> np.ndarray:
    """``ids`` as a uint64 column; ValueError naming ``name`` unless
    every id is unsigned 32-bit."""
    try:
        column = np.array(ids, dtype=np.int64)
        if not len(column) or column.min() >= 0 and column.max() < ID_LIMIT:
            return column.astype(np.uint64)
    except OverflowError:
        pass
    raise ValueError(f"TxBatch {name} outside [0, 2**32)")


def _op_column(ops: Iterable[Any]) -> Optional[tuple[Any, ...]]:
    """``ops`` as an op column: a tuple, or ``None`` if every op is."""
    ops = tuple(ops)
    return ops if any(op is not None for op in ops) else None


Segment = Union[_Run, _Keys]


@dataclass(frozen=True, eq=False)
class TxBatch(SequenceABC):
    """An immutable slab of transactions: a tuple of non-empty segments.

    A segment is an arithmetic run (the filler) or a tuple of packed
    keys with an optional op column (arrivals, 2PC marker slabs, client
    submissions and slices of them).  A slab is frozen all the way down
    — key and op tuples, write-once caches — so it rides inside frozen
    messages and blocks, shared by every replica.
    """

    segments: tuple[Segment, ...] = ()

    # -- construction ------------------------------------------------------
    @classmethod
    def columns(
        cls,
        client_ids: Sequence[int],
        tx_ids: Sequence[int],
        payload_bytes: int = 0,
        ops: Optional[Sequence[Any]] = None,
    ) -> "TxBatch":
        """A slab over parallel columns of unsigned 32-bit ids; ``ops``,
        if given, holds one op (or ``None``) per row."""
        if len(client_ids) != len(tx_ids):
            raise ValueError("TxBatch columns must have equal length")
        keys = _id_column("client_id", client_ids) << np.uint64(32)
        return cls.from_keys(keys | _id_column("tx_id", tx_ids), payload_bytes, ops)

    @classmethod
    def from_keys(
        cls,
        keys: Iterable[int],
        payload_bytes: int = 0,
        ops: Optional[Sequence[Any]] = None,
    ) -> "TxBatch":
        """A slab over packed keys (ints or a uint64 array); ``ops``, if
        given, holds one op (or ``None``) per row."""
        packed = tuple(keys.tolist() if isinstance(keys, np.ndarray) else keys)
        if packed and not 0 <= min(packed) <= max(packed) < 1 << 64:
            raise ValueError("TxBatch packed key outside [0, 2**64)")
        if ops is not None and len(ops) != len(packed):
            raise ValueError("TxBatch columns must have equal length")
        return cls._of(_Keys(
            packed, int(payload_bytes), None if ops is None else _op_column(ops)
        ))

    @classmethod
    def run(
        cls, client_id: int, start: int, n: int, payload_bytes: int = 0
    ) -> "TxBatch":
        """``n`` rows of one client with ids ``start, start+1, ...``."""
        if n < 0:
            raise ValueError("a run needs a non-negative length")
        if not 0 <= client_id < ID_LIMIT:
            raise ValueError("TxBatch client_id outside [0, 2**32)")
        if not 0 <= start <= start + n <= ID_LIMIT:
            raise ValueError("TxBatch tx_id outside [0, 2**32)")
        return cls._of(_Run(client_id, start, n, payload_bytes))

    @classmethod
    def from_transactions(cls, txs: Iterable[Transaction]) -> "TxBatch":
        """The rows of ``txs`` (ops and payloads intact) as columns, one
        segment per stretch of equal payload size."""
        parts = []
        for payload, group in groupby(txs, attrgetter("payload_bytes")):
            cids, tids, ops = zip(*[(t.client_id, t.tx_id, t.op) for t in group])
            parts.append(cls.columns(cids, tids, payload, ops))
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
        if len(self.segments) == 1 and type(self.segments[0]) is _Keys:
            return self._of(self.segments[0].take(indices))
        return self.from_transactions(self[int(i)] for i in indices)

    # -- whole-slab reads, one step per segment -----------------------------
    def wire_size(self) -> int:
        """Bytes on the wire: per-tx overhead plus payloads."""
        return 8 + sum(seg.wire_bytes() for seg in self.segments)

    def encoding(self) -> bytes:
        """``encode(tuple(t.encoding() for t in self))``, byte for byte."""
        return sequence_header(self._len) + b"".join(
            [seg.encoding() for seg in self.segments]
        )

    def packed(self) -> Sequence[int]:
        """Every row's packed key (shared with a lone segment)."""
        if len(self.segments) == 1:
            return self.segments[0].packed
        return tuple(chain.from_iterable(seg.packed for seg in self.segments))

    def keys(self) -> tuple[tuple[int, int], ...]:
        """``(client_id, tx_id)`` per row, unpacked for readers."""
        return tuple([(k >> 32, k & _TX_MASK) for k in self.packed()])

    def distinct_clients(self) -> set[int]:
        """Every client id with a row here, one step per one-client
        segment."""
        out: set[int] = set()
        for seg in self.segments:
            lo, hi = seg.span
            out.update([lo] if lo == hi else [k >> 32 for k in seg.packed])
        return out

    def keys_by_client(self, clients: Collection[int]) -> dict[int, list[int]]:
        """The packed keys of the rows of ``clients``, by client in
        first-row order; a one-client segment adds its keys whole."""
        out: dict[int, list[int]] = {}
        for seg in self.segments:
            lo, hi = seg.span
            if lo == hi:
                if lo in clients:
                    out.setdefault(lo, []).extend(seg.packed)
            elif any(lo <= c <= hi for c in clients):
                for k in seg.packed:
                    if k >> 32 in clients:
                        out.setdefault(k >> 32, []).append(k)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TxBatch {len(self)}tx in {len(self.segments)} segments>"


class TxFactory:
    """Deterministic transaction generator for a synthetic client."""

    def __init__(self, client_id: int, payload_bytes: int = 0) -> None:
        self.client_id = client_id
        self.payload_bytes = payload_bytes
        self._next_id = 0

    def make(self, op: Any = None) -> Transaction:
        tx_id, self._next_id = self._next_id, self._next_id + 1
        return Transaction(self.client_id, tx_id, self.payload_bytes, op)

    def batch(self, n: int) -> TxBatch:
        """``n`` fresh transactions as one arithmetic slab; same ids as
        ``n`` :meth:`make` calls."""
        start = self._next_id
        self._next_id = start + n
        return TxBatch.run(self.client_id, start, n, self.payload_bytes)


__all__ = [
    "Transaction", "TxBatch", "TxFactory", "ID_LIMIT", "TX_OVERHEAD_BYTES",
]
