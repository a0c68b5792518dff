"""Pending-transaction pools and synthetic workload sources.

The evaluation keeps the system saturated: every block carries exactly
400 transactions.  A :class:`~repro.smr.transaction.TxFactory` source
models that steady state by synthesizing a full batch on demand (as the
C++ harness's closed-loop clients do).  :class:`Mempool` additionally
holds submitted slabs (the load engine's arrivals, 2PC markers, a KV
client's one-row slabs) ahead of the synthetic filler.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Optional, Sequence

from .transaction import TxBatch, TxFactory, _Run

#: Transactions per block in the paper's evaluation.
BLOCK_TXS = 400

#: Default bound on a :class:`Mempool`'s duplicate-detection window:
#: ~600 full blocks of history, far beyond any client's realistic
#: retransmission horizon, in a bounded FIFO.
DEFAULT_DEDUP_WINDOW = 250_000


class Mempool:
    """Per-replica pool of submitted slabs, FIFO with dedup.

    ``next_batch`` drains the accepted slabs in arrival order and tops
    the batch up from the synthetic source (if any) so blocks stay full.

    **Dedup horizon.**  The window remembers the last ``dedup_window``
    distinct submitted packed keys (on submission and on commit), oldest
    out first, so it stays bounded over a long run.  A duplicate inside
    it is rejected; a key that aged out is re-admitted, which is safe:
    commit-time dedup is the execution log's job, and a second pending
    copy of a key is skipped at drain time.  A committed run segment is
    the filler, whose client id no submission carries, so it is not
    remembered (docs/invariants.md).

    **Entries.**  Each call enters its fresh keys as one FIFO entry per
    run of at most ``dedup_window`` of them (the caller's own key tuple
    when every key is fresh), evicted from its front.  A run that short
    is exact: eviction can only reach older entries.
    """

    def __init__(
        self,
        source: Optional[TxFactory] = None,
        batch_size: int = BLOCK_TXS,
        dedup_window: int = DEFAULT_DEDUP_WINDOW,
    ) -> None:
        if dedup_window <= 0:
            raise ValueError("dedup_window must be positive")
        self.source = source
        self.batch_size = batch_size
        self.dedup_window = dedup_window
        #: The window.  ``_order`` lists its entries oldest first from
        #: ``_head`` on: sequences of packed keys (also in ``_seen``;
        #: the head entry's first ``_skip`` keys are gone).  Advancing
        #: ``_head`` evicts in O(1); popping a dict's front goes
        #: quadratic in the tombstones of earlier evictions.
        self._seen: dict[int, None] = {}
        self._order: list[Sequence[int]] = []
        self._head = self._skip = 0
        #: Pending slabs: FIFO of accepted slabs, a row cursor into the
        #: head slab, and the packed keys still live in some slab (a row
        #: whose key left the set committed or was drained while it was
        #: pending, and is skipped at drain time).
        self._slabs: deque[TxBatch] = deque()
        self._slab_cursor = 0
        self._slab_keys: set[int] = set()

    def __len__(self) -> int:
        return len(self._slab_keys)

    # -- the dedup window ---------------------------------------------------
    def _evict(self, n: int) -> None:
        """Forget the ``n`` oldest keys; amortized O(1) per key."""
        order, head, seen = self._order, self._head, self._seen
        while n > 0:
            entry, skip = order[head], self._skip
            stop = min(len(entry), skip + n)
            for k in entry[skip:stop]:
                del seen[k]
            n -= stop - skip
            if stop < len(entry):
                self._skip = stop
                break
            self._skip = 0
            head += 1
        if head > 4096 and head * 2 >= len(order):
            del order[:head]
            head = 0
        self._head = head

    def seen_recently(self, key: tuple[int, int]) -> bool:
        """Whether ``(client_id, tx_id)`` is inside the current dedup
        horizon (a reader's view; the window holds packed keys)."""
        return key[0] << 32 | key[1] in self._seen

    def _remember_keys(self, keys: Sequence[int]) -> list[int]:
        """Enter each packed key not yet in the window, in order, evicting the
        oldest key whenever the window is full; returns the positions
        in ``keys`` (a tuple or range, which an entry may keep) of the
        keys entered."""
        seen, window = self._seen, self.dedup_window
        fresh: list[int] = []
        room = window - len(seen)
        for i, k in enumerate(keys):
            if k in seen:
                continue
            if room > 0:
                room -= 1
            else:
                self._evict(1)
            seen[k] = None
            fresh.append(i)
            if len(fresh) % window == 0:
                self._push(keys, fresh[-window:])
        if len(fresh) % window:
            self._push(keys, fresh[-(len(fresh) % window):])
        return fresh

    def _push(self, keys: Sequence[int], at: list[int]) -> None:
        """Append the keys at positions ``at`` as one FIFO entry."""
        self._order.append(
            keys if len(at) == len(keys) else tuple([keys[i] for i in at])
        )

    # -- submission ---------------------------------------------------------
    def submit_batch(self, batch: TxBatch) -> int:
        """Queue a slab of client transactions; returns the number
        accepted.

        Rows are decided one by one in slab order against the dedup
        horizon, so any split of the same rows into slabs accepts the
        same rows and leaves the same window; accepted rows stay in the
        slab (compacted if some were rejected) and :meth:`next_batch`
        hands them on as slices of it.
        """
        keys = batch.packed()
        accepted = self._remember_keys(keys)
        if accepted:
            if len(accepted) < len(keys):
                batch, keys = batch.select(accepted), [keys[i] for i in accepted]
            self._slabs.append(batch)
            self._slab_keys.update(keys)
        return len(accepted)

    # -- commit ---------------------------------------------------------------
    def mark_committed(self, txs: TxBatch) -> None:
        """Drop what a committed block carried: its submitted keys enter
        the dedup window in block order and leave the pending slabs.  A
        run segment is skipped: it is the filler, never submitted and
        never pending."""
        for seg in txs.segments:
            if type(seg) is _Run:
                continue
            keys = seg.packed
            self._remember_keys(keys)
            if self._slab_keys:
                self._slab_keys.difference_update(keys)

    # -- block assembly -------------------------------------------------------
    def next_batch(self) -> TxBatch:
        """Form the next block's transactions as one slab.

        Drain order: the pending slabs in arrival order (skipping rows
        that committed, or were drained, while pending), then the
        synthetic source tops the block up.
        """
        parts: list[TxBatch] = []
        need = self.batch_size
        while self._slabs and need > 0:
            part = self._drain_head(need)
            parts.append(part)
            need -= len(part)
        if self.source is not None and need > 0:
            parts.append(self.source.batch(need))
        return parts[0] if len(parts) == 1 else TxBatch.concat(parts)

    def _drain_head(self, need: int) -> TxBatch:
        """Up to ``need`` live rows of the head slab, as a slice of it."""
        slab = self._slabs[0]
        keys = slab.packed()
        start = self._slab_cursor
        end = min(len(keys), start + need)
        live_keys = self._slab_keys
        wanted = keys[start:end]
        if live_keys.issuperset(wanted):
            part = slab[start:end]
            live_keys.difference_update(wanted)
        elif live_keys.isdisjoint(wanted):
            part = TxBatch()  # every row committed from another block
        else:
            live = list(islice(
                (i for i in range(start, len(keys)) if keys[i] in live_keys),
                need,
            ))
            end = live[-1] + 1 if len(live) == need else len(keys)
            part = slab.select(live)
            live_keys.difference_update([keys[i] for i in live])
        if end == len(keys):
            self._slabs.popleft()
            end = 0
        self._slab_cursor = end
        return part


__all__ = ["Mempool", "BLOCK_TXS", "DEFAULT_DEDUP_WINDOW"]
