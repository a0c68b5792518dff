"""Pending-transaction pools and synthetic workload sources.

The evaluation keeps the system saturated: every block carries exactly
400 transactions.  :class:`SaturatedSource` models that steady state by
synthesizing a full batch on demand (as the C++ harness's closed-loop
clients do).  :class:`Mempool` additionally holds submitted slabs (the
load engine's arrivals, 2PC markers, a KV client's one-row slabs) ahead
of the synthetic filler.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Optional

from .transaction import TxBatch, TxFactory, _Run

#: Transactions per block in the paper's evaluation.
BLOCK_TXS = 400

#: Default bound on a :class:`Mempool`'s duplicate-detection window.
#: At ~100 bytes per key this caps the window near 25 MB per replica
#: while still remembering ~600 full blocks of history — far beyond
#: any client's realistic retransmission horizon.  Same bounded-FIFO
#: pattern as the :class:`~repro.crypto.keys.KeyRing` signature memo.
DEFAULT_DEDUP_WINDOW = 250_000


class SaturatedSource:
    """Infinite supply of synthetic transactions with fixed payloads."""

    def __init__(self, payload_bytes: int = 0, client_id: int = 10_000) -> None:
        self.payload_bytes = payload_bytes
        self._factory = TxFactory(client_id, payload_bytes)

    def batch(self, n: int, now: float = 0.0) -> TxBatch:
        """The next ``n`` transactions as one arithmetic slab."""
        return self._factory.batch(n, now)


class Mempool:
    """Per-replica pool of submitted slabs, FIFO with dedup.

    ``next_batch`` drains the accepted slabs in arrival order and tops
    the batch up from the synthetic source (if any) so blocks stay full.

    **Dedup-horizon semantics.**  Duplicate detection remembers the
    last ``dedup_window`` distinct transaction keys (submissions and
    commits), evicting the oldest key first — an add-only set would
    grow without bound over a long run and eventually dominate replica
    memory.  A duplicate arriving *within* the window is rejected
    exactly as before; a retransmission arriving after its key has
    aged out of the window is re-admitted, which is safe: commit-time
    dedup is the execution layer's job (the KV app's per-client
    ``tx_id`` ordering), the mempool window only suppresses redundant
    *queueing* work.  Re-admitting a key whose transaction is *still
    pending* is harmless too: its second copy joins a later slab, the
    first copy to reach the drain cursor takes the key and every later
    copy is skipped, so no batch ever carries the transaction twice.

    **Interval entries.**  A committed run of consecutive ids of one
    client (a saturated source's filler) enters the window as *one*
    entry ``[client_id, lo, hi)`` that counts as ``hi - lo`` keys and
    is evicted one key at a time from its front, so the window holds
    exactly the keys a per-key FIFO would — provided no key of the run
    is in the window or pending already.  A run is therefore expanded
    to its keys unless it starts past every live interval of its client
    and its client id lies outside the span of client ids ever
    remembered as single keys (argument: docs/invariants.md).
    """

    def __init__(
        self,
        source: Optional[SaturatedSource] = None,
        batch_size: int = BLOCK_TXS,
        dedup_window: int = DEFAULT_DEDUP_WINDOW,
    ) -> None:
        if dedup_window <= 0:
            raise ValueError("dedup_window must be positive")
        self.source = source
        self.batch_size = batch_size
        self.dedup_window = dedup_window
        #: The window.  ``_order`` lists its entries oldest first from
        #: ``_head`` on: key tuples (also in ``_seen`` for O(1) lookup)
        #: and ``[client_id, lo, hi]`` intervals (also in ``_runs`` by
        #: client id, oldest first).  Evicting by advancing ``_head``
        #: is O(1); popping a dict's front rescans the tombstones of
        #: earlier evictions and goes quadratic once the window fills.
        self._seen: dict[tuple[int, int], None] = {}
        self._runs: dict[int, list[list[int]]] = {}
        self._order: list = []
        self._head = 0
        self._run_keys = 0  # keys inside intervals
        self._single_lo: float = float("inf")  # span of single-key client ids
        self._single_hi: float = float("-inf")
        #: Pending slabs: FIFO of accepted :class:`TxBatch` slabs, a row
        #: cursor into the head slab, and the keys still live in some
        #: slab — a row whose key has left the set committed, or was
        #: drained from an earlier slab, while it was pending and is
        #: skipped at drain time.
        self._slabs: deque[TxBatch] = deque()
        self._slab_cursor = 0
        self._slab_keys: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self._slab_keys)

    # -- the dedup window ---------------------------------------------------
    def _evict(self, n: int) -> None:
        """Forget the ``n`` oldest keys; amortized O(1) per entry."""
        order, head = self._order, self._head
        while n > 0:
            entry = order[head]
            if type(entry) is tuple:
                del self._seen[entry]
                n -= 1
            else:
                gone = min(n, entry[2] - entry[1])
                entry[1] += gone
                self._run_keys -= gone
                n -= gone
                if entry[1] < entry[2]:
                    break
                live = self._runs[entry[0]]
                del live[0]  # one client's intervals leave oldest first
                if not live:
                    del self._runs[entry[0]]
            head += 1
        if head > 4096 and head * 2 >= len(order):
            del order[:head]
            head = 0
        self._head = head

    def _in_run(self, k: tuple[int, int]) -> bool:
        live = self._runs.get(k[0])
        return live is not None and any(lo <= k[1] < hi for _, lo, hi in live)

    def seen_recently(self, k: tuple[int, int]) -> bool:
        """Whether ``k`` is inside the current dedup horizon."""
        return k in self._seen or self._in_run(k)

    def _widen(self, span: tuple[int, int]) -> None:
        """Note client ids that are about to be remembered as single keys."""
        self._single_lo = min(self._single_lo, span[0])
        self._single_hi = max(self._single_hi, span[1])

    def _remember_keys(self, keys) -> list[int]:
        """Enter each key not yet in the window, in order, evicting the
        oldest key whenever the window is full; returns the positions
        in ``keys`` of the keys entered."""
        seen, runs, in_run = self._seen, self._runs, self._in_run
        order_add = self._order.append
        fresh: list[int] = []
        room = self.dedup_window - len(seen) - self._run_keys
        for i, k in enumerate(keys):
            if k in seen or (runs and in_run(k)):
                continue
            if room > 0:
                room -= 1
            else:
                self._evict(1)
            seen[k] = None
            order_add(k)
            fresh.append(i)
        return fresh

    def _remember_run(self, run: _Run) -> bool:
        """Enter a committed run as one interval if that is exact."""
        cid, lo = run.client_id, run.start
        live = self._runs.get(cid)
        if self._single_lo <= cid <= self._single_hi or (
            live and lo < live[-1][2]
        ):
            return False
        entry = [cid, lo, lo + run.n]
        self._runs.setdefault(cid, []).append(entry)
        self._order.append(entry)
        self._run_keys += run.n
        over = len(self._seen) + self._run_keys - self.dedup_window
        if over > 0:
            self._evict(over)
        return True

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
        for seg in batch.segments:
            self._widen(seg.span)
        keys = batch.keys()
        accepted = self._remember_keys(keys)
        if accepted:
            if len(accepted) < len(keys):
                batch, keys = batch.select(accepted), [keys[i] for i in accepted]
            self._slabs.append(batch)
            self._slab_keys.update(keys)
        return len(accepted)

    # -- commit ---------------------------------------------------------------
    def mark_committed(self, txs: TxBatch) -> None:
        """Drop what a committed block carried: its keys enter the dedup
        window in block order and leave the pending slabs."""
        for seg in txs.segments:
            if type(seg) is _Run and self._remember_run(seg):
                continue  # nothing pending can share a key with it
            keys = seg.keys
            self._widen(seg.span)
            self._remember_keys(keys)
            if self._slab_keys:
                self._slab_keys.difference_update(keys)

    # -- block assembly -------------------------------------------------------
    def next_batch(self, now: float = 0.0) -> TxBatch:
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
            parts.append(self.source.batch(need, now))
        return parts[0] if len(parts) == 1 else TxBatch.concat(parts)

    def _drain_head(self, need: int) -> TxBatch:
        """Up to ``need`` live rows of the head slab, as a slice of it."""
        slab = self._slabs[0]
        keys = slab.keys()
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


__all__ = ["Mempool", "SaturatedSource", "BLOCK_TXS", "DEFAULT_DEDUP_WINDOW"]
