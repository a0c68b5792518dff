"""Event records and the deterministic event queue.

The simulation kernel is a classic discrete-event loop.  Events are
ordered by ``(time, priority, seq)``: ``seq`` is a monotonically
increasing insertion counter, so two events scheduled for the same
instant always fire in the order they were created.  This makes every
run bit-reproducible for a fixed seed, which the safety property tests
rely on.

Fast-path design: the heap stores plain ``(time, priority, seq, event)``
tuples, so every sift compares machine tuples of floats/ints instead of
invoking rich dataclass comparison methods; the :class:`Event` record
itself is a ``__slots__`` class carried as untyped ballast in the last
tuple slot.  The queue also tracks a *live* event count so cancelled
but not-yet-popped events can be excluded in O(1) (see
:meth:`EventQueue.live_count`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional, Sequence


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Secondary ordering key; lower fires first at equal times.
    seq:
        Insertion counter used as the final deterministic tie-break.
    callback / args:
        What to run.
    cancelled:
        Soft-delete flag — cancelled events stay in the heap but are
        skipped by the loop (cheaper than heap surgery).  A cancelled
        event never fires, so it lets go of its callback and args: a
        timer re-armed every view does not keep each old target alive
        until the heap drops the stale entry.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "cancelled",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning queue while enqueued (None once popped/cleared), so a
        #: cancellation can maintain the queue's live-event count.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            self.args = ()
            queue = self._queue
            if queue is not None:
                queue._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "live"
        return f"<Event t={self.time!r} prio={self.priority} seq={self.seq} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking."""

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        #: Heap of (time, priority, seq, Event) — tuple comparison never
        #: reaches the Event because seq is unique.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Events still heaped, *including* cancelled ones."""
        return len(self._heap)

    def live_count(self) -> int:
        """Events that will still fire (cancelled ones excluded)."""
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, priority, seq, callback, args)
        ev._queue = self
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def push_many(
        self,
        times: Sequence[float],
        callback: Callable[..., None],
        argss: Sequence[tuple],
        priority: int = 0,
    ) -> list[Event]:
        """Bulk insert: one event per ``(time, args)`` pair, all calling
        ``callback``.

        Sequence numbers are allocated in iteration order, so events at
        equal times fire in the order their pairs appear — exactly as
        if :meth:`push` had been called in a loop, minus the per-call
        overhead.  When the batch is large relative to the heap, a
        single extend-and-heapify replaces ``k`` O(log n) sifts.
        """
        heap = self._heap
        seq = self._next_seq
        events: list[Event] = []
        append_event = events.append
        # Strategy picked up front: append-then-heapify is O(n + k) and
        # wins when the batch is large relative to the heap (the usual
        # multicast case); k sifts win when the heap is already deep.
        k = len(argss)
        if k > 8 and k * 4 > len(heap):
            heap_append = heap.append
            for time, args in zip(times, argss):
                ev = Event(time, priority, seq, callback, args)
                ev._queue = self
                append_event(ev)
                heap_append((time, priority, seq, ev))
                seq += 1
            heapify(heap)
        else:
            for time, args in zip(times, argss):
                ev = Event(time, priority, seq, callback, args)
                ev._queue = self
                append_event(ev)
                heappush(heap, (time, priority, seq, ev))
                seq += 1
        self._next_seq = seq
        self._live += len(events)
        return events

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next live event, but only if it fires at or before
        ``until`` (``None`` = no bound).

        The simulator's hot loop: one heap traversal per event, cancelled
        heads discarded on the way.  Returns ``None`` when drained *or*
        when the next live event lies beyond the bound — disambiguate
        with :meth:`live_count`.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            ev = head[3]
            if ev.cancelled:
                heappop(heap)
                ev._queue = None
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            ev._queue = None
            self._live -= 1
            return ev
        return None

    def clear(self) -> None:
        """Drop every heaped event; each is cancelled and lets go of its
        callback and args (see :meth:`Event.cancel`)."""
        for entry in self._heap:
            ev = entry[3]
            ev._queue = None
            ev.cancel()
        self._heap.clear()
        self._live = 0


__all__ = ["Event", "EventQueue"]
