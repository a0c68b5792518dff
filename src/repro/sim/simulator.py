"""The discrete-event simulation core.

A :class:`Simulator` owns the clock and the event queue.  Model code
schedules callbacks with :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` and the loop drives them in deterministic
timestamp order.  There is no wall-clock coupling: a "second" of
simulated time costs only as many events as the model generates.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .event import Event, EventQueue
from .rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for simulator misuse (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for the :class:`RngRegistry`; every stochastic model
        component derives its stream from it.

    ``now`` is the current simulation time in seconds.  It is a plain
    attribute because every charge, send and timer reads it; only the
    run loop assigns it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.events_executed = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r} < now ({self.now!r})"
            )
        return self._queue.push(time, callback, args, priority=priority)

    def schedule_many(
        self,
        times: Sequence[float],
        callback: Callable[..., None],
        argss: Sequence[tuple],
        priority: int = 0,
    ) -> list[Event]:
        """Bulk-schedule ``callback(*argss[i])`` at absolute ``times[i]``.

        Equivalent to calling :meth:`schedule_at` once per pair — same
        deterministic sequence numbering, so equal-time events fire in
        list order — but the batch enters the heap in one pass without
        per-call wrapper overhead (the network multicast fast path).
        """
        if times and min(times) < self.now:
            raise SimulationError(
                f"cannot schedule at {min(times)!r} < now ({self.now!r})"
            )
        return self._queue.push_many(times, callback, argss, priority=priority)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask :meth:`run` to return once the current event finishes.

        Meant to be called from inside an event (a commit handler that
        sees the run reach its target): the loop exits after that very
        event, exactly where a ``stop_when`` predicate turning true
        during it would have ended the run — without a predicate call
        per event.  A request made while no loop is running is kept:
        the next :meth:`run` consumes it and returns before executing
        anything.  Every return from :meth:`run` clears the request, so
        calling :meth:`run` again resumes with the events still queued.
        """
        self._stop_requested = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Drive the loop.

        Stops when the queue drains, the clock would pass ``until``,
        ``max_events`` have executed, :meth:`stop` was called, or
        ``stop_when()`` returns true (checked after each event; prefer
        :meth:`stop` on long runs — a predicate is a call per event).
        """
        if self._running:
            raise SimulationError("simulator loop is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        pop_next = queue.pop_next
        try:
            # Hot loop: one bounded pop per event.
            while not self._stop_requested:
                if max_events is not None and executed >= max_events:
                    return
                ev = pop_next(until)
                if ev is None:
                    if until is not None and queue.live_count():
                        # Next live event lies beyond the bound.
                        self.now = until
                    return
                self.now = ev.time
                self.events_executed += 1
                ev.callback(*ev.args)
                executed += 1
                if stop_when is not None and stop_when():
                    return
        finally:
            self._running = False
            self._stop_requested = False

    def pending_events(self) -> int:
        """Number of events still queued that will actually fire.

        Cancelled-but-unpopped events are excluded: the queue keeps a
        live-event counter, so this is O(1) and does not drift as
        timers are re-armed (every re-arm cancels the old event).
        """
        return self._queue.live_count()


__all__ = ["Simulator", "SimulationError"]
