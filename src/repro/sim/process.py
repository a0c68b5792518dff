"""Process base class: an addressable actor inside the simulation.

Replicas and clients subclass :class:`Process`.  A process has an
integer id, receives messages via :meth:`on_message`, and can arm
cancellable timers.  All state transitions run synchronously inside
event callbacks — there is no concurrency inside a process, mirroring
a single-threaded event-driven server (the Salticidae model used by
the paper's C++ implementation).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .event import Event
from .simulator import Simulator


class Timer:
    """A cancellable, re-armable one-shot timer.

    The callback gets the arguments of the :meth:`start` that armed the
    timer.  An owner that keeps a timer of its own passes a plain
    function and arms it with itself as the argument: a bound method
    stored here would tie the timer and its owner into a reference
    cycle for as long as both live, while an argument is held only by
    the pending event, which firing, :meth:`cancel` and
    :meth:`Simulator.close` all let go of.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float, *args) -> None:
        """(Re)arm the timer to call ``callback(*args)`` ``delay``
        seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, *args)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, *args) -> None:
        self._event = None
        self._callback(*args)


class Process:
    """An addressable simulation actor."""

    def __init__(self, sim: Simulator, pid: int, name: str = "") -> None:
        self.sim = sim
        self.pid = pid
        self.name = name or f"p{pid}"

    # -- messaging entry point (driven by the network) ------------------
    def on_message(self, sender: int, payload: Any) -> None:
        """Handle a delivered message.  Subclasses override."""
        raise NotImplementedError

    # -- timers ----------------------------------------------------------
    def make_timer(self, callback: Callable[..., None]) -> Timer:
        return Timer(self.sim, callback)

    def after(self, delay: float, callback: Callable[..., None], *args) -> Event:
        """Schedule a local callback; convenience over ``sim.schedule``."""
        return self.sim.schedule(delay, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


__all__ = ["Process", "Timer"]
