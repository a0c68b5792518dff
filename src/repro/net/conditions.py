"""Network-condition injectors.

The paper's Sec. VIII-d studies *unstable and degraded* conditions by
artificially triggering catch-up/piggyback executions.  These helpers
install delay hooks on a :class:`~repro.net.network.Network` to delay
specific nodes or time windows, which is how a leader "misses" the
previous view's certificate and must fall back.  :class:`DegradeSpec`
and :class:`IsolateSpec` describe the same conditions as data
(``ExperimentConfig.degrades`` / ``isolates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .network import DelayHook, Network


@dataclass(frozen=True)
class DegradeSpec:
    """WAN churn: :func:`degrade_window` on (optionally node-filtered)
    traffic."""

    start: float
    end: float
    extra_s: float
    nodes: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class IsolateSpec:
    """A time-windowed partition of one node (:func:`isolate_node`:
    links stay reliable, messages eventually arrive)."""

    node: int
    start: float
    end: float
    delay_s: float = 2.0


def degrade_window(
    network: Network,
    start: float,
    end: float,
    extra_s: float,
    nodes: Optional[Iterable[int]] = None,
) -> DelayHook:
    """Add ``extra_s`` to messages sent in ``[start, end)``.

    If ``nodes`` is given, only messages from or to those nodes are
    affected.  Returns the installed hook so callers can remove it.
    """
    node_set = frozenset(nodes) if nodes is not None else None

    def hook(now: float, src: int, dst: int, size: int) -> float:
        if not (start <= now < end):
            return 0.0
        if node_set is not None and src not in node_set and dst not in node_set:
            return 0.0
        return extra_s

    network.delay_hooks.append(hook)
    return hook


def isolate_node(
    network: Network,
    node: int,
    start: float,
    end: float,
    delay_s: float = 60.0,
) -> DelayHook:
    """Effectively partition ``node`` during ``[start, end)``.

    Links stay reliable (the paper assumes no loss), so isolation is a
    very large delay rather than a drop: messages eventually arrive.
    """

    def hook(now: float, src: int, dst: int, size: int) -> float:
        if (src == node or dst == node) and start <= now < end:
            return delay_s
        return 0.0

    network.delay_hooks.append(hook)
    return hook


def remove_hook(network: Network, hook: DelayHook) -> None:
    """Uninstall a previously installed hook (no-op if absent)."""
    try:
        network.delay_hooks.remove(hook)
    except ValueError:
        pass


__all__ = [
    "DegradeSpec",
    "IsolateSpec",
    "degrade_window",
    "isolate_node",
    "remove_hook",
]
