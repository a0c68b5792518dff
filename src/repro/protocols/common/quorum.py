"""Quorum accumulation helper.

Leaders collect votes / store certificates / new-view messages until a
threshold of *distinct signers* is reached.  :class:`QuorumTracker`
centralizes the dedup-and-count pattern so protocol code stays close to
the paper's "wait for f+1 ..." lines.
"""

from __future__ import annotations

import math
from typing import Any, Generic, Hashable, Optional, TypeVar

T = TypeVar("T")


class QuorumTracker(Generic[T]):
    """Collects items per key until ``threshold`` distinct signers."""

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self._items: dict[Hashable, dict[int, T]] = {}
        self._fired: set[Hashable] = set()

    def add(self, key: Hashable, signer: int, item: T) -> Optional[list[T]]:
        """Record ``item`` from ``signer`` under ``key``.

        Returns the full item list the first time the quorum for
        ``key`` is reached, else None.  Duplicate signers are ignored.
        """
        if key in self._fired:
            return None
        bucket = self._items.setdefault(key, {})
        if signer in bucket:
            return None
        bucket[signer] = item
        if len(bucket) >= self.threshold:
            self._fired.add(key)
            return list(bucket.values())
        return None

    def count(self, key: Hashable) -> int:
        return len(self._items.get(key, ()))

    def items(self, key: Hashable) -> list[T]:
        return list(self._items.get(key, {}).values())

    def fired(self, key: Hashable) -> bool:
        return key in self._fired

    def clear_below(self, min_key_view: int) -> None:
        """Drop state for keys of views below ``min_key_view``.

        Keys are conventionally a view or a ``(view, ...)`` tuple; other
        keys are kept.  This bounds memory over long runs.
        """
        stale = [k for k in self._items if _view_of(k) < min_key_view]
        for k in stale:
            del self._items[k]
            self._fired.discard(k)


def _view_of(key: Hashable) -> float:
    """The view a tracker key belongs to (``inf``: no view, never stale)."""
    if isinstance(key, tuple) and key:
        key = key[0]
    return key if isinstance(key, int) else math.inf


__all__ = ["QuorumTracker"]
