"""O(1)-memory streaming estimators.

Long-running observers — the 2PC coordinator's commit latencies
(:mod:`repro.shard.coordinator`) and the rebalancer's load figures
(:mod:`repro.shard.rebalance`) — summarize unbounded streams with:

* :class:`P2Quantile` — the P² algorithm of Jain & Chlamtác (CACM
  1985): a single-quantile estimator that maintains five markers and
  adjusts them with piecewise-parabolic interpolation.  Deterministic
  (no randomness at all) and exact for the first five observations.
* :class:`StreamingMoments` — running count, sum, min and max.
"""

from __future__ import annotations

import numpy as np

_P2_MARKERS = 5


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    ``add`` is O(1) time and the whole estimator is O(1) memory (five
    marker heights + five positions), independent of how many
    observations it absorbs.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = p
        self._q: list[float] = []  # marker heights
        self._n: list[float] = []  # marker positions (1-based)
        self._np: list[float] = []  # desired positions
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def add(self, x: float) -> None:
        x = float(x)
        self._count += 1
        q = self._q
        if self._count <= _P2_MARKERS:
            q.append(x)
            if self._count == _P2_MARKERS:
                q.sort()
                p = self.p
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [
                    1.0,
                    1.0 + 2.0 * p,
                    1.0 + 4.0 * p,
                    3.0 + 2.0 * p,
                    5.0,
                ]
            return
        n = self._n
        # Locate the cell containing x, clamping the extreme markers.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, _P2_MARKERS):
            n[i] += 1.0
        p = self.p
        npos = self._np
        npos[1] += p / 2.0
        npos[2] += p
        npos[3] += (1.0 + p) / 2.0
        npos[4] += 1.0
        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            d = npos[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, sign)
                if q[i - 1] < cand < q[i + 1]:
                    q[i] = cand
                else:
                    q[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d)
            * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation).

        Exact (numpy ``percentile`` on the buffered points) while fewer
        than five observations have arrived; the P² middle marker
        afterwards.
        """
        if self._count == 0:
            return 0.0
        if self._count < _P2_MARKERS:
            return float(np.percentile(np.array(self._q), self.p * 100.0))
        return self._q[2]


class StreamingMoments:
    """Running count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


__all__ = ["P2Quantile", "StreamingMoments"]
