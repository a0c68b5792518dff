"""Arrival-time generation for the aggregated open-loop load engine.

**Why aggregation is exact.**  N independent Poisson processes with
rates λ₁…λ_N superpose into one Poisson process with rate Σλᵢ whose
events carry independent marks: each event belongs to client *i* with
probability λᵢ/Σλᵢ (the superposition/thinning theorem).  With equal
per-client rates the marks are iid-uniform over the client population.
:class:`SuperposedArrivals` simulates exactly that — one exponential
stream for the pooled process plus one uniform-integer stream for the
marks — so its law matches N independent per-client Poisson
processes merged into one stream, while costing one RNG call per *slab*
instead of one simulator event per *arrival*.  That is what makes
million-client populations affordable: the state is one int64 counter
per virtual client (for per-client ``tx_id`` numbering) and the work
per arrival is a few vectorized numpy ops.

**Streams.**  Each region draws from ``workload.region<k>.arrivals``
(documented in docs/invariants.md).
"""

from __future__ import annotations

import numpy as np

from ..smr.transaction import TxBatch

#: Default rows per minted slab: one simulator event carries this many
#: arrivals.  Large enough to amortize event and numpy-call overhead,
#: small enough that slab granularity (a slab is dispatched at its last
#: arrival's time) stays well under a block interval at target rates.
DEFAULT_SLAB_ROWS = 512


def _number_occurrences(
    marks: np.ndarray, counters: np.ndarray
) -> np.ndarray:
    """Per-client occurrence numbers for a slab of client marks.

    Row *j* gets ``counters[marks[j]]`` plus the number of earlier rows
    in the slab with the same mark — i.e. exactly the ``tx_id`` the
    marked client's own :class:`~repro.smr.transaction.TxFactory` would
    assign — and ``counters`` is advanced by each client's occurrence
    count.  Fully vectorized (stable argsort + group-start subtraction).
    """
    n = len(marks)
    order = np.argsort(marks, kind="stable")
    sorted_marks = marks[order]
    idx = np.arange(n, dtype=np.int64)
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = sorted_marks[1:] != sorted_marks[:-1]
    group_start = np.maximum.accumulate(np.where(first, idx, 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = idx - group_start
    tx_ids = counters[marks] + rank
    uniq, counts = np.unique(marks, return_counts=True)
    counters[uniq] += counts
    return tx_ids


class SuperposedArrivals:
    """Pooled-Poisson arrival generator for one region.

    Equivalent in law to ``n_clients`` independent Poisson clients
    whose rates sum to ``rate_tps`` (see module docstring).  ``rng`` is
    an injected named stream (``workload.region<k>.arrivals``);
    ``client_base`` offsets the virtual client ids so regions (and the
    replicas' synthetic sources) never collide.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_clients: int,
        rate_tps: float,
        payload_bytes: int = 0,
        client_base: int = 0,
        start: float = 0.0,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        self.rng = rng
        self.n_clients = n_clients
        self.rate_tps = rate_tps
        self.payload_bytes = payload_bytes
        self.client_base = client_base
        #: Next tx_id per virtual client — the only per-client state
        #: (8 B each; 8 MB for a million clients).
        self._counters = np.zeros(n_clients, dtype=np.int64)
        self._t = float(start)
        self.minted = 0

    @property
    def clock(self) -> float:
        """Time of the last minted arrival."""
        return self._t

    def next_slab(self, rows: int = DEFAULT_SLAB_ROWS) -> TxBatch:
        """Mint the next ``rows`` arrivals as one columnar slab."""
        if rows <= 0:
            raise ValueError("rows must be positive")
        gaps = self.rng.exponential(1.0 / self.rate_tps, size=rows)
        times = self._t + np.cumsum(gaps)
        self._t = float(times[-1])
        marks = self.rng.integers(0, self.n_clients, size=rows)
        tx_ids = _number_occurrences(marks, self._counters)
        self.minted += rows
        return TxBatch.columns(
            self.client_base + marks, tx_ids, times, self.payload_bytes
        )


__all__ = [
    "DEFAULT_SLAB_ROWS",
    "SuperposedArrivals",
]
