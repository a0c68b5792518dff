"""Arrival-time generation for the aggregated open-loop load engine.

**Why aggregation is exact.**  N independent Poisson processes with
rates λ₁…λ_N superpose into one Poisson process with rate Σλᵢ whose
events carry independent marks: each event belongs to client *i* with
probability λᵢ/Σλᵢ (the superposition/thinning theorem).  With equal
per-client rates the marks are iid-uniform over the client population.
:class:`SuperposedArrivals` simulates exactly that — one exponential
stream for the pooled process plus one uniform-integer stream for the
marks — so its law matches N independent
:class:`~repro.smr.client.PoissonClient` processes while costing one
RNG call per *slab* instead of one simulator event per *arrival*.
That is what makes million-client populations affordable: the state is
one int64 counter per virtual client (for per-client ``tx_id``
numbering) and the work per arrival is a few vectorized numpy ops.

**Streams.**  The aggregated mode draws from
``workload.region<k>.arrivals`` (a *new* stream purpose — documented
in docs/invariants.md; it does not and cannot reproduce the legacy
per-client draw sequence).  The compatibility mode
(:class:`PerClientArrivals`) instead draws from the *legacy* streams
``client<pid>.arrivals`` and relies on the prefix property of
``Generator.exponential``: a batched ``size=k`` request returns
bit-identical values to ``k`` scalar requests, so the arrival times it
mints are exactly those the legacy :class:`PoissonClient` processes
would produce — pinned by a golden fingerprint test.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sim.rng import RngRegistry
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


class PerClientArrivals:
    """Compatibility-mode generator: the legacy clients' exact arrivals.

    Draws each client's inter-arrival gaps from the *same* named stream
    the legacy :class:`~repro.smr.client.PoissonClient` uses
    (``client<pid>.arrivals``, purpose ``"client tx arrivals"``), in
    batches — bit-identical to the scalar draws by the numpy
    prefix property — so the merged arrival sequence is exactly what
    ``len(pids)`` independent client processes would submit.  Useful
    for pinning the aggregated engine's plumbing against the legacy
    mode on small populations; the superposed generator is the one that
    scales.
    """

    #: Gaps drawn per batched request while extending one client's
    #: timeline past the horizon.
    CHUNK = 64

    def __init__(
        self,
        registry: RngRegistry,
        pids: Sequence[int],
        rate_tps: float,
        payload_bytes: int = 0,
    ) -> None:
        if not pids:
            raise ValueError("need at least one client pid")
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        self.pids = list(pids)
        self.rate_tps = rate_tps
        self.payload_bytes = payload_bytes
        self._rngs = [
            registry.stream(f"client{pid}.arrivals", purpose="client tx arrivals")
            for pid in self.pids
        ]

    def arrivals_until(self, horizon: float) -> TxBatch:
        """All arrivals in ``[0, horizon)``, merged and time-sorted.

        Single-shot.  The arrival *times* are bit-identical to what the
        legacy client processes produce by ``horizon`` (prefix property
        of batched draws); the stream cursor may sit a partial chunk
        further along, which is invisible to anything except a later
        draw from the same stream in the same run.
        """
        scale = 1.0 / self.rate_tps
        all_times: list[np.ndarray] = []
        all_cids: list[np.ndarray] = []
        all_tids: list[np.ndarray] = []
        for pid, rng in zip(self.pids, self._rngs):
            t = 0.0
            times: list[float] = []
            done = False
            while not done:
                gaps = rng.exponential(scale, size=self.CHUNK)
                for g in gaps.tolist():
                    t += g
                    if t >= horizon:
                        done = True
                        break
                    times.append(t)
            arr = np.array(times, dtype=np.float64)
            all_times.append(arr)
            all_cids.append(np.full(len(arr), pid, dtype=np.int64))
            all_tids.append(np.arange(len(arr), dtype=np.int64))
        times = np.concatenate(all_times)
        order = np.argsort(times, kind="stable")
        return TxBatch.columns(
            np.concatenate(all_cids)[order],
            np.concatenate(all_tids)[order],
            times[order],
            self.payload_bytes,
        )


__all__ = [
    "DEFAULT_SLAB_ROWS",
    "PerClientArrivals",
    "SuperposedArrivals",
]
