"""Arrival-time generation for the aggregated open-loop load.

**Why aggregation is exact.**  N independent Poisson processes with
rates λ₁…λ_N superpose into one Poisson process with rate Σλᵢ whose
events carry independent marks: each event belongs to client *i* with
probability λᵢ/Σλᵢ (the superposition/thinning theorem).  With equal
per-client rates the marks are iid-uniform over the client population.
:class:`SuperposedArrivals` simulates exactly that — one exponential
stream for the pooled process plus one uniform-integer stream for the
marks — so its law matches N independent per-client Poisson
processes merged into one stream, while costing one RNG call per *slab*
of arrivals instead of one simulator event per *arrival*.  That is what makes
million-client populations affordable: the only per-client state is a
``tx_id`` counter for each client that has minted a row (one int64 per
touched client, none for the rest of the population), and the work per
arrival is a few vectorized numpy ops.

**Touched clients only.**  The counters pay off when a run's arrivals
are far fewer than its population (``shard-k8-open``: ~43 k arrivals
over 1 M clients touch ~4 % of them).  Each touched client is one int64
entry, ``client << 32 | next_id`` — as much as one dense counter — kept
in a few sorted runs of geometrically growing bound, smallest first.
Minting a new client copies the smallest run, and a larger run is
rewritten only when a smaller one overflows into it, so the cost of a
slab grows with the number of runs (the logarithm of the touched
count), not with the count.

**Streams.**  The open-loop pump (:mod:`repro.shard.workload`) gives
region *k* the stream ``workload.shard-region<k>.arrivals``
(documented in docs/invariants.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default rows per minted slab: one simulator event carries this many
#: arrivals.  Large enough to amortize event and numpy-call overhead,
#: small enough that slab granularity (a slab is dispatched at its last
#: arrival's time) stays well under a block interval at target rates.
DEFAULT_SLAB_ROWS = 512

#: First virtual client id.  Replica synthetic sources use
#: ``10_000 + pid`` and clients use small pids, so a disjoint
#: base keeps ``(client_id, tx_id)`` keys globally unique.
VIRTUAL_CLIENT_BASE = 1_000_000


@dataclass(frozen=True)
class RegionSpec:
    """One region's share of the offered load."""

    n_clients: int
    rate_tps: float
    payload_bytes: int = 0


def split_regions(
    virtual_clients: int,
    offered_tps: float,
    regions: int,
    payload_bytes: int = 0,
) -> tuple[RegionSpec, ...]:
    """Divide a client population and offered load across regions.

    Near-even split (remainders go to the earliest regions), preserving
    the totals exactly.
    """
    if virtual_clients < regions or regions <= 0:
        raise ValueError("need at least one virtual client per region")
    base, extra = divmod(virtual_clients, regions)
    out = []
    for i in range(regions):
        n = base + (1 if i < extra else 0)
        out.append(
            RegionSpec(
                n_clients=n,
                rate_tps=offered_tps * (n / virtual_clients),
                payload_bytes=payload_bytes,
            )
        )
    return tuple(out)


class SuperposedArrivals:
    """Pooled-Poisson arrival generator for one region.

    Equivalent in law to ``n_clients`` independent Poisson clients
    whose rates sum to ``rate_tps`` (see module docstring).  ``rng`` is
    an injected named stream (``workload.shard-region<k>.arrivals``);
    ``client_base`` offsets the virtual client ids so regions (and the
    replicas' synthetic sources) never collide.
    """

    #: Bound on the smallest run of touched clients, and the growth of
    #: the bound from one run to the next.
    _RUN_ROWS = 16_384
    _FANOUT = 32

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
        if n_clients > 1 << 31:
            raise ValueError("n_clients must fit in 31 bits")
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        self.rng = rng
        self.n_clients = n_clients
        self.rate_tps = rate_tps
        self.payload_bytes = payload_bytes
        self.client_base = client_base
        #: Next tx_id per touched virtual client — the only per-client
        #: state: sorted int64 runs of ``client << 32 | next_id``, each
        #: client in exactly one run; run *k* holds at most
        #: ``_RUN_ROWS * _FANOUT**k`` clients.
        self._runs: list[np.ndarray] = []
        self._t = float(start)
        self.minted = 0

    @property
    def clock(self) -> float:
        """Time of the last minted arrival."""
        return self._t

    def next_arrivals(
        self, rows: int = DEFAULT_SLAB_ROWS
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mint the next ``rows`` arrivals: their client ids, tx ids and
        times, as int64, int64 and float64 arrays."""
        if rows <= 0:
            raise ValueError("rows must be positive")
        gaps = self.rng.exponential(1.0 / self.rate_tps, size=rows)
        times = self._t + np.cumsum(gaps)
        self._t = float(times[-1])
        marks = self.rng.integers(0, self.n_clients, size=rows)
        tx_ids = self._number(marks)
        self.minted += rows
        return self.client_base + marks, tx_ids, times

    def _number(self, marks: np.ndarray) -> np.ndarray:
        """Per-client occurrence numbers for a slab of client marks.

        Row *j* gets its client's next id plus the number of earlier
        rows in the slab with the same mark — exactly the ``tx_id`` the
        marked client's own :class:`~repro.smr.transaction.TxFactory`
        would assign — and each client's next id advances by its
        occurrence count.  Fully vectorized: one stable argsort groups
        the rows by client, binary search finds the touched clients.
        """
        n = len(marks)
        order = np.argsort(marks, kind="stable")
        ranked = marks[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(first)
        uniq = ranked[starts]
        counts = np.diff(starts, append=n)
        key = uniq << 32  # a touched client's entry is key + next id
        base = np.zeros(len(uniq), dtype=np.int64)
        miss = np.arange(len(uniq))  # clients not found yet
        for run in reversed(self._runs):  # largest first
            if len(run) and len(miss):
                at = np.searchsorted(run, key[miss])
                np.minimum(at, len(run) - 1, out=at)
                hit = (run[at] >> 32) == uniq[miss]
                at, found = at[hit], miss[hit]
                base[found] = run[at] - key[found]
                run[at] += counts[found]
                miss = miss[~hit]
        if len(miss):
            self._touch(key[miss] + counts[miss])
        tx_ids = np.empty(n, dtype=np.int64)
        tx_ids[order] = (base - starts)[np.cumsum(first) - 1] + np.arange(n)
        return tx_ids

    def _touch(self, entries: np.ndarray) -> None:
        """Add the sorted entries of untouched clients to the smallest
        run; a run past its bound is merged into the next one."""
        for k, run in enumerate(self._runs):
            entries = np.insert(run, np.searchsorted(run, entries), entries)
            if len(entries) <= self._RUN_ROWS * self._FANOUT**k:
                self._runs[k] = entries
                return
            self._runs[k] = np.empty(0, dtype=np.int64)
        self._runs.append(entries)


__all__ = [
    "DEFAULT_SLAB_ROWS",
    "RegionSpec",
    "SuperposedArrivals",
    "VIRTUAL_CLIENT_BASE",
    "split_regions",
]
