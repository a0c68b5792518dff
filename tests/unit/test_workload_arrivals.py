"""Property tests for the aggregated arrival generators.

* superposition law: the pooled process's inter-arrival gaps follow
  Exp(total rate) — KS check against the analytic CDF on fixed seeds —
  and so do the gaps of N merged independent clients (the two modes
  agree in law);
* per-client tx-id numbering matches what each virtual client's own
  factory would assign, and what one dense counter per client gave;
* per-client state is kept for touched clients only.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.workload import SuperposedArrivals


def _ks_against_exponential(gaps: np.ndarray, rate: float) -> float:
    """One-sample KS statistic vs the Exp(rate) CDF."""
    x = np.sort(gaps)
    n = len(x)
    cdf = 1.0 - np.exp(-rate * x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(np.maximum(np.abs(ecdf_hi - cdf), np.abs(cdf - ecdf_lo)).max())


def _superposed(seed=1, n_clients=1_000_000, rate=100_000.0):
    sim = Simulator(seed=seed)
    return SuperposedArrivals(
        sim.rng.stream(
            "workload.region0.arrivals", purpose="aggregated open-loop arrivals"
        ),
        n_clients=n_clients,
        rate_tps=rate,
    )


class TestSuperposition:
    def test_pooled_gaps_are_exponential(self):
        gen = _superposed()
        times = np.concatenate([gen.next_arrivals(512)[2] for _ in range(100)])
        gaps = np.diff(times)
        # 1.36/sqrt(n) ~ 0.006 at the 5% level for n=51k; fixed seed.
        assert _ks_against_exponential(gaps, 100_000.0) < 0.01

    def test_merged_independent_clients_agree_in_law(self):
        # N independent per-client Poisson streams merged give gaps with
        # the same Exp(N*lambda) law as the pooled generator
        # (superposition theorem) — the distributional equivalence the
        # engine rests on.
        rng = np.random.default_rng(77)
        per_client = [
            np.cumsum(rng.exponential(1.0 / 40.0, size=1_500)) for _ in range(50)
        ]
        merged = np.sort(np.concatenate([t[t < 30.0] for t in per_client]))
        assert len(merged) > 40_000
        assert _ks_against_exponential(np.diff(merged), 50 * 40.0) < 0.01

    def test_marks_uniform_over_population(self):
        gen = _superposed(seed=5, n_clients=1000, rate=1000.0)
        cids = np.concatenate([gen.next_arrivals(512)[0] for _ in range(40)])
        counts = np.bincount(cids, minlength=1000)
        # ~20.5 arrivals per client; a uniform mark distribution keeps
        # the max well under small-population hotspots.
        assert counts.max() < 60
        assert (counts > 0).mean() > 0.99

    def test_txids_number_each_client_separately(self):
        gen = _superposed(seed=9, n_clients=37, rate=500.0)
        seen: dict[int, int] = {}
        for _ in range(20):
            cids, tids, _ = gen.next_arrivals(64)
            for cid, tid in zip(cids.tolist(), tids.tolist()):
                assert tid == seen.get(cid, 0)
                seen[cid] = tid + 1
        assert sum(seen.values()) == gen.minted

    def test_deterministic_under_seed(self):
        a, b = _superposed(seed=3), _superposed(seed=3)
        (ca, ta, sa), (cb, tb, sb) = a.next_arrivals(256), b.next_arrivals(256)
        assert sa.tolist() == sb.tolist()
        assert ca.tolist() == cb.tolist() and ta.tolist() == tb.tolist()
        c = _superposed(seed=4)
        assert c.next_arrivals(256)[2].tolist() != sa.tolist()

    def test_clock_monotone_across_slabs(self):
        gen = _superposed(seed=2)
        prev = 0.0
        for _ in range(10):
            times = gen.next_arrivals(128)[2]
            assert times[0] > prev
            assert (np.diff(times) >= 0).all()
            prev = float(times[-1])
            assert gen.clock == prev

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=0, rate_tps=1.0)
        with pytest.raises(ValueError):  # client << 32 must fit an int64
            SuperposedArrivals(rng, n_clients=2**31 + 1, rate_tps=1.0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=1, rate_tps=0.0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=1, rate_tps=1.0).next_arrivals(0)


def _dense_number_occurrences(
    marks: np.ndarray, counters: np.ndarray
) -> np.ndarray:
    """Reference numbering with one dense counter per virtual client (the
    generator's former state): row *j* gets ``counters[marks[j]]`` plus
    the number of earlier rows with the same mark."""
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


class TestTouchedClientState:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 40), st.sampled_from([1000, 10**6])),
        st.lists(st.integers(1, 600), min_size=1, max_size=8),
        st.sampled_from([(16_384, 32), (1, 2), (3, 3)]),
    )
    def test_numbering_equals_dense_counters(
        self, seed, n_clients, slab_rows, run_bounds
    ):
        gen = _superposed(seed=seed, n_clients=n_clients, rate=500.0)
        # Small run bounds push touched clients through many merges.
        gen._RUN_ROWS, gen._FANOUT = run_bounds
        # Replay the generator's mark draws: each slab draws its
        # exponential gaps first, then its marks.
        replay = _superposed(seed=seed, n_clients=n_clients, rate=500.0).rng
        dense = np.zeros(n_clients, dtype=np.int64)
        for rows in slab_rows:
            cids, tids, _ = gen.next_arrivals(rows)
            replay.exponential(1.0, size=rows)
            marks = replay.integers(0, n_clients, size=rows)
            assert cids.tolist() == marks.tolist()
            expected = _dense_number_occurrences(marks, dense)
            assert tids.tolist() == expected.tolist()

    def test_large_population_allocates_only_touched_state(self):
        rng = np.random.default_rng(0)
        # Warm numpy's lazily built internals outside the trace.
        SuperposedArrivals(rng, n_clients=10, rate_tps=1.0).next_arrivals(512)
        tracemalloc.start()
        try:
            gen = SuperposedArrivals(rng, n_clients=10**7, rate_tps=1000.0)
            for _ in range(8):
                gen.next_arrivals(512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a dense int64 counter array is 80 MB

    def test_touched_state_is_one_entry_per_client_in_few_runs(self):
        gen = _superposed(seed=3, n_clients=50_000, rate=1000.0)
        for _ in range(400):
            gen.next_arrivals(512)
        entries = np.concatenate(gen._runs)
        clients = entries >> 32
        assert len(np.unique(clients)) == len(clients)  # each in one run
        assert (entries & 0xFFFFFFFF).sum() == gen.minted
        assert len(gen._runs) <= 2  # bounds 16 384 and 524 288
        assert all(np.all(np.diff(run) > 0) for run in gen._runs)
