"""Property tests for the aggregated arrival generators.

* superposition law: the pooled process's inter-arrival gaps follow
  Exp(total rate) — KS check against the analytic CDF on fixed seeds —
  and so do the gaps of N merged independent clients (the two modes
  agree in law);
* per-client tx-id numbering matches what each virtual client's own
  factory would assign.
"""

import numpy as np
import pytest

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
        times = np.concatenate(
            [s.submit_times for s in (gen.next_slab(512) for _ in range(100))]
        )
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
        slabs = [gen.next_slab(512) for _ in range(40)]
        cids = np.concatenate([s.client_ids for s in slabs])
        counts = np.bincount(cids, minlength=1000)
        # ~20.5 arrivals per client; a uniform mark distribution keeps
        # the max well under small-population hotspots.
        assert counts.max() < 60
        assert (counts > 0).mean() > 0.99

    def test_txids_number_each_client_separately(self):
        gen = _superposed(seed=9, n_clients=37, rate=500.0)
        seen: dict[int, int] = {}
        for _ in range(20):
            slab = gen.next_slab(64)
            for cid, tid in slab.keys():
                assert tid == seen.get(cid, 0)
                seen[cid] = tid + 1
        assert sum(seen.values()) == gen.minted

    def test_deterministic_under_seed(self):
        a, b = _superposed(seed=3), _superposed(seed=3)
        sa, sb = a.next_slab(256), b.next_slab(256)
        assert sa.submit_times.tolist() == sb.submit_times.tolist()
        assert sa.client_ids.tolist() == sb.client_ids.tolist()
        c = _superposed(seed=4)
        assert c.next_slab(256).submit_times.tolist() != sa.submit_times.tolist()

    def test_clock_monotone_across_slabs(self):
        gen = _superposed(seed=2)
        prev = 0.0
        for _ in range(10):
            s = gen.next_slab(128)
            assert s.submit_times[0] > prev
            assert (np.diff(s.submit_times) >= 0).all()
            prev = float(s.submit_times[-1])

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=0, rate_tps=1.0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=1, rate_tps=0.0)
        with pytest.raises(ValueError):
            SuperposedArrivals(rng, n_clients=1, rate_tps=1.0).next_slab(0)
