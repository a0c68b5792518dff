"""Streaming estimators, and the one exact metrics collector.

``legacy_stats`` keeps the formulas the collector used to apply post hoc
to its per-decision records (per-block latency averaged over replicas,
warm-up trimmed by dropping whole blocks); the per-block fold must
reproduce them bit for bit, with or without those records.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, run_experiment
from repro.metrics import (
    MetricsCollector,
    P2Quantile,
    RunStats,
    StreamingMoments,
    compute_stats,
)
from repro.metrics.streaming import percentile
from repro.protocols.registry import REGISTRY


def legacy_stats(collector: MetricsCollector, warmup_blocks: int = 0) -> RunStats:
    """The parent formulas over ``collector.decisions``."""
    decisions = collector.decisions
    if warmup_blocks > 0:
        earliest: dict = {}
        for d in decisions:
            if d.block_hash not in earliest or d.time < earliest[d.block_hash]:
                earliest[d.block_hash] = d.time
        by_time = sorted(earliest.items(), key=lambda kv: kv[1])
        skip = {h for h, _ in by_time[:warmup_blocks]}
        decisions = [d for d in decisions if d.block_hash not in skip]
    decided: dict = {}
    sums: dict = {}
    counts: dict = {}
    ntx_by_block: dict = {}
    for d in decisions:
        if d.block_hash not in decided or d.time < decided[d.block_hash]:
            decided[d.block_hash] = d.time
        ntx_by_block[d.block_hash] = d.ntxs
        t0 = collector.proposal_time(d.block_hash)
        if t0 is not None:
            sums[d.block_hash] = sums.get(d.block_hash, 0.0) + (d.time - t0)
            counts[d.block_hash] = counts.get(d.block_hash, 0) + 1
    lats = np.array(sorted(sums[h] / counts[h] for h in sums))
    txs = sum(ntx_by_block.values())
    if decided:
        t_first = min(
            t if (t0 := collector.proposal_time(h)) is None else t0
            for h, t in decided.items()
        )
        duration = max(max(decided.values()) - t_first, 1e-9)
        tput = txs / duration
    else:
        duration = tput = 0.0
    return RunStats(
        throughput_tps=tput,
        mean_latency_s=float(lats.mean()) if lats.size else 0.0,
        p50_latency_s=float(np.percentile(lats, 50)) if lats.size else 0.0,
        p99_latency_s=float(np.percentile(lats, 99)) if lats.size else 0.0,
        blocks_decided=len(decided),
        txs_decided=txs,
        views_decided=len(collector.execution_kinds()),
        timeouts=collector.timeouts(),
        duration_s=duration,
    )


class TestP2Quantile:
    def test_accuracy_on_million_samples(self):
        # The satellite gate: p50/p99 within 1% of exact on >= 1M
        # samples, fixed seed.  Log-normal — skewed like latency data.
        rng = np.random.default_rng(2024)
        xs = rng.lognormal(mean=-3.0, sigma=0.6, size=1_000_000)
        p50, p99 = P2Quantile(0.50), P2Quantile(0.99)
        add50, add99 = p50.add, p99.add
        for x in xs.tolist():
            add50(x)
            add99(x)
        exact50, exact99 = np.percentile(xs, [50, 99])
        assert p50.value() == pytest.approx(exact50, rel=0.01)
        assert p99.value() == pytest.approx(exact99, rel=0.01)

    def test_exact_below_five_observations(self):
        q = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            q.add(x)
        assert q.value() == pytest.approx(2.0)
        for p in (0.5, 0.99, 0.3):
            q = P2Quantile(p)
            for x in (3.0, 1.0, 2.5, 1.0):
                q.add(x)
            assert q.value() == float(np.percentile([3.0, 1.0, 2.5, 1.0], p * 100.0))

    def test_constant_memory(self):
        q = P2Quantile(0.99)
        for x in range(10_000):
            q.add(float(x))
        assert len(q._q) == 5 and len(q._n) == 5
        assert q.count == 10_000

    def test_deterministic(self):
        a, b = P2Quantile(0.9), P2Quantile(0.9)
        xs = np.random.default_rng(5).normal(size=5_000)
        for x in xs.tolist():
            a.add(x)
            b.add(x)
        assert a.value() == b.value()

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


#: No -0.0: numpy's partition may swap it with an equal 0.0.
_samples = st.lists(
    st.one_of(
        st.floats(-1e9, 1e9, allow_nan=False).map(lambda x: x + 0.0),
        st.sampled_from([0.0, 0.25, 1.0, 7.5]),  # ties
    ),
    min_size=1,
    max_size=40,
)
_quantiles = st.one_of(
    st.sampled_from([50, 99, 50.0, 99.0, 0, 100]),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda p: p * 100.0),
)


@settings(max_examples=500, deadline=None)
@given(_samples, _quantiles)
def test_percentile_is_numpys_bit_for_bit(xs, q):
    ordered = sorted(xs)
    assert percentile(ordered, q).hex() == float(np.percentile(ordered, q)).hex()


@pytest.mark.parametrize("q", [0, 50, 99, 100, 37.5])
def test_percentile_of_one_sample_and_of_ties(q):
    assert percentile([0.125], q) == 0.125
    assert percentile([2.0, 2.0, 2.0], q) == 2.0
    assert percentile([1, 1, 3], q) == float(np.percentile([1, 1, 3], q))


class TestStreamingMoments:
    def test_running_stats(self):
        m = StreamingMoments()
        for x in (2.0, 4.0, 6.0):
            m.add(x)
        assert m.count == 3
        assert m.mean() == pytest.approx(4.0)
        assert (m.min, m.max) == (2.0, 6.0)
        assert StreamingMoments().mean() == 0.0


def _report_block(col, b, t0, n_replicas=4, ntxs=400):
    h = hashlib.sha256(str(b).encode()).digest()
    col.on_propose(0, b, h, t0)
    for r in range(n_replicas):
        col.on_execute(r, b, h, ntxs, t0 + 0.05 + 0.001 * r, "normal")


class TestStreamingCollector:
    """``keep_decisions=False`` (``ExperimentConfig.streaming_metrics``)."""

    def test_matches_legacy_stats(self):
        kept = MetricsCollector()
        tap_off = MetricsCollector(keep_decisions=False)
        for b in range(500):
            for col in (kept, tap_off):
                _report_block(col, b, 0.1 + b * 0.01)
                col.on_view_outcome(0, b, "decide", b * 0.01)
        assert compute_stats(tap_off) == compute_stats(kept) == legacy_stats(kept)

    def test_warmup_trimmed_inside_collector(self):
        col = MetricsCollector(keep_decisions=False)
        for b in range(60):
            _report_block(col, b, 0.1 + b * 0.01)
        stats = compute_stats(col, warmup_blocks=10)
        assert stats.blocks_decided == 50
        assert stats.views_decided == 60  # untrimmed, as always

    def test_partial_blocks_flushed_at_compute(self):
        col = MetricsCollector(keep_decisions=False)
        h = b"\x01" * 32
        col.on_propose(0, 0, h, 1.0)
        col.on_execute(0, 0, h, 400, 1.05, "normal")  # 1 of 4 reports
        stats = compute_stats(col)
        assert stats.blocks_decided == 1
        assert stats.mean_latency_s == pytest.approx(0.05)

    def test_state_does_not_grow_with_replicas(self):
        sizes = []
        for n in (4, 16):
            col = MetricsCollector(keep_decisions=False)
            for b in range(100):
                _report_block(col, b, 0.1 + b * 0.01, n_replicas=n)
            sizes.append(col.state_size())
        assert sizes[0] == sizes[1] == 300  # proposal + block + view


# -- the fold against the legacy formulas --------------------------------
_TIMES = st.integers(0, 40).map(lambda k: k * 0.025)  # ties, and t = 0


@st.composite
def report_sequences(draw):
    """Proposals, then execution reports in any order.  A block may have
    duplicate proposals, no proposal at all, or reports from only some
    replicas; no report precedes its block's proposal, as in a run."""
    n_replicas = draw(st.integers(1, 6))
    n_blocks = draw(st.integers(0, 10))
    proposals, reports = [], []
    for b in range(n_blocks):
        h = hashlib.sha256(b"blk%d" % b).digest()
        view = draw(st.integers(1, 12))
        ntxs = draw(st.integers(0, 400))
        t0 = draw(_TIMES)
        if draw(st.booleans()):
            proposals.append((draw(st.integers(0, n_replicas - 1)), view, h, t0))
            for later in draw(st.lists(_TIMES, max_size=2)):
                proposals.append((0, view, h, t0 + later))
        who = draw(st.lists(st.integers(0, n_replicas - 1), min_size=1, max_size=8))
        kind = draw(st.sampled_from(["normal", "piggyback", "catchup"]))
        for r in who:
            reports.append((r, view, h, ntxs, t0 + draw(_TIMES), kind))
    reports = draw(st.permutations(reports))
    timeouts = draw(st.integers(0, 3))
    warmup = draw(st.integers(0, n_blocks + 2))
    return proposals, reports, timeouts, warmup


@settings(max_examples=200, deadline=None)
@given(report_sequences())
def test_fold_matches_legacy_formulas(seq):
    proposals, reports, timeouts, warmup = seq
    kept = MetricsCollector()
    tap_off = MetricsCollector(keep_decisions=False)
    for col in (kept, tap_off):
        for p in proposals:
            col.on_propose(*p)
        for r in reports:
            col.on_execute(*r)
        for v in range(timeouts):
            col.on_view_outcome(0, v, "timeout", 0.0)
    want = legacy_stats(kept, warmup)
    assert compute_stats(kept, warmup) == want
    assert compute_stats(tap_off, warmup) == want


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_fold_matches_legacy_formulas_on_smr_local(protocol):
    cfg = ExperimentConfig(
        protocol=protocol, f=1, payload_bytes=256, deployment="local",
        local_latency_s=0.002, timeout_base=0.5, target_blocks=40, seed=11,
    )
    run = run_experiment(cfg)
    assert run.stats == legacy_stats(run.collector, cfg.warmup_blocks)
    assert run.stats.blocks_decided >= cfg.target_blocks
