"""Unit tests for metrics collection, stats and report rendering."""

import pytest

from repro.crypto import digest_of
from repro.metrics import (
    GainCell,
    MetricsCollector,
    compute_stats,
    decrease_pct,
    gain_pct,
    render_series,
    render_table,
)

H1, H2 = digest_of("b1"), digest_of("b2")


def collector_with_two_blocks():
    c = MetricsCollector()
    c.on_propose(0, 1, H1, now=1.0)
    c.on_execute(0, 1, H1, ntxs=400, now=1.1, kind="normal")
    c.on_execute(1, 1, H1, ntxs=400, now=1.3, kind="normal")
    c.on_propose(1, 2, H2, now=2.0)
    c.on_execute(0, 2, H2, ntxs=400, now=2.2, kind="piggyback")
    return c


def test_block_latencies_average_over_replicas():
    blocks = collector_with_two_blocks().blocks()
    lats = {h: lat_sum / reports for h, (lat_sum, reports, _, _) in blocks.items()}
    assert lats[H1] == pytest.approx(0.2)  # mean of 0.1 and 0.3
    assert lats[H2] == pytest.approx(0.2)
    assert [rec[1:] for rec in blocks.values()] == [[2, 400, 1.1], [1, 400, 2.2]]


def test_decided_blocks_earliest_time():
    c = collector_with_two_blocks()
    decided = c.decided_blocks()
    assert decided[H1] == 1.1
    assert decided[H2] == 2.2


def test_compute_stats_throughput():
    st = compute_stats(collector_with_two_blocks())
    # 800 txs from first proposal (1.0) to last execution (2.2).
    assert st.txs_decided == 800
    assert st.throughput_tps == pytest.approx(800 / 1.2)
    assert st.blocks_decided == 2
    assert st.mean_latency_s == pytest.approx(0.2)


def test_compute_stats_span_starts_at_a_proposal_at_t0():
    c = MetricsCollector()
    c.on_propose(0, 1, H1, now=0.0)
    c.on_execute(0, 1, H1, ntxs=400, now=0.5, kind="normal")
    c.on_propose(0, 2, H2, now=1.0)
    c.on_execute(0, 2, H2, ntxs=400, now=1.5, kind="normal")
    st = compute_stats(c)
    # 800 txs from the proposal at t = 0 to the last execution (1.5).
    assert st.duration_s == pytest.approx(1.5)
    assert st.throughput_tps == pytest.approx(800 / 1.5)


def test_compute_stats_empty_run():
    st = compute_stats(MetricsCollector())
    assert st.throughput_tps == 0.0
    assert st.blocks_decided == 0
    assert st.mean_latency_s == 0.0


def test_proposal_time_first_wins():
    c = MetricsCollector()
    c.on_propose(0, 1, H1, now=1.0)
    c.on_propose(1, 1, H1, now=5.0)  # duplicate, ignored
    assert c.proposal_time(H1) == 1.0


def test_execution_kinds_first_decision_wins():
    c = collector_with_two_blocks()
    assert c.execution_kinds() == {1: "normal", 2: "piggyback"}


def test_timeout_counting():
    c = MetricsCollector()
    c.on_view_outcome(0, 3, "timeout", 1.0)
    c.on_view_outcome(1, 3, "timeout", 1.0)
    c.on_view_outcome(0, 4, "decide", 2.0)
    assert c.timeouts() == 2


def test_gain_and_decrease_pct():
    assert gain_pct(200, 100) == pytest.approx(100.0)
    assert gain_pct(100, 0) == float("inf")
    assert decrease_pct(50, 100) == pytest.approx(50.0)


def test_gain_cell_from_values():
    cell = GainCell.from_values([10.0, 30.0, 20.0])
    assert cell.avg == pytest.approx(20.0)
    assert (cell.lo, cell.hi) == (10.0, 30.0)
    assert cell.render("+") == "+20% (10, 30)"


def test_gain_cell_rejects_empty():
    with pytest.raises(ValueError):
        GainCell.from_values([])


def test_render_table_alignment():
    out = render_table("T", ["row1"], ["c1", "c2"], [["a", "bb"]])
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "c1" in lines[1] and "row1" in lines[3]


def test_render_series():
    out = render_series("S", "f", [1, 2], {"proto": [10.0, 20.0]})
    assert "proto" in out and "10" in out and "20" in out
