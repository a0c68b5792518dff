"""Integration tests: the experiment harness (E1-E8 drivers)."""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentConfig,
    PAPER_STEPS,
    compute_gains,
    measure_execution,
    render_degraded,
    render_fig7,
    render_gains,
    render_steps_table,
    run_degraded,
    run_experiment,
    run_fig7,
    steps_table,
)
from repro.experiments.degraded import check_shape as degraded_shape
from repro.experiments.fig7 import check_shape as fig7_shape
from repro.metrics import CATCHUP, NORMAL, PIGGYBACK


def test_run_experiment_returns_stats():
    cfg = ExperimentConfig(protocol="oneshot", f=1, target_blocks=8, seed=1)
    res = run_experiment(cfg)
    assert res.stats.blocks_decided >= 8
    assert res.stats.throughput_tps > 0
    assert res.stats.mean_latency_s > 0


def test_run_experiment_warmup_trim():
    cfg = ExperimentConfig(
        protocol="oneshot", f=1, target_blocks=8, warmup_blocks=3, seed=1
    )
    res = run_experiment(cfg)
    # warm-up blocks excluded from the stats
    all_decided = len(res.collector.decided_blocks())
    assert res.stats.blocks_decided == all_decided - 3


def test_run_experiment_all_deployments():
    for deployment in ("eu", "us", "world", "local"):
        cfg = ExperimentConfig(
            protocol="oneshot", f=1, deployment=deployment, target_blocks=5
        )
        assert run_experiment(cfg).stats.blocks_decided >= 5


def test_run_experiment_respects_max_time():
    cfg = ExperimentConfig(
        protocol="oneshot", f=1, target_blocks=10**9, max_sim_time=0.5
    )
    res = run_experiment(cfg)
    assert res.sim.now <= 0.5 + 1e-6


# ----------------------------------------------------------------------
# E1: Sec. V steps table
# ----------------------------------------------------------------------
def test_steps_table_matches_paper():
    rows = steps_table()
    measured = {r.kind: (r.blocks, r.steps) for r in rows}
    assert measured == PAPER_STEPS


@pytest.mark.parametrize("kind", [NORMAL, CATCHUP, PIGGYBACK])
def test_measure_execution_each_kind(kind):
    row = measure_execution(kind)
    assert row.matches_paper
    assert len(row.waves) == row.steps


def test_steps_table_rendering():
    out = render_steps_table(steps_table())
    assert "normal" in out and "catchup" in out and "piggyback" in out
    assert "NO" not in out  # every row matches


# ----------------------------------------------------------------------
# E2-E7: Fig. 7 + gain tables (reduced sweep)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eu_panel():
    return run_fig7("eu", f_values=(1, 2), target_blocks=10)


def test_fig7_shape_holds(eu_panel):
    assert fig7_shape(eu_panel) == []


def test_fig7_throughput_decreases_with_f(eu_panel):
    for proto in ("oneshot", "damysus", "hotstuff"):
        series = eu_panel.throughput_series(proto, 0)
        assert series[0] > series[-1]


def test_fig7_payload_slows_everyone(eu_panel):
    for proto in ("oneshot", "damysus", "hotstuff"):
        assert (
            eu_panel.throughput_series(proto, 0)[0]
            > eu_panel.throughput_series(proto, 256)[0]
        )
        assert (
            eu_panel.latency_series(proto, 0)[0]
            < eu_panel.latency_series(proto, 256)[0]
        )


def test_fig7_rendering(eu_panel):
    out = render_fig7(eu_panel)
    assert "throughput" in out and "latency" in out and "oneshot" in out


def test_fig7_renders_and_checks_requested_protocols():
    panel = run_fig7(
        "local",
        f_values=(1,),
        payloads=(0,),
        protocols=("oneshot-chained",),
        target_blocks=4,
    )
    assert "oneshot-chained" in render_fig7(panel)
    assert fig7_shape(panel) == []


def test_fig7_shape_flags_short_runs(eu_panel):
    panel = dataclasses.replace(eu_panel, target_blocks=10**6)
    assert any("decided" in p for p in fig7_shape(panel))


def test_gains_positive(eu_panel):
    table = compute_gains(eu_panel)
    for cell in table.throughput.values():
        assert cell.avg > 0
    for cell in table.latency.values():
        assert cell.avg > 0  # decreases are positive percentages


def test_gains_rendering(eu_panel):
    out = render_gains(compute_gains(eu_panel))
    assert "vs HotStuff" in out and "vs Damysus" in out
    assert "paper" in out


# ----------------------------------------------------------------------
# E8: degraded network
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def degraded():
    return run_degraded(target_blocks=24, modes=("catchup", "piggyback"))


def test_degraded_shape(degraded):
    assert degraded_shape(degraded) == []


def test_degraded_forcing_observed(degraded):
    for frac in degraded.observed_fraction.values():
        assert frac > 0.2


def test_degraded_monotone_in_fraction(degraded):
    for mode in ("catchup", "piggyback"):
        t25 = degraded.forced[(mode, "25%")].throughput_tps
        t50 = degraded.forced[(mode, "50%")].throughput_tps
        assert t50 < t25


def test_degraded_piggyback_cheaper_than_catchup(degraded):
    for label in ("25%", "33%", "50%"):
        assert (
            degraded.forced[("piggyback", label)].throughput_tps
            > degraded.forced[("catchup", label)].throughput_tps
        )


def test_degraded_rendering(degraded):
    out = render_degraded(degraded)
    assert "damysus (baseline)" in out and "oneshot catchup 50%" in out
