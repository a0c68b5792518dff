"""Unit tests for experiment configuration, deployments, and gains."""

import inspect

import pytest

from repro.experiments import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_shard_scaling,
    run_sharded,
)
from repro.experiments.degraded import DegradedResult, check_shape
from repro.experiments.deployments import DEPLOYMENTS, latency_model_for
from repro.experiments.fig7 import Fig7Result
from repro.experiments.gains import PAPER_GAINS, compute_gains, render_gains
from repro.faults import Fault
from repro.metrics import RunStats
from repro.net import ConstantLatency, DegradeSpec, IsolateSpec, TopologyLatency


def test_config_describe():
    cfg = ExperimentConfig(protocol="damysus", f=4, deployment="us", seed=9)
    out = cfg.describe()
    assert "damysus" in out and "f=4" in out and "us" in out and "seed=9" in out
    assert out == "damysus f=4 us 0B seed=9"
    sharded = ExperimentConfig(
        shards=2, cross_shard_permille=150, workload="open", offered_tps=1500.0
    )
    assert sharded.describe() == (
        "oneshot f=1 eu 0B seed=0 k=2 cross=150‰ open 1,500 tx/s"
    )
    assert ExperimentConfig(workload="open").describe().endswith(" open 10,000 tx/s")


def test_config_defaults_sane():
    cfg = ExperimentConfig()
    assert cfg.protocol == "oneshot"
    assert cfg.gst == 0.0
    assert cfg.warmup_blocks >= 0


@pytest.mark.parametrize(
    "field, value, extra",
    [
        ("target_blocks", 0, {}),
        ("target_blocks", -2, {}),
        ("warmup_blocks", -1, {}),
        ("max_sim_time", 0.0, {}),
        ("deployment", "mars", {}),
        ("workload", "bursty", {}),
        ("shards", 0, {}),
        ("cross_shard_permille", 1500, {}),
        ("cross_shard_permille", -1, {}),
        ("hot_key_permille", 1001, {}),
        ("shard_slots", 0, {}),
        ("shard_slots", 2, {"shards": 4}),
        ("offered_tps", 0.0, {"workload": "open"}),
        ("virtual_clients", 0, {"workload": "open"}),
        ("f", -1, {}),
        ("local_latency_s", -0.001, {}),
        ("timeout_base", 0.0, {}),
        ("bandwidth_bps", 0.0, {}),
        ("gst", -1.0, {}),
        ("pre_gst_extra", -0.5, {}),
        ("shard_epoch_s", -1.0, {}),
        ("workload_regions", 0, {"workload": "open"}),
        ("workload_regions", 11, {"workload": "open", "virtual_clients": 10}),
        ("arrival_slab", 0, {"workload": "open"}),
        ("protocol", "nope", {}),
        ("payload_bytes", -5, {}),
        ("reference_pid", 3, {}),
        ("reference_pid", -1, {}),
        ("faults", (Fault(pid=9, behaviour="crashed"),), {"f": 1}),
        ("faults", (Fault(1, "crashed"), Fault(1, "slow")), {}),
        ("isolates", (IsolateSpec(node=3, start=0.0, end=1.0),), {}),
        ("coordinator_delay", DegradeSpec(0.5, 1.5, 0.05), {}),
        ("coordinator_delay", DegradeSpec(0.5, 1.5, 0.05, nodes=(0,)),
         {"shards": 2}),
    ],
)
def test_config_rejects_what_no_run_can_honour(field, value, extra):
    with pytest.raises(ConfigError, match=rf"^ExperimentConfig\.{field} = "):
        ExperimentConfig(**{field: value, **extra})


@pytest.mark.parametrize(
    "driver, field, config",
    [
        (run_experiment, "shards",
         ExperimentConfig(shards=4, cross_shard_permille=200, deployment="local",
                          workload="open", max_sim_time=0.5)),
        (run_sharded, "workload",
         ExperimentConfig(shards=2, workload="saturated", max_sim_time=0.5)),
        (run_experiment, "cross_shard_permille",
         ExperimentConfig(workload="open", cross_shard_permille=150,
                          deployment="local", max_sim_time=0.5)),
        (run_experiment, "shard_epoch_s",
         ExperimentConfig(workload="open", shard_epoch_s=0.5,
                          deployment="local", max_sim_time=0.5)),
    ],
)
def test_driver_rejects_a_config_it_cannot_honour(driver, field, config):
    """A driver never runs a different experiment than its config names."""
    with pytest.raises(ConfigError, match=rf"^ExperimentConfig\.{field} = "):
        driver(config)


def test_shard_scaling_needs_a_config():
    """No default config: ``ExperimentConfig()`` is a 600 s open loop."""
    config = inspect.signature(run_shard_scaling).parameters["config"]
    assert config.default is inspect.Parameter.empty


def test_config_allows_more_faulty_pids_than_f():
    """A run that must stall is the liveness oracle's own test."""
    crashed = tuple(Fault(pid, "crashed") for pid in (1, 2))
    assert ExperimentConfig(f=1, faults=crashed).faults == crashed


def test_closed_loop_config_ignores_open_loop_fields():
    ExperimentConfig(
        offered_tps=0.0, virtual_clients=0, workload_regions=0, arrival_slab=0
    )


def test_deployments_match_paper_fleet_names():
    assert set(DEPLOYMENTS) == {"eu", "us", "world", "local"}


def test_latency_model_types():
    assert isinstance(latency_model_for("eu"), TopologyLatency)
    assert isinstance(latency_model_for("local", 0.01), ConstantLatency)


def test_latency_model_unknown_deployment():
    with pytest.raises(KeyError):
        latency_model_for("mars")


def _stats(tput, lat):
    return RunStats(
        throughput_tps=tput,
        mean_latency_s=lat,
        p50_latency_s=lat,
        p99_latency_s=lat,
        blocks_decided=10,
        txs_decided=4000,
        views_decided=10,
        timeouts=0,
        duration_s=1.0,
    )


def synthetic_panel():
    """A hand-built Fig. 7 panel with known gains."""
    result = Fig7Result(deployment="eu", f_values=(1, 2), payloads=(0,))
    result.runs[("hotstuff", 0)] = {1: _stats(100, 0.10), 2: _stats(50, 0.20)}
    result.runs[("damysus", 0)] = {1: _stats(200, 0.050), 2: _stats(100, 0.10)}
    result.runs[("oneshot", 0)] = {1: _stats(400, 0.025), 2: _stats(300, 0.04)}
    return result


def test_compute_gains_exact_values():
    table = compute_gains(synthetic_panel())
    hs = table.throughput[(0, "hotstuff")]
    # f=1: 400/100 -> +300%; f=2: 300/50 -> +500%; avg +400%.
    assert hs.avg == pytest.approx(400.0)
    assert (hs.lo, hs.hi) == (300.0, 500.0)
    dam_lat = table.latency[(0, "damysus")]
    # f=1: 1-0.025/0.05 = 50%; f=2: 1-0.04/0.1 = 60%.
    assert dam_lat.avg == pytest.approx(55.0)


def test_render_gains_includes_paper_reference():
    out = render_gains(compute_gains(synthetic_panel()))
    assert "paper(HS)" in out and "+439%" in out  # EU reference column


def test_paper_gains_reference_table_complete():
    for deployment in ("eu", "us", "world"):
        for payload in (0, 256):
            assert len(PAPER_GAINS[deployment][payload]) == 4


def test_fig7_result_series_accessors():
    panel = synthetic_panel()
    assert panel.throughput_series("oneshot", 0) == [400, 300]
    assert panel.latency_series("oneshot", 0) == [25.0, 40.0]


def test_degraded_catchup_collapse_flagged():
    """50 % catch-up at 0.4x Damysus is not "comparable": flagged."""
    result = DegradedResult(f=2, payload_bytes=256)
    result.baselines["hotstuff"] = _stats(100, 0.1)
    result.baselines["damysus"] = _stats(1000, 0.05)
    result.forced[("catchup", "50%")] = _stats(400, 0.1)
    assert check_shape(result) == [
        "50% catch-up should be comparable to damysus"
    ]
