"""Whole-path sharded runs: all protocols, scaling, fuzz integration."""

import dataclasses

import pytest

from repro.experiments import ExperimentConfig, run_shard_scaling, run_sharded
from repro.fuzz import run_scenario
from repro.net import DegradeSpec
from repro.shard import ShardFingerprint


def _config(protocol, **overrides):
    base = ExperimentConfig(
        protocol=protocol,
        f=1,
        deployment="local",
        local_latency_s=0.002,
        max_sim_time=2.0,
        seed=9,
        workload="open",
        offered_tps=1200.0,
        virtual_clients=2000,
        arrival_slab=64,
        shards=2,
        cross_shard_permille=150,
        shard_slots=16,
    )
    return dataclasses.replace(base, **overrides)


@pytest.mark.parametrize(
    "protocol", ["oneshot", "oneshot-chained", "damysus", "hotstuff"]
)
def test_cross_shard_run_is_atomic_and_deterministic(protocol):
    run = run_sharded(_config(protocol))
    assert run.atomicity.ok, run.atomicity.describe()
    assert run.committed_txs > 0
    assert run.coordinator is not None
    assert run.coordinator.committed > 0
    assert run.coordinator.committed + run.coordinator.aborted == len(
        run.coordinator.decision_log
    )
    # 2PC spans two consensus decisions, so it must cost more than one.
    assert run.cross_overhead_ratio > 1.0
    # Replay identity: same config, byte-identical fingerprint.
    assert (
        run_sharded(_config(protocol)).fingerprint.digest()
        == run.fingerprint.digest()
    )


def test_single_shard_run_disables_cross_traffic():
    run = run_sharded(_config("oneshot", shards=1))
    assert run.coordinator is None
    assert run.router.cross_permille == 0
    assert run.atomicity.ok
    assert run.committed_txs > 0


def test_weak_scaling_k1_to_k8():
    config = ExperimentConfig(
        protocol="oneshot",
        f=1,
        deployment="local",
        local_latency_s=0.002,
        max_sim_time=1.5,
        seed=7,
        workload="open",
        offered_tps=1_500.0,
        virtual_clients=4_000,
        shard_slots=32,
    )
    scaling = run_shard_scaling(ks=(1, 8), config=config)
    assert sorted(scaling.runs) == [1, 8]
    assert all(r.atomicity.ok for r in scaling.runs.values())
    # Weak scaling: offered load grows with k, so eight shards must
    # commit at least 3x what one does (simulated time, no wall clock).
    assert scaling.scaling_x() >= 3.0


def test_fuzz_shard_scenario_runs_under_the_oracles():
    scenario = ExperimentConfig(
        protocol="oneshot",
        f=1,
        deployment="local",
        warmup_blocks=0,
        seed=21,
        target_blocks=6,
        timeout_base=0.2,
        local_latency_s=0.002,
        max_sim_time=4.0,
        shards=2,
        cross_shard_permille=150,
        offered_tps=1500.0,
        shard_slots=16,
        coordinator_delay=DegradeSpec(start=0.5, end=1.5, extra_s=0.05),
    )
    result = run_scenario(scenario)
    assert result.ok, result.describe()
    assert isinstance(result.fingerprint, ShardFingerprint)
    assert result.report.blocks_decided >= scenario.target_blocks
    # Coordinator-targeted delay is part of the scenario, so it must be
    # replay-stable too.
    assert (
        run_scenario(scenario).fingerprint.digest()
        == result.fingerprint.digest()
    )
