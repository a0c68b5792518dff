"""Generator determinism, the structural invariants it promises, and
the config codec its scenarios ride through JSON on."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ConfigError, ExperimentConfig, from_dict, to_dict
from repro.fuzz import FuzzConfig, generate_scenario
from repro.fuzz.generator import quiesce_time
from repro.protocols.registry import get_protocol

SEEDS = range(0, 40)


def test_same_seed_same_scenario():
    for seed in (0, 7, 123, 99991):
        assert generate_scenario(seed) == generate_scenario(seed)


def test_seeds_explore_the_space():
    scenarios = [generate_scenario(s) for s in SEEDS]
    assert len(set(scenarios)) == len(scenarios)
    assert {s.protocol for s in scenarios} == {"oneshot", "damysus", "hotstuff"}
    assert any(s.faults for s in scenarios)
    assert any(s.degrades for s in scenarios)
    assert any(s.isolates for s in scenarios)
    assert any(s.adaptive is not None for s in scenarios)
    assert any(s.gst > 0 for s in scenarios)


@pytest.mark.parametrize("seed", SEEDS)
def test_structural_invariants(seed):
    s = generate_scenario(seed)
    n = get_protocol(s.protocol).n_for(s.f)
    faulty = {f.pid for f in s.faults}
    # The run description a fuzz scenario is: local links, no warm-up.
    assert (s.deployment, s.warmup_blocks) == ("local", 0)
    # Resilience bound: at most f Byzantine replicas, unique pids.
    assert len(s.faults) <= s.f
    assert len(faulty) == len(s.faults)
    assert all(0 <= f.pid < n for f in s.faults)
    # The reference replica is correct and never partitioned away.
    assert 0 <= s.reference_pid < n
    assert s.reference_pid not in faulty
    assert all(i.node != s.reference_pid for i in s.isolates)
    # All trouble quiesces with a progress budget to spare.
    assert s.max_sim_time > quiesce_time(s)
    assert all(f.end >= f.start for f in s.faults)


def test_config_restricts_protocols_and_behaviours():
    cfg = FuzzConfig(protocols=("hotstuff",), behaviours=("crashed",), max_f=1)
    for seed in range(20):
        s = generate_scenario(seed, cfg)
        assert s.protocol == "hotstuff"
        assert s.f == 1
        assert all(f.behaviour == "crashed" for f in s.faults)


def test_fuzz_config_rejects_an_empty_space():
    with pytest.raises(ConfigError, match=r"^FuzzConfig\.max_f = 0: "):
        FuzzConfig(max_f=0)
    with pytest.raises(ConfigError, match=r"^FuzzConfig\.protocols = "):
        FuzzConfig(protocols=("nope",))


def _round_trip(config):
    return from_dict(ExperimentConfig, json.loads(json.dumps(to_dict(config))))


@pytest.mark.parametrize("seed", [0, 3, 10, 25])
def test_json_round_trip(seed):
    s = generate_scenario(seed)
    assert _round_trip(s) == s


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_json_round_trip_any_seed(seed):
    s = generate_scenario(seed)
    assert _round_trip(s) == s


def test_from_dict_rejects_unknown_fields():
    d = to_dict(generate_scenario(0))
    d["surprise"] = 1
    with pytest.raises(ValueError, match=r"unknown ExperimentConfig fields: \['surprise'\]"):
        from_dict(ExperimentConfig, d)


def test_from_dict_rejects_unknown_nested_fields():
    d = to_dict(generate_scenario(0))
    d["isolates"] = [{"node": 1, "start": 0.0, "end": 1.0, "extra": 2}]
    with pytest.raises(ValueError, match=r"unknown IsolateSpec fields: \['extra'\]"):
        from_dict(ExperimentConfig, d)
