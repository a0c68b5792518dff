"""Fresh-seed smoke sweep and the harness/runner differential check."""

import pytest

from repro.experiments import fingerprint, run_experiment
from repro.fuzz import generate_scenario, run_scenario

#: The CI smoke budget: N fresh seeds from the verified-green range
#: run under both oracles.
SMOKE_SEEDS = range(200, 225)


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_fresh_seed_smoke(seed):
    result = run_scenario(generate_scenario(seed))
    assert result.report.safety_ok, result.report.describe()
    assert result.ok, result.report.describe()
    assert result.fingerprint is not None


def test_replay_is_deterministic():
    a = run_scenario(generate_scenario(200))
    b = run_scenario(generate_scenario(200))
    assert a.fingerprint.digest() == b.fingerprint.digest()
    assert a.fingerprint.events == b.fingerprint.events
    assert a.report == b.report


def test_fault_free_scenario_matches_plain_runner():
    # Differential check: on a fault-free generated scenario the fuzz
    # harness must be a no-op wrapper — bit-identical fingerprint to
    # the plain experiments.runner path with no fuzz code involved.
    config = generate_scenario(203)
    assert not config.faults and not config.degrades
    assert not config.isolates and config.adaptive is None

    fuzzed = run_scenario(config)

    plain = fingerprint(run_experiment(config, enable_message_log=True))
    assert fuzzed.fingerprint.digest() == plain.digest()
    assert fuzzed.fingerprint == plain  # every component and events
