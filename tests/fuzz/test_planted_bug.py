"""End-to-end calibration: the fuzzer must catch the planted CHECKER
bug, shrink it, and replay it deterministically (ISSUE-9 acceptance).

With :func:`tests.fuzz.planted.broken_checker_guard` active, the
once-per-view monotonicity guard is gone and the Equivocator's
split-brain attack forks OneShot.  The loop below is the whole fuzzer
pipeline on that target: find a safety violation, shrink it to a
minimized counterexample (≤ 3 faults), serialize it, replay it
byte-identically — twice.
"""

import pytest

from repro.fuzz import (
    SAFETY,
    FuzzConfig,
    generate_scenario,
    load_repro,
    replay_repro,
    run_scenario,
    save_repro,
    shrink,
)

from .planted import broken_checker_guard

CFG = FuzzConfig(protocols=("oneshot",), behaviours=("equivocate",), max_f=2)


def _find_safety_seed(max_seeds=40):
    for seed in range(max_seeds):
        result = run_scenario(generate_scenario(seed, CFG))
        if result.failure == SAFETY:
            return result
    pytest.fail(f"no safety violation in {max_seeds} seeds under planted bug")


def test_planted_bug_found_shrunk_and_replayed(tmp_path):
    with broken_checker_guard():
        found = _find_safety_seed()
        outcome = shrink(found.config, failing=found)

        minimized = outcome.config
        assert outcome.result.failure == SAFETY
        # Acceptance bar: a minimized repro with at most 3 faults.
        assert len(minimized.faults) <= 3
        # Equivocation is the planted fork's trigger; nothing else
        # should survive minimization as load-bearing.
        assert all(f.behaviour == "equivocate" for f in minimized.faults)

        path = save_repro(
            tmp_path / "planted.json", outcome.result, note="planted-bug test"
        )
        # Byte-identical replay, twice: failure kind and digest match
        # the recorded expectation on every re-run.
        first = replay_repro(path)
        second = replay_repro(path)
    assert first.failure == SAFETY and second.failure == SAFETY
    assert first.report == second.report
    repro = load_repro(path)
    assert repro.expect_failure == SAFETY

    # Outside the guard the same minimized scenario is clean: the
    # actual CHECKER blocks the attack, so the finding is the planted
    # bug and not fuzzer noise.
    clean = run_scenario(minimized)
    assert clean.ok, clean.report.describe()


def test_planted_bug_does_not_perturb_clean_runs():
    # The patch is fallback-only: runs that never attempt a
    # double-prepare are bit-identical with and without it.
    scenario = generate_scenario(203)
    assert not scenario.faults
    plain = run_scenario(scenario)
    with broken_checker_guard():
        patched = run_scenario(scenario)
    assert plain.fingerprint.digest() == patched.fingerprint.digest()
    assert plain.fingerprint.events == patched.fingerprint.events
