"""Runtime determinism sanitizer and equivocation oracle."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import (
    DeterminismViolation,
    EquivocationDetected,
    assert_no_equivocation,
    check_determinism,
    fingerprint_run,
    replay_and_check,
)
from repro.experiments import ExperimentConfig, run_experiment
from repro.fuzz import find_equivocations, fingerprint_of
from repro.fuzz.fingerprint import _hash_chain
from repro.metrics import Decision, DecisionsNotKept, MetricsCollector


H0, H1, H2 = b"\x00" * 32, b"\x01" * 32, b"\x02" * 32


class WallClockLatency:
    """Deliberately nondeterministic: delay depends on the host clock.

    This is the regression class the sanitizer exists to catch — a
    stray ``time.time()`` leaking wall-clock state into the simulation.
    """

    def __init__(self, base_s: float = 0.002) -> None:
        self.base_s = base_s

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        if src == dst:
            return 1e-6
        return self.base_s + (time.time_ns() % 997) * 1e-9


# -- determinism replay ------------------------------------------------
def test_same_seed_runs_are_identical():
    fp = check_determinism(protocol="oneshot", seed=11, target_blocks=3)
    assert fp.decisions > 0 and fp.timeline_hash


def test_fingerprint_changes_with_seed():
    # Jittered latency actually consumes the seeded RNG, so different
    # root seeds must yield different timelines.
    from repro.net import UniformLatency

    fp_a, _ = fingerprint_run(
        protocol="oneshot", seed=1, target_blocks=3, latency=UniformLatency(0.001, 0.003)
    )
    fp_b, _ = fingerprint_run(
        protocol="oneshot", seed=2, target_blocks=3, latency=UniformLatency(0.001, 0.003)
    )
    assert fp_a.digest() != fp_b.digest()


def test_detects_injected_wall_clock_regression():
    """Acceptance gate: a deliberately injected time.time() dependency
    must trip the sanitizer."""
    with pytest.raises(DeterminismViolation, match="diverged"):
        check_determinism(
            protocol="oneshot",
            seed=7,
            target_blocks=3,
            latency_factory=WallClockLatency,
        )


def test_check_determinism_needs_two_runs():
    with pytest.raises(ValueError):
        check_determinism(runs=1)


# -- equivocation oracle ----------------------------------------------
def _decide(c: MetricsCollector, replica, view, h, t):
    c.decisions.append(
        Decision(replica=replica, view=view, block_hash=h, ntxs=1, time=t, kind="fast")
    )


def test_clean_run_has_no_equivocations():
    c = MetricsCollector()
    for r in range(3):
        _decide(c, r, 1, H1, 0.1 + r * 0.01)
        _decide(c, r, 2, H2, 0.2 + r * 0.01)
    assert find_equivocations(c) == []
    assert_no_equivocation(c)


def test_detects_conflicting_blocks_in_one_view():
    c = MetricsCollector()
    _decide(c, 0, 1, H1, 0.1)
    _decide(c, 1, 1, H2, 0.1)  # same view, different block
    problems = find_equivocations(c)
    assert any("view 1" in p and "conflicting" in p for p in problems)
    with pytest.raises(EquivocationDetected):
        assert_no_equivocation(c)


def test_detects_chain_prefix_divergence():
    c = MetricsCollector()
    _decide(c, 0, 1, H1, 0.1)
    _decide(c, 0, 2, H2, 0.2)
    _decide(c, 1, 1, H1, 0.1)
    _decide(c, 1, 3, H0, 0.3)  # different block at height 1
    problems = find_equivocations(c)
    assert any("diverge at height 1" in p for p in problems)


def test_lagging_replica_prefix_is_fine():
    # A replica that decided fewer blocks is not an equivocation.
    c = MetricsCollector()
    _decide(c, 0, 1, H1, 0.1)
    _decide(c, 0, 2, H2, 0.2)
    _decide(c, 1, 1, H1, 0.1)
    assert find_equivocations(c) == []


# -- no verdict from a collector without decision records --------------
def test_equivocation_oracle_refuses_a_collector_without_decisions():
    with pytest.raises(DecisionsNotKept, match="keep_decisions"):
        find_equivocations(MetricsCollector(keep_decisions=False))


def test_chain_hash_refuses_a_collector_without_decisions():
    with pytest.raises(DecisionsNotKept, match="keep_decisions"):
        _hash_chain(MetricsCollector(keep_decisions=False))


def test_fingerprint_refuses_a_run_without_decisions():
    cfg = ExperimentConfig(
        protocol="oneshot", f=1, deployment="local", target_blocks=3, seed=5,
        streaming_metrics=True,
    )
    run = run_experiment(cfg, enable_message_log=True)
    with pytest.raises(DecisionsNotKept, match="keep_decisions"):
        fingerprint_of(cfg.protocol, cfg.seed, run.sim, run.network, run.collector)


# -- combined gate -----------------------------------------------------
@pytest.mark.parametrize("protocol", ["oneshot", "damysus", "hotstuff"])
def test_replay_and_check_protocols(protocol):
    fp = replay_and_check(protocol=protocol, seed=5, target_blocks=3)
    assert fp.decisions >= 3


def test_runtime_does_not_import_the_lint_engine():
    """The fuzzer and the experiment runners load no callgraph,
    dataflow or rule: only this module's gates need them."""
    code = (
        "import sys, repro.fuzz, repro.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
