"""Runtime checks: same-seed replay and the equivocation oracle.

Replay compares two :func:`tests.conftest.fingerprint` runs of one
config; the equivocation oracle is :func:`repro.fuzz.find_equivocations`,
which :func:`repro.fuzz.run_scenario` applies to every run it judges.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments import fingerprint as run_fingerprint
from repro.experiments.fingerprint import _hash_chain
from repro.fuzz import (
    FuzzConfig,
    find_equivocations,
    generate_scenario,
    run_scenario,
)
from repro.metrics import Decision, DecisionsNotKept, MetricsCollector

from ..conftest import UniformLatency, fingerprint, small_run, with_latency
from ..fuzz.planted import broken_checker_guard


H0, H1, H2 = b"\x00" * 32, b"\x01" * 32, b"\x02" * 32


class WallClockLatency:
    """Deliberately nondeterministic: delay depends on the host clock.

    This is the regression class replay exists to catch — a stray
    ``time.time()`` leaking wall-clock state into the simulation.
    """

    def __init__(self, base_s: float = 0.002) -> None:
        self.base_s = base_s

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.base_s + (time.time_ns() % 997) * 1e-9

    def sample_many(self, src: int, dsts, rng: np.random.Generator) -> list[float]:
        return [self.sample(src, dst, rng) for dst in dsts]


# -- determinism replay ------------------------------------------------
def test_same_seed_runs_are_identical():
    config = small_run("oneshot", seed=11, target_blocks=3)
    fp, _ = fingerprint(config)
    assert fingerprint(config)[0] == fp
    assert fp["decisions"] > 0 and fp["timeline_hash"]


def test_fingerprint_changes_with_seed():
    # Jittered latency actually consumes the seeded RNG, so different
    # root seeds must yield different timelines.
    fp_a, _ = fingerprint(
        small_run("oneshot", seed=1, target_blocks=3),
        instrument=with_latency(UniformLatency(0.001, 0.003)),
    )
    fp_b, _ = fingerprint(
        small_run("oneshot", seed=2, target_blocks=3),
        instrument=with_latency(UniformLatency(0.001, 0.003)),
    )
    assert fp_a.digest() != fp_b.digest()


def test_detects_injected_wall_clock_regression():
    """A deliberately injected time.time() dependency makes two
    same-seed runs differ in their message timeline."""
    config = small_run("oneshot", seed=7, target_blocks=3)
    first, second = (
        fingerprint(config, instrument=with_latency(WallClockLatency()))[0]
        for _ in range(2)
    )
    assert first["timeline_hash"] != second["timeline_hash"]


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
    assert run_scenario(small_run(target_blocks=3)).failure is None


def test_detects_conflicting_blocks_in_one_view():
    c = MetricsCollector()
    _decide(c, 0, 1, H1, 0.1)
    _decide(c, 1, 1, H2, 0.1)  # same view, different block
    problems = find_equivocations(c)
    assert any("view 1" in p and "conflicting" in p for p in problems)
    # A real fork (the planted CHECKER bug, a known forking seed) is a
    # safety failure although the fork then crashes a correct replica.
    forking = generate_scenario(
        24, FuzzConfig(protocols=("oneshot",), behaviours=("equivocate",))
    )
    with broken_checker_guard():
        result = run_scenario(forking)
    assert result.failure == "safety" and result.report.crashed
    assert any("conflicting" in p for p in result.report.safety_problems)


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
        _hash_chain([MetricsCollector(keep_decisions=False)])


def test_fingerprint_refuses_a_run_without_decisions():
    """A run that kept no decision records has no chain to hash: its
    fingerprint names no ``chain_hash`` or ``decisions``, and reading
    either by name raises instead of reporting an empty chain."""
    cfg = ExperimentConfig(
        protocol="oneshot", f=1, deployment="local", target_blocks=3, seed=5,
        streaming_metrics=True,
    )
    fp = run_fingerprint(run_experiment(cfg, enable_message_log=True))
    assert fp["timeline_hash"] and fp["log_digest[0]"]
    for name in ("chain_hash", "decisions"):
        assert name not in fp.components
        with pytest.raises(KeyError, match=name):
            fp[name]


# -- replay and the safety oracle on each protocol ---------------------
@pytest.mark.parametrize("protocol", ["oneshot", "damysus", "hotstuff"])
def test_replay_and_check_protocols(protocol):
    config = small_run(protocol, seed=5, target_blocks=3)
    result = run_scenario(config)
    assert result.failure is None
    assert fingerprint(config)[0] == result.fingerprint
    assert result.fingerprint["decisions"] >= 3


def test_runs_do_not_import_the_fuzzer():
    """The experiment drivers, the sharded layer and the workload load
    no part of the fuzzer: a run's adversary lives in its config."""
    code = (
        "import sys, repro.experiments, repro.shard, repro.workload; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.fuzz')))"
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
