"""Shrinker unit tests against a stubbed harness (fast, exhaustive)
plus the kind-preservation rule."""

import dataclasses

import pytest

import repro.fuzz.shrinker as shrinker_mod
from repro.faults import AdaptiveSpec, Fault
from repro.fuzz import FuzzResult, OracleReport, generate_scenario, shrink
from repro.fuzz.shrinker import _candidates, _weight
from repro.net import DegradeSpec, IsolateSpec

from ..conftest import small_run


def _result(scenario, failure):
    """A synthetic FuzzResult with the requested failure kind."""
    if failure == "safety":
        report = OracleReport(("fork",), 0, scenario.target_blocks)
    elif failure == "liveness":
        report = OracleReport((), 0, scenario.target_blocks)
    else:
        report = OracleReport((), scenario.target_blocks, scenario.target_blocks)
    return FuzzResult(config=scenario, report=report, fingerprint=None)


BUSY = small_run(
    "oneshot",
    f=2,
    seed=1,
    target_blocks=8,
    faults=(
        Fault(pid=1, behaviour="crashed", start=0.0, end=1.0),
        Fault(pid=2, behaviour="garbage", start=0.5, end=2.0),
    ),
    degrades=(DegradeSpec(start=0.0, end=1.0, extra_s=0.01),),
    isolates=(IsolateSpec(node=3, start=0.0, end=1.0),),
    adaptive=AdaptiveSpec(start=0.0, end=1.0),
    max_sim_time=50.0,
)


def _stub(monkeypatch, judge):
    """Replace the real harness with a predicate on scenarios."""
    monkeypatch.setattr(
        shrinker_mod, "run_scenario", lambda s: _result(s, judge(s))
    )


def test_shrink_isolates_the_culprit_fault(monkeypatch):
    # Failure iff the pid-2 garbage fault is present: everything else
    # must be stripped and the window narrowed below the threshold.
    _stub(
        monkeypatch,
        lambda s: (
            "safety"
            if any(f.pid == 2 and f.behaviour == "garbage" for f in s.faults)
            else None
        ),
    )
    outcome = shrink(BUSY)
    s = outcome.config
    assert outcome.improved
    assert [f.pid for f in s.faults] == [2]
    assert not s.degrades and not s.isolates and s.adaptive is None
    assert s.target_blocks == 2
    assert s.faults[0].end - s.faults[0].start <= 0.2 + 1e-9
    assert outcome.result.failure == "safety"


def test_shrink_preserves_failure_kind(monkeypatch):
    # Dropping the crashed fault flips the failure from safety to
    # liveness; the shrinker must refuse that trade and keep it.
    def judge(s):
        has_crash = any(f.behaviour == "crashed" for f in s.faults)
        return "safety" if has_crash else "liveness"

    _stub(monkeypatch, judge)
    outcome = shrink(BUSY)
    assert outcome.result.failure == "safety"
    assert any(f.behaviour == "crashed" for f in outcome.config.faults)


def test_shrink_reduces_cluster_size(monkeypatch):
    # A failure independent of the faults: shrinks to the empty
    # scenario at the smallest cluster.
    _stub(monkeypatch, lambda s: "liveness")
    outcome = shrink(BUSY)
    assert outcome.config.f == 1
    assert outcome.config.faults == ()


def test_smaller_cluster_drops_partitions_of_vanished_pids():
    # n = 5 -> 3: the partition of pid 3 has no replica left to hit.
    one_fault = dataclasses.replace(BUSY, faults=BUSY.faults[:1])
    [smaller] = [c for c in _candidates(one_fault) if c.f == 1]
    assert smaller.faults == one_fault.faults
    assert smaller.isolates == ()


def test_shrink_respects_run_budget(monkeypatch):
    calls = []

    def judge(s):
        calls.append(s)
        return "liveness"

    _stub(monkeypatch, judge)
    outcome = shrink(BUSY, failing=_result(BUSY, "liveness"), max_runs=3)
    assert outcome.runs == 3
    assert len(calls) == 3


def test_shrink_rejects_passing_scenario():
    with pytest.raises(ValueError, match="passing scenario"):
        shrink(generate_scenario(203))


def test_weight_is_lexicographic():
    lighter = BUSY
    assert _weight(small_run()) < _weight(lighter)
    # Dropping a condition strictly lightens.
    assert _weight(dataclasses.replace(BUSY, adaptive=None)) < _weight(BUSY)
    # Narrowing a window lightens without changing fault count.
    narrowed = dataclasses.replace(
        BUSY,
        faults=(
            BUSY.faults[0],
            dataclasses.replace(BUSY.faults[1], end=1.0),
        ),
    )
    assert _weight(narrowed) < _weight(BUSY)
