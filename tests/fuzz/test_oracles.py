"""Oracle positive tests: each oracle must *fail* when it should.

An oracle that never fires is indistinguishable from no oracle, so
both are driven to a failing verdict here: the safety oracle by a
genuine fork (equivocating leader under the planted CHECKER-guard
bug), the liveness oracle by a cluster that cannot form a quorum.
"""

import pytest

from repro.fuzz import (
    CRASH,
    LIVENESS,
    SAFETY,
    FuzzConfig,
    OracleReport,
    generate_scenario,
    run_scenario,
)
from repro.faults import Fault

from ..conftest import small_run
from .planted import broken_checker_guard

#: OneShot-only equivocation pressure; seed 24 is a known fork under
#: the planted bug (see test_planted_bug.py for the full loop).
PLANTED_CFG = FuzzConfig(protocols=("oneshot",), behaviours=("equivocate",), max_f=2)


def test_safety_oracle_fails_on_fork():
    scenario = generate_scenario(24, PLANTED_CFG)
    with broken_checker_guard():
        result = run_scenario(scenario)
    assert result.failure == SAFETY
    assert not result.report.safety_ok
    assert result.report.safety_problems
    assert "SAFETY" in result.report.describe()


def test_liveness_oracle_fails_on_stall():
    # OneShot f=1 (n=3) with two replicas crashed for the whole run:
    # the survivor can never assemble a quorum, so the reference chain
    # stalls and the liveness oracle must flag it.
    scenario = small_run(
        "oneshot",
        f=1,
        seed=5,
        target_blocks=4,
        max_sim_time=10.0,
        reference_pid=0,
        faults=(
            Fault(pid=1, behaviour="crashed", start=0.0, end=100.0),
            Fault(pid=2, behaviour="crashed", start=0.0, end=100.0),
        ),
    )
    result = run_scenario(scenario)
    assert result.failure == LIVENESS
    assert result.report.safety_ok
    assert result.report.blocks_decided < scenario.target_blocks
    assert "LIVENESS" in result.report.describe()


def test_oracles_pass_on_clean_run():
    result = run_scenario(generate_scenario(203))
    assert result.ok
    assert result.failure is None
    assert result.report.describe().startswith("ok")


@pytest.mark.parametrize(
    "problems,crashed,decided,expected",
    [
        ((), None, 6, None),
        (("fork",), None, 6, SAFETY),
        (("fork",), "ValueError: boom", 0, SAFETY),  # safety outranks crash
        ((), "ValueError: boom", 0, CRASH),  # crash outranks liveness
        ((), None, 3, LIVENESS),
    ],
)
def test_failure_ranking(problems, crashed, decided, expected):
    report = OracleReport(
        safety_problems=problems,
        blocks_decided=decided,
        target_blocks=6,
        crashed=crashed,
    )
    assert report.failure == expected
