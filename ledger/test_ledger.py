"""Smoke test of the ledger: ``python -m pytest ledger/ -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Runs each
workload once at reduced size through the real command line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_the_declaration(workload):
    done = run("--workload", workload, "--small", "--passes", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    got = json.loads(done.stdout.splitlines()[-1])["workloads"][workload]
    assert set(got["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(got["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert got["failed"] == 0 and got["failed_share"] == 0
    shares = [v for k, v in got["per_layer"].items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_driver_line_has_exactly_the_contract_keys():
    done = run("--workload", "smr-local", "--seed", "3", "--small",
               "--passes", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
