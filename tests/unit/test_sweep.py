"""Process-pool executor: deterministic merge, pickling by reference.

The acceptance bar for ``repro.experiments.sweep`` is byte-identity:
running tasks on a multiprocessing pool must produce exactly the same
merged output as running them sequentially, because results are joined
in task-key order, never completion order.
"""

import pickle

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.paper import sections
from repro.experiments.sweep import resolve_workers, run_sweep

pytestmark = pytest.mark.sweep


def _stats(protocol: str, f: int):
    cfg = ExperimentConfig(
        protocol=protocol, f=f, deployment="local", target_blocks=6, seed=7
    )
    return run_experiment(cfg).stats


def _tasks():
    """A grid small enough for CI but wide enough to interleave
    completion order across workers; built f-major, so task order is
    not key order."""
    return [
        ((protocol, f), _stats, {"protocol": protocol, "f": f})
        for f in (1, 2)
        for protocol in ("oneshot", "damysus", "hotstuff")
    ]


def test_parallel_sweep_byte_identical_to_sequential():
    seq = run_sweep(_tasks(), workers=1)
    par = run_sweep(_tasks(), workers=2)
    assert repr(seq) == repr(par)


def test_outcomes_sorted_by_key_not_completion():
    tasks = _tasks()
    assert [key for key, _, _ in tasks] != sorted(key for key, _, _ in tasks)
    keys = [key for key, _ in run_sweep(tasks, workers=1)]
    assert keys == sorted(keys)


def test_duplicate_keys_rejected():
    t = (("x",), _stats, {})
    with pytest.raises(ValueError, match="duplicate sweep keys"):
        run_sweep([t, t])


def test_unpicklable_task_rejected():
    # A lambda cannot cross the pipe; workers=1 refuses it as a pool would.
    with pytest.raises((pickle.PicklingError, AttributeError)):
        run_sweep([(("x",), lambda: 1, {})], workers=1)


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) >= 1  # auto: one per CPU


def test_tasks_are_picklable():
    # Top-level functions pickle by reference: no name registry needed.
    for name, (fn, kwargs) in sections().items():
        assert pickle.loads(pickle.dumps((fn, kwargs))) == (fn, kwargs), name
