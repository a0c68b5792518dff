"""Process-pool executor for independent simulations.

Every experiment builds its own :class:`~repro.sim.simulator.Simulator`
from its own root seed, so independent ones can run on separate OS
processes with no shared state.  A task is ``(key, function, kwargs)``:
``function`` is a top-level function, so it pickles by reference and
runs as ``function(**kwargs)`` in a worker.  :func:`run_sweep` merges
results **ordered by task key, never by completion order**, so its
output is the same for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable, Iterable

#: ``(key, function, kwargs)``; keys are unique and sortable.
SweepTask = tuple[tuple, Callable[..., Any], dict[str, Any]]


def resolve_workers(workers: int) -> int:
    """Normalize a worker-count request (``0`` = one per CPU)."""
    if workers <= 0:
        return max(1, os.cpu_count() or 1)
    return workers


def _call(task: SweepTask) -> tuple[tuple, Any]:
    key, fn, kwargs = task
    return key, fn(**kwargs)


def run_sweep(tasks: Iterable[SweepTask], workers: int = 1) -> list[tuple[tuple, Any]]:
    """Execute ``tasks`` and return ``(key, result)`` pairs sorted by key.

    With ``workers > 1`` the tasks fan out over a ``multiprocessing``
    pool.  Duplicate keys are rejected (they would make the merge
    ambiguous), and so is a task that cannot cross the process pipe,
    whatever the worker count, so ``workers=1`` accepts exactly what a
    pool accepts.
    """
    task_list = list(tasks)
    keys = [key for key, _, _ in task_list]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate sweep keys: {dupes}")
    pickle.dumps(task_list)
    workers = resolve_workers(workers)
    if workers <= 1 or len(task_list) <= 1:
        outcomes = [_call(t) for t in task_list]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=min(workers, len(task_list))) as pool:
            outcomes = pool.map(_call, task_list, chunksize=1)
    return sorted(outcomes, key=lambda o: o[0])


__all__ = ["SweepTask", "resolve_workers", "run_sweep"]
