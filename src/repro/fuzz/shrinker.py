"""Deterministic counterexample shrinking.

Given a failing scenario, greedily apply simplification passes and
keep any candidate that still fails *with the same failure kind*
(safety stays safety — a shrink that turns a fork into a stall has
thrown away the interesting bug).  Passes, in order:

1. drop each fault (one at a time);
2. drop the adaptive adversary, each partition, each degrade window;
3. halve each fault window (keep the opening half — misbehaviour
   usually bites when it starts);
4. reduce the block target;
5. reduce ``f`` (smaller cluster), keeping only faults and partitions
   whose pids still exist.

The pass list repeats until a full sweep changes nothing or the run
budget is exhausted.  Everything is deterministic: candidate order is
fixed and each candidate's run is a seeded simulation, so the same
failing input always shrinks to the same minimized repro.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..experiments.config import ExperimentConfig
from ..protocols.registry import get_protocol
from .harness import FuzzResult, run_scenario


@dataclass
class ShrinkOutcome:
    """The minimized scenario plus bookkeeping."""

    config: ExperimentConfig
    result: FuzzResult
    runs: int
    improved: bool


def _candidates(s: ExperimentConfig) -> Iterator[ExperimentConfig]:
    # 1. Drop one fault at a time.
    for i in range(len(s.faults)):
        yield replace(s, faults=s.faults[:i] + s.faults[i + 1 :])
    # 2. Drop conditions.
    if s.adaptive is not None:
        yield replace(s, adaptive=None)
    for i in range(len(s.isolates)):
        yield replace(s, isolates=s.isolates[:i] + s.isolates[i + 1 :])
    for i in range(len(s.degrades)):
        yield replace(s, degrades=s.degrades[:i] + s.degrades[i + 1 :])
    # 3. Narrow fault windows (opening half).
    for i, f in enumerate(s.faults):
        width = f.end - f.start
        if width > 0.2:
            narrowed = replace(f, end=round(f.start + width / 2, 4))
            yield replace(s, faults=s.faults[:i] + (narrowed,) + s.faults[i + 1 :])
    # 4. Fewer blocks to wait for.
    if s.target_blocks > 2:
        yield replace(s, target_blocks=max(2, s.target_blocks // 2))
    # 5. Smaller cluster.
    if s.f > 1:
        new_f = s.f - 1
        new_n = get_protocol(s.protocol).n_for(new_f)
        faults = tuple(f for f in s.faults if f.pid < new_n)
        isolates = tuple(i for i in s.isolates if i.node < new_n)
        if len(faults) <= new_f and s.reference_pid < new_n:
            faulty = {f.pid for f in faults}
            if s.reference_pid not in faulty:
                yield replace(s, f=new_f, faults=faults, isolates=isolates)


def _weight(s: ExperimentConfig) -> tuple:
    """Lexicographic size of a scenario (smaller is simpler)."""
    return (
        len(s.faults),
        s.f,
        len(s.isolates) + len(s.degrades) + (s.adaptive is not None),
        s.target_blocks,
        sum(f.end - f.start for f in s.faults),
    )


def shrink(
    config: ExperimentConfig,
    failing: Optional[FuzzResult] = None,
    max_runs: int = 200,
) -> ShrinkOutcome:
    """Minimize a failing scenario; raises if it does not fail at all."""
    best_result = failing if failing is not None else run_scenario(config)
    kind = best_result.failure
    if kind is None:
        raise ValueError("cannot shrink a passing scenario")
    best = config
    runs = 0
    improved = True
    any_progress = False
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(best):
            if runs >= max_runs:
                break
            if _weight(candidate) >= _weight(best):
                continue
            runs += 1
            result = run_scenario(candidate)
            if result.failure == kind:
                best, best_result = candidate, result
                improved = True
                any_progress = True
                break  # restart passes from the simpler scenario
    return ShrinkOutcome(
        config=best, result=best_result, runs=runs, improved=any_progress
    )


__all__ = ["ShrinkOutcome", "shrink"]
