"""``oneshot-repro paper`` — the paper's evidence in one command.

One table of sections, in print order.  Each section is a top-level
function that calls one experiment driver with a fixed config and seed
and returns ``(rendered tables, violations)``; the violations come from
the ``check_*`` beside that driver.  :func:`run_paper` runs the
sections on :func:`~repro.experiments.sweep.run_sweep`, so only
strings and each section's wall time cross the process pipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .ablation import check_ablations, render_ablations, run_all_ablations
from .complexity import check_complexity, render_complexity, run_complexity
from .degraded import check_shape as check_degraded
from .degraded import render_degraded, run_degraded
from .fig7 import (
    CHAINED_FAMILY,
    check_chained,
    check_shape,
    render_chained,
    render_fig7,
    run_fig7,
)
from .gains import compute_gains, render_gains
from .parallel import check_parallel, render_parallel, run_parallel_scaling
from .steps_table import check_steps, render_steps_table, steps_table
from .sweep import run_sweep

#: Default Fig. 7 fault thresholds (the paper's are ``PAPER_F_VALUES``).
REDUCED_F: tuple[int, ...] = (1, 2, 4)
#: Decided blocks per Fig. 7 point.
FIG7_BLOCKS = 12

#: What a section returns: its rendered tables and its violations.
Section = tuple[str, list[str]]


def _steps() -> Section:
    rows = steps_table()
    return render_steps_table(rows), check_steps(rows)


def _fig7(deployment: str, f_values: Sequence[int]) -> Section:
    panel = run_fig7(deployment, f_values=f_values, target_blocks=FIG7_BLOCKS)
    text = render_fig7(panel) + "\n\n" + render_gains(compute_gains(panel))
    return text, check_shape(panel)


def _degraded() -> Section:
    result = run_degraded(target_blocks=30)
    # The milder abnormal execution alone, on its own seed.
    piggyback = run_degraded(target_blocks=24, modes=("piggyback",), seed=19)
    problems = check_degraded(result) + [
        f"piggyback-only run: {p}" for p in check_degraded(piggyback)
    ]
    return render_degraded(result), problems


def _ablations() -> Section:
    results = run_all_ablations(target_blocks=24)
    return render_ablations(results), check_ablations(results)


def _chained() -> Section:
    panel = run_fig7(
        "eu",
        f_values=(2,),
        payloads=(0,),
        protocols=CHAINED_FAMILY,
        target_blocks=2 * FIG7_BLOCKS,
    )
    return render_chained(panel), check_chained(panel)


def _complexity() -> Section:
    result = run_complexity(f_values=(1, 2, 4, 10))
    return render_complexity(result), check_complexity(result)


def _parallel() -> Section:
    scaling = run_parallel_scaling(ks=(1, 2, 4, 8), sim_time=2.0)
    return render_parallel(scaling), check_parallel(scaling)


def sections(
    f_values: Sequence[int] = REDUCED_F,
) -> dict[str, tuple[Callable[..., Section], dict[str, Any]]]:
    """The paper in print order: name -> (section, its kwargs)."""
    f = tuple(f_values)
    return {
        "steps": (_steps, {}),
        "fig7-eu": (_fig7, {"deployment": "eu", "f_values": f}),
        "fig7-us": (_fig7, {"deployment": "us", "f_values": f}),
        "fig7-world": (_fig7, {"deployment": "world", "f_values": f}),
        "degraded": (_degraded, {}),
        "ablations": (_ablations, {}),
        "chained": (_chained, {}),
        "complexity": (_complexity, {}),
        "parallel": (_parallel, {}),
    }


@dataclass(frozen=True)
class SectionResult:
    name: str
    text: str
    violations: list[str]
    #: Wall-clock seconds the section took in its worker.
    seconds: float


def _wall_clock() -> float:
    # The harness's own cost, read only around whole simulations: it
    # never reaches simulated state.
    return time.perf_counter()  # repro: lint-ignore[determinism]


def _timed(
    fn: Callable[..., Section], kwargs: dict[str, Any]
) -> tuple[str, list[str], float]:
    start = _wall_clock()
    text, violations = fn(**kwargs)
    return text, violations, _wall_clock() - start


def run_paper(
    f_values: Sequence[int] = REDUCED_F, workers: int = 1
) -> tuple[list[SectionResult], float]:
    """Run every section; returns the results in print order and the
    total wall-clock seconds."""
    start = _wall_clock()
    table = sections(f_values)
    tasks = [
        ((i,), _timed, {"fn": fn, "kwargs": kwargs})
        for i, (fn, kwargs) in enumerate(table.values())
    ]
    outcomes = run_sweep(tasks, workers=workers)
    results = [SectionResult(name, *out) for name, (_, out) in zip(table, outcomes)]
    return results, _wall_clock() - start


def render_report(results: Sequence[SectionResult]) -> str:
    """Every section's tables, then its checks (no timings, so the
    report is the same for any worker count)."""
    parts = [f"=== {r.name} ===\n\n{r.text}" for r in results]
    checks = ["=== checks ==="]
    for r in results:
        n = len(r.violations)
        checks.append(f"{r.name}: {f'{n} violation(s)' if n else 'ok'}")
        checks.extend(f"  VIOLATION {v}" for v in r.violations)
    return "\n\n".join(parts + ["\n".join(checks)])


def render_timing(results: Sequence[SectionResult], total_s: float) -> str:
    lines = ["=== wall time (s) ==="]
    lines.extend(f"{r.name:<12}{r.seconds:8.2f}" for r in results)
    lines.append(f"{'total':<12}{total_s:8.2f}")
    return "\n".join(lines)


__all__ = [
    "REDUCED_F",
    "SectionResult",
    "sections",
    "run_paper",
    "render_report",
    "render_timing",
]
