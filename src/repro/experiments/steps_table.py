"""Sec. V table — blocks decided and communication steps per execution
type (E1), plus the Fig. 2/3/4 message-flow traces (E9).

The step counts are *measured* from the network's message log, not
assumed: each distinct protocol message type per view is one
communication step (a "wave").  The paper counts, per execution:

=============  =======  ============
execution      #blocks  #total steps
=============  =======  ============
normal         1        4
catch-up       2        8
piggyback      2        6
=============  =======  ============

counted from the instant the first involved block is proposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults import forced_execution_factory
from ..metrics import CATCHUP, NORMAL, PIGGYBACK, render_table
from ..metrics.timeline import classify_oneshot
from .config import ExperimentConfig
from .runner import run_experiment

#: The paper's expected values: kind -> (#blocks, #steps).
PAPER_STEPS: dict[str, tuple[int, int]] = {
    NORMAL: (1, 4),
    PIGGYBACK: (2, 6),
    CATCHUP: (2, 8),
}

#: View the forcers sabotage (leaving warm-up views untouched).
_FORCED_VIEW = 2


#: Wave classification shared with :mod:`repro.metrics.timeline`.
_step_key = classify_oneshot


@dataclass(frozen=True)
class StepsRow:
    """Measured row of the Sec. V table."""

    kind: str
    blocks: int
    steps: int
    waves: tuple[tuple[str, int], ...]  # the actual (step, view) waves

    @property
    def matches_paper(self) -> bool:
        return PAPER_STEPS[self.kind] == (self.blocks, self.steps)


def measure_execution(kind: str, seed: int = 11) -> StepsRow:
    """Run a 5-node cluster forcing ``kind`` and measure its steps."""
    factory = None
    if kind == PIGGYBACK:
        factory = forced_execution_factory(
            "piggyback", lambda v: v == _FORCED_VIEW
        )
    elif kind == CATCHUP:
        factory = forced_execution_factory(
            "catchup", lambda v: v == _FORCED_VIEW
        )
    elif kind != NORMAL:
        raise ValueError(f"unknown execution kind {kind!r}")

    cfg = ExperimentConfig(
        protocol="oneshot",
        f=2,
        deployment="local",
        local_latency_s=0.005,
        target_blocks=8,
        timeout_base=0.25,
        seed=seed,
        warmup_blocks=0,
    )
    result = run_experiment(cfg, replica_factory=factory, enable_message_log=True)
    log = result.network.message_log or []

    if kind == NORMAL:
        window = (_FORCED_VIEW, _FORCED_VIEW)
        blocks = 1
    else:
        # Failed view and the decisive view that follows it.
        window = (_FORCED_VIEW, _FORCED_VIEW + 1)
        blocks = 2

    waves: set[tuple[str, int]] = set()
    for env in log:
        key = _step_key(env.payload)
        if key is None:
            continue
        step, view = key
        if not (window[0] <= view <= window[1]):
            continue
        # Counting starts when the first involved block is proposed
        # (Sec. V): in two-view windows the failed view's new-view wave
        # precedes that proposal and is excluded, while the decisive
        # view's new-view wave is counted (Figs. 2-4).
        if step == "new-view" and view == window[0] and window[0] != window[1]:
            continue
        waves.add(key)

    kinds = result.collector.execution_kinds()
    measured_kind = kinds.get(
        _FORCED_VIEW + (0 if kind == NORMAL else 1), NORMAL
    )
    if measured_kind != kind:
        raise RuntimeError(
            f"forcing failed: wanted {kind}, decisive view ran {measured_kind}"
        )
    return StepsRow(
        kind=kind,
        blocks=blocks,
        steps=len(waves),
        waves=tuple(sorted(waves, key=lambda kv: (kv[1], kv[0]))),
    )


def steps_table(seed: int = 11) -> list[StepsRow]:
    return [measure_execution(k, seed) for k in (NORMAL, CATCHUP, PIGGYBACK)]


def check_steps(rows: list[StepsRow]) -> list[str]:
    """Every measured row equals the paper's; returns violations."""
    return [
        f"{r.kind}: {r.blocks} blocks / {r.steps} steps, paper "
        f"{PAPER_STEPS[r.kind][0]} / {PAPER_STEPS[r.kind][1]}"
        for r in rows
        if not r.matches_paper
    ]


def render_steps_table(rows: list[StepsRow]) -> str:
    cells = []
    for row in rows:
        pb, ps = PAPER_STEPS[row.kind]
        cells.append(
            [
                str(row.blocks),
                str(row.steps),
                f"{pb}",
                f"{ps}",
                "yes" if row.matches_paper else "NO",
            ]
        )
    return render_table(
        "Sec. V execution-type table (measured vs paper)",
        [r.kind for r in rows],
        ["#blocks", "#steps", "paper #blocks", "paper #steps", "match"],
        cells,
    )


__all__ = [
    "PAPER_STEPS",
    "StepsRow",
    "measure_execution",
    "steps_table",
    "check_steps",
    "render_steps_table",
]
