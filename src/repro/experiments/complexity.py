"""Message-complexity measurement (E-M).

The paper's introduction claims linear message complexity for the
streamlined protocols (vs quadratic for traditional BFT).  This driver
*measures* messages and bytes per decided block as the cluster grows
and reports the per-node footprint — for a linear protocol, messages
per block divided by n approaches a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..metrics import render_table
from ..protocols.registry import get_protocol
from .config import ExperimentConfig
from .runner import run_experiment


@dataclass(frozen=True)
class ComplexityPoint:
    """One (protocol, f) measurement."""

    protocol: str
    f: int
    n: int
    msgs_per_block: float
    bytes_per_block: float

    @property
    def msgs_per_block_per_node(self) -> float:
        return self.msgs_per_block / self.n


@dataclass
class ComplexityResult:
    points: dict[tuple[str, int], ComplexityPoint] = field(default_factory=dict)

    def series(self, protocol: str) -> list[ComplexityPoint]:
        return sorted(
            (p for p in self.points.values() if p.protocol == protocol),
            key=lambda p: p.f,
        )


def run_complexity(
    protocols: Sequence[str] = ("oneshot", "damysus", "hotstuff"),
    f_values: Sequence[int] = (1, 2, 4, 10),
    target_blocks: int = 10,
    seed: int = 13,
) -> ComplexityResult:
    result = ComplexityResult()
    for protocol in protocols:
        info = get_protocol(protocol)
        for f in f_values:
            cfg = ExperimentConfig(
                protocol=protocol,
                f=f,
                deployment="local",
                local_latency_s=0.002,
                target_blocks=target_blocks,
                seed=seed,
            )
            run = run_experiment(cfg)
            blocks = max(1, len(run.collector.decided_blocks()))
            result.points[(protocol, f)] = ComplexityPoint(
                protocol=protocol,
                f=f,
                n=info.n_for(f),
                msgs_per_block=run.network.messages_sent / blocks,
                bytes_per_block=run.network.bytes_sent / blocks,
            )
    return result


def check_linearity(result: ComplexityResult, slack: float = 1.6) -> list[str]:
    """Messages/block must grow ~linearly in n; returns violations.

    For each protocol, compares the growth of messages per block with
    the growth of n between the smallest and largest cluster: a linear
    protocol keeps the ratio-of-ratios near 1 (quadratic would track
    (n_hi / n_lo)).
    """
    problems = []
    for protocol in {p.protocol for p in result.points.values()}:
        series = result.series(protocol)
        if len(series) < 2:
            continue
        lo, hi = series[0], series[-1]
        growth = (hi.msgs_per_block / lo.msgs_per_block) / (hi.n / lo.n)
        if growth > slack:
            problems.append(
                f"{protocol}: msgs/block grew {growth:.2f}x faster than n"
            )
    return problems


#: Communication steps per view: a linear protocol's per-node message
#: count per block.
STEPS_PER_VIEW = {"oneshot": 4, "damysus": 6, "hotstuff": 8}


def check_complexity(result: ComplexityResult) -> list[str]:
    """:func:`check_linearity`, plus per-node messages per block within
    0.5 of each protocol's step count; returns violations."""
    problems = check_linearity(result)
    for point in result.points.values():
        steps = STEPS_PER_VIEW.get(point.protocol)
        if steps is not None and abs(point.msgs_per_block_per_node - steps) >= 0.5:
            problems.append(
                f"{point.protocol} f={point.f}: "
                f"{point.msgs_per_block_per_node:.2f} msgs/block/node, not ~{steps}"
            )
    return problems


def render_complexity(result: ComplexityResult) -> str:
    protocols = sorted({p.protocol for p in result.points.values()})
    rows, cells = [], []
    for protocol in protocols:
        for point in result.series(protocol):
            rows.append(f"{protocol} f={point.f} (n={point.n})")
            cells.append(
                [
                    f"{point.msgs_per_block:,.0f}",
                    f"{point.msgs_per_block_per_node:.1f}",
                    f"{point.bytes_per_block / 1024:,.0f} KB",
                ]
            )
    return render_table(
        "Message complexity per decided block (linear: msgs/block/node ~ const)",
        rows,
        ["msgs/block", "msgs/block/node", "bytes/block"],
        cells,
    )


__all__ = [
    "ComplexityPoint",
    "ComplexityResult",
    "run_complexity",
    "check_linearity",
    "STEPS_PER_VIEW",
    "check_complexity",
    "render_complexity",
]
