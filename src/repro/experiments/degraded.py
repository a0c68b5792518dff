"""Sec. VIII-d — unstable and degraded network conditions (E8).

Local deployment (constant 10 ms latency), 256 B payloads, with
catch-up or piggyback executions artificially forced in 25 %, 33 % or
50 % of views.  The paper's finding: only 50 %-forced *catch-up*
(OneShot's worst case) drags OneShot's throughput down to Damysus's
level, while it stays above HotStuff's in every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..faults import every_kth_view, forced_execution_factory
from ..metrics import RunStats, render_table
from .config import ExperimentConfig
from .runner import run_experiment

#: Forced fractions studied by the paper: fraction -> every k-th view.
FRACTIONS: dict[str, int] = {"0%": 0, "25%": 4, "33%": 3, "50%": 2}


@dataclass
class DegradedResult:
    """Throughputs under forced abnormal executions."""

    f: int
    payload_bytes: int
    #: baseline protocol -> stats (unforced).
    baselines: dict[str, RunStats] = field(default_factory=dict)
    #: (mode, fraction-label) -> OneShot stats.
    forced: dict[tuple[str, str], RunStats] = field(default_factory=dict)
    #: (mode, fraction-label) -> observed abnormal-view fraction.
    observed_fraction: dict[tuple[str, str], float] = field(default_factory=dict)


def run_degraded(
    f: int = 2,
    payload_bytes: int = 256,
    latency_s: float = 0.010,
    target_blocks: int = 40,
    timeout_base: float = 0.06,
    seed: int = 17,
    modes: tuple[str, ...] = ("catchup", "piggyback"),
) -> DegradedResult:
    """Run the degraded-network comparison."""
    result = DegradedResult(f=f, payload_bytes=payload_bytes)

    def cfg(protocol: str) -> ExperimentConfig:
        return ExperimentConfig(
            protocol=protocol,
            f=f,
            payload_bytes=payload_bytes,
            deployment="local",
            local_latency_s=latency_s,
            target_blocks=target_blocks,
            timeout_base=timeout_base,
            seed=seed,
        )

    for protocol in ("hotstuff", "damysus", "oneshot"):
        result.baselines[protocol] = run_experiment(cfg(protocol)).stats

    for mode in modes:
        for label, k in FRACTIONS.items():
            if k == 0:
                continue  # the 0% row is the oneshot baseline
            factory = forced_execution_factory(mode, every_kth_view(k))
            run = run_experiment(cfg("oneshot"), replica_factory=factory)
            result.forced[(mode, label)] = run.stats
            kinds = run.collector.execution_kinds()
            abnormal = sum(1 for v in kinds.values() if v != "normal")
            result.observed_fraction[(mode, label)] = (
                abnormal / max(1, len(kinds))
            )
    return result


def render_degraded(result: DegradedResult) -> str:
    rows = []
    cells = []
    for name, st in result.baselines.items():
        rows.append(f"{name} (baseline)")
        cells.append([f"{st.throughput_tps:,.0f}", "-"])
    for (mode, label), st in sorted(result.forced.items()):
        rows.append(f"oneshot {mode} {label}")
        cells.append(
            [
                f"{st.throughput_tps:,.0f}",
                f"{result.observed_fraction[(mode, label)] * 100:.0f}%",
            ]
        )
    return render_table(
        f"Sec. VIII-d degraded network (f={result.f}, "
        f"{result.payload_bytes}B, 10ms): throughput tx/s",
        rows,
        ["throughput", "abnormal views"],
        cells,
    )


def check_shape(result: DegradedResult) -> list[str]:
    """The paper's qualitative claims; returns violations."""
    problems = []
    hs = result.baselines["hotstuff"].throughput_tps
    dam = result.baselines["damysus"].throughput_tps
    for (mode, label), st in result.forced.items():
        if st.throughput_tps <= hs:
            problems.append(f"{mode} {label}: oneshot <= hotstuff")
        if mode == "piggyback" and st.throughput_tps <= dam:
            problems.append(f"piggyback {label} should still beat damysus")
    # "Comparable with Damysus's": same ballpark, neither far above
    # nor collapsed.
    worst = result.forced.get(("catchup", "50%"))
    if worst is not None and not 0.5 * dam < worst.throughput_tps <= 1.6 * dam:
        problems.append("50% catch-up should be comparable to damysus")
    return problems


__all__ = [
    "FRACTIONS",
    "DegradedResult",
    "run_degraded",
    "render_degraded",
    "check_shape",
]
