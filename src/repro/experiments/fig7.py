"""Fig. 7 — throughput and latency vs fault threshold.

The paper sweeps f ∈ {1, 2, 4, 10, 20, 30} (up to 91 HotStuff / 61
hybrid nodes), payloads of 0 B and 256 B, across the EU, US and
world-wide deployments, plotting average throughput (tx/s) and latency
for OneShot, Damysus and HotStuff.

``run_fig7`` regenerates one deployment's panel; ``render_fig7``
prints the series the figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..metrics import RunStats, render_series, render_table
from .config import ExperimentConfig
from .runner import run_experiment

#: The paper's sweep.
PAPER_F_VALUES: tuple[int, ...] = (1, 2, 4, 10, 20, 30)
PAPER_PAYLOADS: tuple[int, ...] = (0, 256)
PROTOCOLS: tuple[str, ...] = ("hotstuff", "damysus", "oneshot")
#: E-C: each basic protocol beside its chained (pipelined) version.
CHAINED_FAMILY: tuple[str, ...] = (
    "hotstuff",
    "hotstuff-chained",
    "damysus",
    "damysus-chained",
    "oneshot",
    "oneshot-chained",
)


@dataclass
class Fig7Result:
    """Panel data: (protocol, payload) -> {f: RunStats}."""

    deployment: str
    f_values: tuple[int, ...]
    payloads: tuple[int, ...]
    protocols: tuple[str, ...] = PROTOCOLS
    runs: dict[tuple[str, int], dict[int, RunStats]] = field(default_factory=dict)
    #: Decided blocks every run was asked for (0: not recorded).
    target_blocks: int = 0

    def throughput_series(self, protocol: str, payload: int) -> list[float]:
        return [
            self.runs[(protocol, payload)][f].throughput_tps
            for f in self.f_values
        ]

    def latency_series(self, protocol: str, payload: int) -> list[float]:
        return [
            self.runs[(protocol, payload)][f].mean_latency_s * 1e3
            for f in self.f_values
        ]


def run_fig7(
    deployment: str,
    f_values: Sequence[int] = PAPER_F_VALUES,
    payloads: Sequence[int] = PAPER_PAYLOADS,
    protocols: Sequence[str] = PROTOCOLS,
    target_blocks: int = 30,
    seed: int = 7,
) -> Fig7Result:
    """Regenerate one deployment's Fig. 7 panel."""
    result = Fig7Result(
        deployment=deployment,
        f_values=tuple(f_values),
        payloads=tuple(payloads),
        protocols=tuple(protocols),
        target_blocks=target_blocks,
    )
    for payload in payloads:
        for protocol in protocols:
            per_f: dict[int, RunStats] = {}
            for f in f_values:
                cfg = ExperimentConfig(
                    protocol=protocol,
                    f=f,
                    payload_bytes=payload,
                    deployment=deployment,
                    target_blocks=target_blocks,
                    seed=seed,
                )
                per_f[f] = run_experiment(cfg).stats
            result.runs[(protocol, payload)] = per_f
    return result


def render_fig7(result: Fig7Result) -> str:
    """Text rendering of the panel: one table per payload per metric."""
    parts: list[str] = []
    for payload in result.payloads:
        shown = [p for p in result.protocols if (p, payload) in result.runs]
        for metric, series, fmt in (
            ("throughput (tx/s)", result.throughput_series, "{:,.0f}"),
            ("latency (ms)", result.latency_series, "{:,.1f}"),
        ):
            parts.append(
                render_series(
                    f"Fig.7 [{result.deployment}] {metric}, payload {payload}B",
                    "f",
                    result.f_values,
                    {p: series(p, payload) for p in shown},
                    fmt=fmt,
                )
            )
    return "\n\n".join(parts)


def check_shape(result: Fig7Result) -> list[str]:
    """Assertions the paper's figure supports; returns violations."""
    problems: list[str] = []
    for payload in result.payloads:
        for f in result.f_values:
            runs = {
                p: result.runs[(p, payload)][f]
                for p in result.protocols
                if (p, payload) in result.runs
            }
            for p, st in runs.items():
                if st.blocks_decided < result.target_blocks:
                    problems.append(
                        f"{payload}B f={f}: {p} decided {st.blocks_decided} "
                        f"< {result.target_blocks} blocks"
                    )
            if {"oneshot", "damysus"} <= runs.keys():
                if runs["oneshot"].throughput_tps <= runs["damysus"].throughput_tps:
                    problems.append(
                        f"{payload}B f={f}: oneshot tput <= damysus"
                    )
                if runs["oneshot"].mean_latency_s >= runs["damysus"].mean_latency_s:
                    problems.append(
                        f"{payload}B f={f}: oneshot latency >= damysus"
                    )
            if {"damysus", "hotstuff"} <= runs.keys():
                if runs["damysus"].throughput_tps <= runs["hotstuff"].throughput_tps:
                    problems.append(
                        f"{payload}B f={f}: damysus tput <= hotstuff"
                    )
    return problems


def render_chained(result: Fig7Result) -> str:
    """E-C: one row per protocol of a single-(f, payload) panel."""
    f, payload = result.f_values[0], result.payloads[0]
    rows, cells = [], []
    for p in result.protocols:
        st = result.runs[(p, payload)][f]
        rows.append(p)
        cells.append([f"{st.throughput_tps:,.0f}", f"{st.mean_latency_s * 1e3:.1f}"])
    return render_table(
        f"Basic vs chained family ({result.deployment.upper()}, f={f}, {payload}B)",
        rows,
        ["tx/s", "latency ms"],
        cells,
    )


def check_chained(result: Fig7Result) -> list[str]:
    """Chaining raises every protocol's throughput, and the k-chain
    commit rules (1 / 2 / 3) keep the latency order; returns violations."""
    f, payload = result.f_values[0], result.payloads[0]
    st = {p: result.runs[(p, payload)][f] for p in result.protocols}
    problems = [
        f"{base}-chained tput <= {base}"
        for base in PROTOCOLS
        if st[f"{base}-chained"].throughput_tps <= st[base].throughput_tps
    ]
    order = ("oneshot-chained", "damysus-chained", "hotstuff-chained")
    lat = [st[p].mean_latency_s for p in order]
    if not lat[0] < lat[1] < lat[2]:
        problems.append(f"latency order is not {' < '.join(order)}")
    return problems


__all__ = [
    "PAPER_F_VALUES",
    "PAPER_PAYLOADS",
    "PROTOCOLS",
    "CHAINED_FAMILY",
    "Fig7Result",
    "run_fig7",
    "render_fig7",
    "check_shape",
    "render_chained",
    "check_chained",
]
