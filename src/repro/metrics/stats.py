"""Aggregation of run metrics into the paper's reported quantities.

* **Throughput** — transactions executed per second over the measured
  span (first proposal to last execution), counting each block once.
* **Latency** — per decided block, time from its (first) proposal to
  its execution, averaged over replicas; then averaged over blocks.
  This is the "latency measured by the replicas" of Sec. VIII.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collector import MetricsCollector
from .streaming import percentile


@dataclass(frozen=True)
class RunStats:
    """Headline numbers for a single run."""

    throughput_tps: float
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    blocks_decided: int
    txs_decided: int
    views_decided: int
    timeouts: int
    duration_s: float

    def __str__(self) -> str:  # pragma: no cover - human formatting
        return (
            f"throughput={self.throughput_tps:,.0f} tx/s  "
            f"latency={self.mean_latency_s * 1e3:.1f} ms "
            f"(p50={self.p50_latency_s * 1e3:.1f}, p99={self.p99_latency_s * 1e3:.1f})  "
            f"blocks={self.blocks_decided}  timeouts={self.timeouts}"
        )


def compute_stats(collector: MetricsCollector, warmup_blocks: int = 0) -> RunStats:
    """Summarize a run; degenerate runs yield zeroed stats.

    The first ``warmup_blocks`` decided blocks (by earliest execution)
    are dropped from throughput and latency; ``views_decided`` and
    ``timeouts`` count the whole run.
    """
    blocks = collector.blocks()
    if warmup_blocks > 0:
        by_time = sorted(blocks.items(), key=lambda kv: kv[1][3])
        blocks = dict(by_time[warmup_blocks:])
    ordered = sorted(s / n for s, n, _, _ in blocks.values() if n)
    lats = np.array(ordered)
    txs = sum(rec[2] for rec in blocks.values())

    if blocks:
        # A block with no recorded proposal starts at its execution.
        t_first = min(
            rec[3] if (t0 := collector.proposal_time(h)) is None else t0
            for h, rec in blocks.items()
        )
        t_last = max(rec[3] for rec in blocks.values())
        duration = max(t_last - t_first, 1e-9)
        tput = txs / duration
    else:
        duration = 0.0
        tput = 0.0

    return RunStats(
        throughput_tps=tput,
        mean_latency_s=float(lats.mean()) if lats.size else 0.0,
        p50_latency_s=percentile(ordered, 50) if ordered else 0.0,
        p99_latency_s=percentile(ordered, 99) if ordered else 0.0,
        blocks_decided=len(blocks),
        txs_decided=txs,
        views_decided=len(collector.execution_kinds()),
        timeouts=collector.timeouts(),
        duration_s=duration,
    )


def gain_pct(new: float, old: float) -> float:
    """Percentage gain of ``new`` over ``old`` (paper's +X%)."""
    if old <= 0:
        return float("inf")
    return (new / old - 1.0) * 100.0


def decrease_pct(new: float, old: float) -> float:
    """Percentage decrease of ``new`` w.r.t. ``old`` (paper's −X%)."""
    if old <= 0:
        return float("nan")
    return (1.0 - new / old) * 100.0


__all__ = [
    "RunStats",
    "compute_stats",
    "gain_pct",
    "decrease_pct",
]
