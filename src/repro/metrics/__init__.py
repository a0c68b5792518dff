"""Measurement: run-time event collection, aggregation, reporting."""

from .collector import (
    CATCHUP,
    NORMAL,
    PIGGYBACK,
    Decision,
    DecisionsNotKept,
    MetricsCollector,
)
from .report import GainCell, render_series, render_table
from .streaming import P2Quantile, StreamingMoments
from .stats import RunStats, compute_stats, decrease_pct, gain_pct
from .timeline import (
    CLASSIFIERS,
    Wave,
    classify_damysus,
    classify_hotstuff,
    classify_oneshot,
    extract_waves,
    render_timeline,
)

__all__ = [
    "CATCHUP",
    "NORMAL",
    "PIGGYBACK",
    "Decision",
    "DecisionsNotKept",
    "MetricsCollector",
    "P2Quantile",
    "StreamingMoments",
    "GainCell",
    "render_series",
    "render_table",
    "RunStats",
    "compute_stats",
    "decrease_pct",
    "gain_pct",
    "CLASSIFIERS",
    "Wave",
    "classify_damysus",
    "classify_hotstuff",
    "classify_oneshot",
    "extract_waves",
    "render_timeline",
]
