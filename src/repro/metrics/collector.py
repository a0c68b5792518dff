"""Event collection during a run.

Replicas report proposals, executions and view outcomes; the collector
folds each report into the tables :mod:`repro.metrics.stats` aggregates
into the paper's throughput/latency numbers.

Per block it keeps ``[latency sum, reports, ntxs, earliest execution]``:
a replica's execution report adds its proposal-to-execution time to the
sum, so the statistics are exact while the table grows with blocks, not
with replicas.  Per view it keeps the decisive execution kind, and a
counter keeps timeouts.  Per-decision :class:`Decision` records (one per
replica per block) are kept only with ``keep_decisions``: the
fingerprint's chain hash and the equivocation oracle read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto import Digest

#: Execution kinds (Sec. V) plus bookkeeping outcomes.
NORMAL = "normal"
PIGGYBACK = "piggyback"
CATCHUP = "catchup"


@dataclass(frozen=True)
class Decision:
    """One replica executing one block."""

    replica: int
    view: int
    block_hash: Digest
    ntxs: int
    time: float
    kind: str  # execution kind of the decisive view


class DecisionsNotKept(ValueError):
    """Per-decision records read from a collector that keeps none."""


class MetricsCollector:
    """Per-block and per-view tables shared by all replicas of a run.

    ``keep_decisions=False`` drops the per-decision records; every
    statistic stays exact, but reading :attr:`decisions` raises
    :class:`DecisionsNotKept` rather than reporting an empty history.
    """

    def __init__(self, keep_decisions: bool = True) -> None:
        self._decisions: Optional[list[Decision]] = [] if keep_decisions else None
        self._proposal_times: dict[Digest, float] = {}
        #: hash -> [latency sum, reports, ntxs, earliest execution]
        self._blocks: dict[Digest, list] = {}
        self._decisive_kind: dict[int, str] = {}
        self._timeouts = 0

    # ------------------------------------------------------------------
    # Reporting API (called by replicas)
    # ------------------------------------------------------------------
    def on_propose(self, replica: int, view: int, block_hash: Digest, now: float) -> None:
        """First proposal time of a block — the latency clock start."""
        self._proposal_times.setdefault(block_hash, now)

    def on_execute(
        self,
        replica: int,
        view: int,
        block_hash: Digest,
        ntxs: int,
        now: float,
        kind: str,
    ) -> None:
        if self._decisions is not None:
            self._decisions.append(
                Decision(replica, view, block_hash, ntxs, now, kind)
            )
        self._decisive_kind.setdefault(view, kind)
        rec = self._blocks.get(block_hash)
        if rec is None:
            rec = self._blocks[block_hash] = [0.0, 0, ntxs, now]
        elif now < rec[3]:
            rec[3] = now
        t0 = self._proposal_times.get(block_hash)
        if t0 is not None:
            rec[0] += now - t0
            rec[1] += 1

    def on_view_outcome(self, replica: int, view: int, outcome: str, now: float) -> None:
        if outcome == "timeout":
            self._timeouts += 1

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> list[Decision]:
        """Every execution report, in arrival order."""
        if self._decisions is None:
            raise DecisionsNotKept(
                "this collector keeps no per-decision records "
                "(MetricsCollector(keep_decisions=False), set by "
                "ExperimentConfig.streaming_metrics); a chain hash or a "
                "safety verdict needs a run with keep_decisions=True"
            )
        return self._decisions

    def blocks(self) -> dict[Digest, list]:
        """Decided block -> ``[latency sum, reports, ntxs, earliest
        execution]``, in first-execution order (read-only)."""
        return self._blocks

    def state_size(self) -> int:
        """Retained records: O(blocks + views), plus one per decision
        when they are kept."""
        n = len(self._proposal_times) + len(self._blocks) + len(self._decisive_kind)
        if self._decisions is not None:
            n += len(self._decisions)
        return n

    def proposal_time(self, block_hash: Digest) -> Optional[float]:
        return self._proposal_times.get(block_hash)

    def decided_blocks(self) -> dict[Digest, float]:
        """Unique decided blocks -> earliest execution time."""
        return {h: rec[3] for h, rec in self._blocks.items()}

    def execution_kinds(self) -> dict[int, str]:
        """Decisive view -> execution kind (normal/piggyback/catchup)."""
        return dict(self._decisive_kind)

    def timeouts(self) -> int:
        return self._timeouts


__all__ = [
    "MetricsCollector",
    "Decision",
    "DecisionsNotKept",
    "NORMAL",
    "PIGGYBACK",
    "CATCHUP",
]
