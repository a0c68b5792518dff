"""Event collection during a run.

Replicas report proposals, executions and view outcomes; the collector
stores flat records that :mod:`repro.metrics.stats` aggregates into the
paper's throughput/latency numbers.

Two modes:

* **legacy** (default) — every record kept; exact statistics; memory
  grows with the number of decisions.  The golden-fingerprint runs and
  the paper-figure experiments use this mode unchanged.
* **streaming** (``MetricsCollector(streaming=True)``) — per-block
  state is folded into O(1) aggregates (running moments, P² quantile
  sketches, an optional seeded reservoir) the moment a block finishes
  reporting, so a million-client open-loop run holds a small constant
  number of records no matter how long it runs.  ``compute_stats``
  reads the same :class:`~repro.metrics.stats.RunStats` fields from the
  sketch state (quantiles are estimates, within ~1% on large runs).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..crypto import Digest
from .streaming import P2Quantile, ReservoirSample, StreamingMoments

#: Bound on simultaneously *open* (partially reported) blocks in
#: streaming mode.  A block is open from its first execution report
#: until all ``n_replicas`` have reported (or it ages past this window
#: and is finalized early with the reports it has).  Consensus keeps at
#: most a handful of blocks in flight, so 4096 is orders of magnitude
#: of slack, not a tuning knob.
STREAM_WINDOW = 4096

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


@dataclass(frozen=True)
class ViewOutcome:
    """A replica leaving a view, either by deciding or by timing out."""

    replica: int
    view: int
    outcome: str  # "decide" | "timeout"
    time: float


class MetricsCollector:
    """Flat event store shared by all replicas of a run.

    In streaming mode (see module docstring) the flat lists stay empty
    and every report folds into bounded aggregate state instead.
    ``n_replicas`` lets a block finalize eagerly once every replica has
    reported it; ``warmup_blocks`` blocks are excluded from the
    statistics inside the collector (the runner's post-hoc trim cannot
    work on a stream).  ``reservoir_rng`` (a named stream from
    :mod:`repro.sim.rng`) enables the seeded latency reservoir; without
    it only the deterministic P² sketches run.
    """

    def __init__(
        self,
        streaming: bool = False,
        n_replicas: Optional[int] = None,
        warmup_blocks: int = 0,
        reservoir_rng: Optional[np.random.Generator] = None,
        reservoir_capacity: int = 4096,
    ) -> None:
        self.streaming = streaming
        self.n_replicas = n_replicas
        self.decisions: list[Decision] = []
        self.view_outcomes: list[ViewOutcome] = []
        # OrderedDicts so streaming-window eviction unlinks the oldest
        # entry in O(1) (popping a plain dict's front rescans earlier
        # evictions' tombstones).  Legacy mode never evicts; the
        # per-block insert cost difference is noise there.
        self._proposal_times: OrderedDict[Digest, float] = OrderedDict()
        self._decisive_kind: OrderedDict[int, str] = OrderedDict()
        # Streaming-mode state (inert in legacy mode).
        self._warmup_left = max(0, warmup_blocks) if streaming else 0
        #: hash -> [sum of exec times, n reports, ntxs, earliest exec]
        self._open: OrderedDict[Digest, list] = OrderedDict()
        self._blocks_done = 0
        self._txs_done = 0
        self._t_first = math.inf
        self._t_last = -math.inf
        self._timeout_count = 0
        self._outcome_count = 0
        self._views_decided = 0
        self._lat = StreamingMoments()
        self._p50 = P2Quantile(0.50)
        self._p99 = P2Quantile(0.99)
        self.reservoir: Optional[ReservoirSample] = (
            ReservoirSample(reservoir_rng, reservoir_capacity)
            if (streaming and reservoir_rng is not None)
            else None
        )

    # ------------------------------------------------------------------
    # Reporting API (called by replicas)
    # ------------------------------------------------------------------
    def on_propose(self, replica: int, view: int, block_hash: Digest, now: float) -> None:
        """First proposal time of a block — the latency clock start."""
        if self.streaming and len(self._proposal_times) >= 4 * STREAM_WINDOW:
            # A proposal whose block never executes (e.g. a leader
            # equivocation discarded by all) must not pin memory.
            self._proposal_times.popitem(last=False)
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
        if self.streaming:
            self._on_execute_streaming(view, block_hash, ntxs, now, kind)
            return
        self.decisions.append(
            Decision(replica, view, block_hash, ntxs, now, kind)
        )
        self._decisive_kind.setdefault(view, kind)

    def _on_execute_streaming(
        self, view: int, block_hash: Digest, ntxs: int, now: float, kind: str
    ) -> None:
        if view not in self._decisive_kind:
            if len(self._decisive_kind) >= STREAM_WINDOW:
                self._decisive_kind.popitem(last=False)
            self._decisive_kind[view] = kind
            self._views_decided += 1
        rec = self._open.get(block_hash)
        if rec is None:
            if len(self._open) >= STREAM_WINDOW:
                h, oldest = self._open.popitem(last=False)
                self._finalize_block(h, oldest)
            rec = [now, 1, ntxs, now]
            self._open[block_hash] = rec
        else:
            rec[0] += now
            rec[1] += 1
            if now < rec[3]:
                rec[3] = now
        if self.n_replicas is not None and rec[1] >= self.n_replicas:
            del self._open[block_hash]
            self._finalize_block(block_hash, rec)

    def _finalize_block(self, block_hash: Digest, rec: list) -> None:
        """Fold one fully-reported block into the O(1) aggregates."""
        t0 = self._proposal_times.pop(block_hash, None)
        if self._warmup_left > 0:
            self._warmup_left -= 1
            return
        time_sum, n_reports, ntxs, earliest = rec
        self._blocks_done += 1
        self._txs_done += ntxs
        start = t0 if t0 is not None else earliest
        if start < self._t_first:
            self._t_first = start
        if earliest > self._t_last:
            self._t_last = earliest
        if t0 is None:
            return
        lat = time_sum / n_reports - t0
        self._lat.add(lat)
        self._p50.add(lat)
        self._p99.add(lat)
        if self.reservoir is not None:
            self.reservoir.add(lat)

    def flush(self) -> None:
        """Finalize still-open blocks (streaming mode, end of run).

        Called by ``compute_stats`` before reading the aggregates so
        blocks that never reached all ``n_replicas`` reports (run cut
        off mid-flight) still count with the reports they have.
        """
        while self._open:
            h, rec = self._open.popitem(last=False)
            self._finalize_block(h, rec)

    def on_view_outcome(self, replica: int, view: int, outcome: str, now: float) -> None:
        if self.streaming:
            self._outcome_count += 1
            if outcome == "timeout":
                self._timeout_count += 1
            return
        self.view_outcomes.append(ViewOutcome(replica, view, outcome, now))

    # ------------------------------------------------------------------
    # Streaming snapshot
    # ------------------------------------------------------------------
    def streaming_stats(self) -> dict:
        """The aggregate fields ``compute_stats`` assembles into
        :class:`~repro.metrics.stats.RunStats` (streaming mode only)."""
        if not self.streaming:
            raise ValueError("streaming_stats requires streaming mode")
        self.flush()
        if self._blocks_done:
            duration = max(self._t_last - self._t_first, 1e-9)
            tput = self._txs_done / duration
        else:
            duration = 0.0
            tput = 0.0
        return {
            "throughput_tps": tput,
            "mean_latency_s": self._lat.mean(),
            "p50_latency_s": self._p50.value(),
            "p99_latency_s": self._p99.value(),
            "blocks_decided": self._blocks_done,
            "txs_decided": self._txs_done,
            "views_decided": self._views_decided,
            "timeouts": self._timeout_count,
            "duration_s": duration,
        }

    def state_size(self) -> int:
        """Retained records — bounded by a constant in streaming mode."""
        n = (
            len(self.decisions)
            + len(self.view_outcomes)
            + len(self._proposal_times)
            + len(self._decisive_kind)
            + len(self._open)
        )
        if self.reservoir is not None:
            n += len(self.reservoir)
        return n

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def proposal_time(self, block_hash: Digest) -> Optional[float]:
        return self._proposal_times.get(block_hash)

    def decided_blocks(self) -> dict[Digest, float]:
        """Unique decided blocks -> earliest execution time."""
        out: dict[Digest, float] = {}
        for d in self.decisions:
            t = out.get(d.block_hash)
            if t is None or d.time < t:
                out[d.block_hash] = d.time
        return out

    def execution_kinds(self) -> dict[int, str]:
        """Decisive view -> execution kind (normal/piggyback/catchup)."""
        return dict(self._decisive_kind)

    def timeouts(self) -> int:
        if self.streaming:
            return self._timeout_count
        return sum(1 for v in self.view_outcomes if v.outcome == "timeout")


__all__ = [
    "MetricsCollector",
    "Decision",
    "ViewOutcome",
    "NORMAL",
    "PIGGYBACK",
    "CATCHUP",
    "STREAM_WINDOW",
]
