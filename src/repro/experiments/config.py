"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

from ..net import DEFAULT_BANDWIDTH_BPS


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of one protocol under one deployment.

    ``deployment`` is a name from :mod:`repro.experiments.deployments`:
    ``"eu"``, ``"us"``, ``"world"`` (region RTT matrices) or
    ``"local"`` (constant latency, set ``local_latency_s``).
    """

    protocol: str = "oneshot"
    f: int = 1
    payload_bytes: int = 0
    deployment: str = "eu"
    #: Stop after this many blocks are decided (by replica 0)...
    target_blocks: int = 30
    #: ... or when simulated time reaches this, whichever first.
    max_sim_time: float = 600.0
    seed: int = 0
    timeout_base: float = 2.0
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    local_latency_s: float = 0.010
    #: GST (0 = synchronous from the start) and pre-GST extra delay.
    gst: float = 0.0
    pre_gst_extra: float = 0.0
    #: Skip this many initial decided blocks in the statistics (warm-up).
    warmup_blocks: int = 2
    #: The one event kernel.  A plain class attribute, not a field (so
    #: ``ExperimentConfig(kernel=...)`` is a TypeError and ``to_dict``
    #: omits it): ``ledger/workloads.py`` reads ``ExperimentConfig().kernel``
    #: at import.
    kernel = "scalar"
    #: Load model: "saturated" (paper default — closed-loop synthetic
    #: sources keep every block full) or "open" (the aggregated
    #: open-loop engine of :mod:`repro.workload`: ``virtual_clients``
    #: Poisson clients offering ``offered_tps`` total, superposed per
    #: region and delivered in columnar slabs).
    workload: str = "saturated"
    #: Aggregate offered load (tx/s) in "open" mode.
    offered_tps: float = 10_000.0
    #: Virtual open-loop client population in "open" mode.
    virtual_clients: int = 100_000
    #: Regions the population/load is split across in "open" mode.
    workload_regions: int = 1
    #: Arrivals minted per slab (one simulator event) in "open" mode.
    arrival_slab: int = 512
    #: Use the O(1)-memory streaming metrics collector (quantiles become
    #: P² estimates; mandatory for very long open-loop runs).
    streaming_metrics: bool = False
    #: Highest-view gossip on timeout (minimal view synchronizer); off
    #: reproduces the historical pacemaker with the HotStuff view-split
    #: livelock (docs/fuzzing.md).
    view_sync: bool = True
    #: Shards (independent consensus groups over one keyspace) — 1
    #: means unsharded; >1 is consumed by :mod:`repro.experiments.shard`.
    shards: int = 1
    #: Fraction of transactions touching a second shard, in permille.
    cross_shard_permille: int = 0
    #: Routing-table epoch length (seconds); rebalancing happens at
    #: epoch boundaries.  0 disables rebalancing.
    shard_epoch_s: float = 0.0
    #: Fraction of client ids collapsed onto one hot key, in permille
    #: (skews load to exercise rebalancing).
    hot_key_permille: int = 0
    #: Routing slots (key ranges) in the shard routing table.
    shard_slots: int = 64

    def describe(self) -> str:
        return (
            f"{self.protocol} f={self.f} {self.deployment} "
            f"{self.payload_bytes}B seed={self.seed}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable field map (all fields are scalars)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise (a repro file
        from a future format should fail loudly, not half-load)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields: {sorted(unknown)}")
        return cls(**data)


__all__ = ["ExperimentConfig"]
