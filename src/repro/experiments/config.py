"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from ..net import DEFAULT_BANDWIDTH_BPS
from .deployments import DEPLOYMENTS

#: Load models a run can use (``ExperimentConfig.workload``).
WORKLOADS = ("saturated", "open")


class ConfigError(ValueError):
    """An :class:`ExperimentConfig` no run can honour."""


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
    #: Keep no per-decision records in the metrics collector (the
    #: statistics stay exact; fingerprints and the equivocation oracle
    #: need the records, so such a run cannot be fingerprinted).
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

    def __post_init__(self) -> None:
        """Reject a configuration at construction; the message names
        the offending field."""
        checks = [
            ("f", self.f >= 0, "must be >= 0"),
            ("target_blocks", self.target_blocks >= 1, "must be >= 1"),
            ("warmup_blocks", self.warmup_blocks >= 0, "must be >= 0"),
            ("max_sim_time", self.max_sim_time > 0, "must be > 0"),
            ("timeout_base", self.timeout_base > 0, "must be > 0"),
            ("bandwidth_bps", self.bandwidth_bps > 0, "must be > 0"),
            ("local_latency_s", self.local_latency_s >= 0, "must be >= 0"),
            ("gst", self.gst >= 0, "must be >= 0"),
            ("pre_gst_extra", self.pre_gst_extra >= 0, "must be >= 0"),
            ("deployment", self.deployment in DEPLOYMENTS,
             f"unknown deployment; known: {sorted(DEPLOYMENTS)}"),
            ("workload", self.workload in WORKLOADS,
             f"unknown workload; known: {list(WORKLOADS)}"),
            ("shards", self.shards >= 1, "must be >= 1"),
            ("cross_shard_permille", 0 <= self.cross_shard_permille <= 1000,
             "must be in [0, 1000]"),
            ("hot_key_permille", 0 <= self.hot_key_permille <= 1000,
             "must be in [0, 1000]"),
            ("shard_slots", self.shard_slots >= self.shards,
             f"must be >= shards ({self.shards})"),
            ("shard_epoch_s", self.shard_epoch_s >= 0, "must be >= 0"),
        ]
        if self.workload == "open":
            checks += [
                ("offered_tps", self.offered_tps > 0,
                 "must be > 0 for the open workload"),
                ("virtual_clients", self.virtual_clients >= 1,
                 "must be >= 1 for the open workload"),
                ("workload_regions",
                 1 <= self.workload_regions <= self.virtual_clients,
                 f"must be in [1, virtual_clients ({self.virtual_clients})] "
                 "for the open workload"),
                ("arrival_slab", self.arrival_slab >= 1,
                 "must be >= 1 for the open workload"),
            ]
        for name, ok, problem in checks:
            if not ok:
                raise ConfigError(
                    f"ExperimentConfig.{name} = {getattr(self, name)!r}: {problem}"
                )

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


__all__ = ["ConfigError", "ExperimentConfig", "WORKLOADS"]
