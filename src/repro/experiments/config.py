"""Experiment configuration: the one description of a run.

An :class:`ExperimentConfig` names everything a run does, the
adversary included (Byzantine faults, network conditions, the adaptive
leader-chaser, the 2PC coordinator delay), as frozen data, so
:func:`to_dict` / :func:`from_dict` round-trip it through JSON
losslessly and a fuzz repro file is a saved config.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Optional, Union

from ..faults import AdaptiveSpec, Fault
from ..net import DEFAULT_BANDWIDTH_BPS, DegradeSpec, IsolateSpec
from ..protocols.registry import REGISTRY
from .deployments import DEPLOYMENTS

#: Load models a run can use (``ExperimentConfig.workload``).
WORKLOADS = ("saturated", "open")


class ConfigError(ValueError):
    """An :class:`ExperimentConfig` no run can honour."""


def check_fields(obj: Any, checks: list[tuple[str, bool, str]]) -> None:
    """Raise :class:`ConfigError` for the first failed ``(field, ok,
    problem)`` check; the message names the offending field."""
    for name, ok, problem in checks:
        if not ok:
            raise ConfigError(
                f"{type(obj).__name__}.{name} = {getattr(obj, name)!r}: {problem}"
            )


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
    #: Byzantine replicas, at most one fault per pid.  More than ``f``
    #: is allowed: a run that must stall is a liveness-oracle test.
    faults: tuple[Fault, ...] = ()
    #: Network conditions, installed on every fabric before the start:
    #: WAN churn windows, node partitions and the leader-chasing
    #: adaptive adversary.
    degrades: tuple[DegradeSpec, ...] = ()
    isolates: tuple[IsolateSpec, ...] = ()
    adaptive: Optional[AdaptiveSpec] = None
    #: Replica whose executed-block count drives the stop condition
    #: (and the fuzzer's liveness oracle); keep it correct.
    reference_pid: int = 0
    #: Sharded runs: extra delay on the 2PC coordinator's traffic in a
    #: window (``nodes`` stays unset: the coordinator is the target).
    coordinator_delay: Optional[DegradeSpec] = None

    def __post_init__(self) -> None:
        """Reject a configuration at construction; the message names
        the offending field."""
        known = self.protocol in REGISTRY
        n = REGISTRY[self.protocol].n_for(self.f) if known else 0
        pids = [x.pid for x in self.faults]
        delay = self.coordinator_delay
        checks = [
            ("protocol", known, f"unknown protocol; known: {sorted(REGISTRY)}"),
            ("f", self.f >= 0, "must be >= 0"),
            ("payload_bytes", self.payload_bytes >= 0, "must be >= 0"),
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
            ("reference_pid", 0 <= self.reference_pid < n,
             f"must be a replica pid in [0, {n})"),
            ("faults", all(0 <= p < n for p in pids)
             and len(set(pids)) == len(pids),
             f"need distinct replica pids in [0, {n})"),
            ("isolates", all(0 <= x.node < n for x in self.isolates),
             f"need replica pids in [0, {n})"),
            ("coordinator_delay", delay is None
             or (self.shards > 1 and delay.nodes is None),
             "needs shards > 1 and no nodes (it targets the coordinator)"),
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
        check_fields(self, checks)

    def describe(self) -> str:
        bits = [
            f"{self.protocol} f={self.f} {self.deployment} "
            f"{self.payload_bytes}B seed={self.seed}"
        ]
        for x in self.faults:
            bits.append(f"{x.behaviour}@{x.pid}[{x.start:.2f},{x.end:.2f})")
        if self.degrades:
            bits.append(f"{len(self.degrades)} degrade(s)")
        if self.isolates:
            bits.append(f"{len(self.isolates)} partition(s)")
        if self.adaptive is not None:
            bits.append("adaptive")
        return " ".join(bits)


def to_dict(config: Any) -> dict[str, Any]:
    """JSON-ready field map of a frozen config dataclass: nested specs
    become dicts and tuples become lists."""

    def encode(value: Any) -> Any:
        if is_dataclass(value):
            return to_dict(value)
        if isinstance(value, tuple):
            return [encode(v) for v in value]
        return value

    return {f.name: encode(getattr(config, f.name)) for f in fields(config)}


def from_dict(cls: type, data: dict[str, Any]) -> Any:
    """Inverse of :func:`to_dict`, led by ``cls``'s field annotations.
    An unknown key at any depth raises ``ValueError`` naming it (a file
    from a future format should fail loudly, not half-load)."""
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{name: _decode(hints[name], v) for name, v in data.items()})


def _decode(hint: Any, value: Any) -> Any:
    if value is None:
        return None
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is Union:  # Optional[X]
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if is_dataclass(hint):
        return from_dict(hint, value)
    return value


__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "WORKLOADS",
    "check_fields",
    "from_dict",
    "to_dict",
]
