"""Seed-driven scenario generation.

``generate_scenario(seed, cfg)`` maps one integer to one
:class:`~repro.experiments.ExperimentConfig` (a local deployment with
no warm-up), drawing every choice from a dedicated
:class:`~repro.sim.rng.RngRegistry` stream derived from that seed.  The
generator's registry is completely separate from the simulation's (the
run builds its own simulator from the config's seed), so generation
cannot perturb the RNG streams of the run it describes — that
separation is what makes a generated fault-free scenario
fingerprint-identical to the plain ``experiments.runner`` path.

Structural invariants the generator maintains:

* at most ``f`` Byzantine replicas (the protocols' resilience bound);
* the reference replica (stop condition + liveness oracle) is correct
  and is never isolated;
* every fault window and network condition closes before
  :func:`quiesce_time`, and ``max_sim_time`` leaves a generous progress
  budget after it — so the liveness oracle judges recovery, not luck.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..experiments.config import ExperimentConfig, check_fields
from ..faults import BEHAVIOURS, AdaptiveSpec, Fault
from ..net import DegradeSpec, IsolateSpec
from ..protocols.registry import REGISTRY, get_protocol
from ..sim.rng import RngRegistry

#: Behaviour-specific knobs: name -> (attr, low, high) ranges drawn
#: when the behaviour is assigned.
_BEHAVIOUR_ATTRS: dict[str, list[tuple[str, float, float]]] = {
    "slow": [("slow_delay", 0.05, 0.5)],
    "restart": [
        ("restart_period", 0.4, 1.2),
        ("outage", 0.1, 0.3),
        ("seal_interval", 0.2, 0.6),
    ],
}


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs bounding the scenario space."""

    protocols: tuple[str, ...] = ("oneshot", "damysus", "hotstuff")
    behaviours: tuple[str, ...] = (
        "crashed",
        "silent-leader",
        "slow",
        "withhold",
        "equivocate",
        "restart",
        "garbage",
    )
    max_f: int = 2
    min_blocks: int = 4
    max_blocks: int = 8
    #: Latest time any fault window / condition may open.
    horizon: float = 2.0
    #: Longest single fault window or condition.
    max_window: float = 2.0
    #: Sim-time progress budget granted after everything quiesces.
    #: Generous on purpose: the pacemaker's exponential backoff (doubling
    #: to a 60 s cap) means a *recoverable* stall can legitimately take a
    #: couple of simulated minutes to clear — only runs that cannot
    #: recover at all should fail the liveness oracle.  Stalled sim-time
    #: is nearly free (timeout events only), and passing runs stop at
    #: their block target regardless.
    liveness_budget: float = 240.0
    timeout_base: float = 0.2
    latency_s: float = 0.002

    def __post_init__(self) -> None:
        """Reject a scenario space no draw can come from
        (:class:`~repro.experiments.ConfigError` names the field)."""
        check_fields(self, [
            ("protocols", bool(self.protocols)
             and set(self.protocols) <= set(REGISTRY),
             f"must be a non-empty subset of {sorted(REGISTRY)}"),
            ("behaviours", bool(self.behaviours)
             and set(self.behaviours) <= set(BEHAVIOURS),
             f"must be a non-empty subset of {sorted(BEHAVIOURS)}"),
            ("max_f", self.max_f >= 1, "must be >= 1"),
            ("min_blocks", 1 <= self.min_blocks <= self.max_blocks,
             f"must be in [1, max_blocks ({self.max_blocks})]"),
        ])


DEFAULT_CONFIG = FuzzConfig()


def quiesce_time(config: ExperimentConfig) -> float:
    """When all injected trouble is over (fault windows closed,
    conditions lifted, GST passed) — the liveness clock starts."""
    ends = [config.gst]
    ends += [f.end for f in config.faults]
    ends += [d.end for d in config.degrades]
    ends += [i.end + i.delay_s for i in config.isolates]
    if config.adaptive is not None:
        ends.append(config.adaptive.end)
    return max(ends)


def generate_scenario(seed: int, cfg: FuzzConfig = DEFAULT_CONFIG) -> ExperimentConfig:
    """Deterministically expand ``seed`` into a scenario."""
    rng = RngRegistry(seed, namespace="fuzz").stream(
        "generate", purpose="scenario generation choices"
    )
    protocol = cfg.protocols[rng.integers(len(cfg.protocols))]
    f = 1 + int(rng.integers(cfg.max_f))
    n = get_protocol(protocol).n_for(f)

    def window() -> tuple[float, float]:
        start = float(rng.uniform(0.0, cfg.horizon))
        length = float(rng.uniform(0.1, cfg.max_window))
        return round(start, 4), round(start + length, 4)

    # --- Byzantine assignments (at most f, unique pids) ---------------
    n_faults = int(rng.integers(0, f + 1))
    pids = list(rng.permutation(n)[:n_faults])
    faults = []
    for pid in pids:
        behaviour = cfg.behaviours[rng.integers(len(cfg.behaviours))]
        start, end = window()
        attrs = tuple(
            (name, round(float(rng.uniform(lo, hi)), 4))
            for name, lo, hi in _BEHAVIOUR_ATTRS.get(behaviour, [])
        )
        faults.append(
            Fault(pid=int(pid), behaviour=behaviour, start=start, end=end, attrs=attrs)
        )
    faulty = {f.pid for f in faults}
    reference_pid = min(p for p in range(n) if p not in faulty)

    # --- Network conditions -------------------------------------------
    degrades = []
    for _ in range(int(rng.integers(0, 3))):
        start, end = window()
        extra = round(float(rng.uniform(0.005, 0.1)), 4)
        nodes: Optional[tuple[int, ...]] = None
        if rng.random() < 0.5:
            # Leader-targeted degradation: aim at the leader of a view
            # the run is likely to pass through (round-robin schedule).
            view = int(rng.integers(0, 8))
            nodes = (view % n,)
        degrades.append(DegradeSpec(start=start, end=end, extra_s=extra, nodes=nodes))
    isolates = []
    if rng.random() < 0.4:
        victims = [p for p in range(n) if p != reference_pid]
        node = int(victims[rng.integers(len(victims))])
        start, end = window()
        delay = round(float(rng.uniform(0.5, 2.0)), 4)
        isolates.append(IsolateSpec(node=node, start=start, end=end, delay_s=delay))

    # --- Adaptive adversary -------------------------------------------
    adaptive = None
    if rng.random() < 0.3:
        start, end = window()
        adaptive = AdaptiveSpec(
            start=start,
            end=end,
            extra_s=round(float(rng.uniform(0.01, 0.1)), 4),
            period=round(float(rng.uniform(0.05, 0.2)), 4),
        )

    # --- Asynchrony before GST ----------------------------------------
    gst = 0.0
    pre_gst_extra = 0.0
    if rng.random() < 0.3:
        gst = round(float(rng.uniform(0.1, cfg.horizon)), 4)
        pre_gst_extra = round(float(rng.uniform(0.01, 0.1)), 4)

    config = ExperimentConfig(
        protocol=protocol,
        f=f,
        deployment="local",
        seed=seed,
        target_blocks=int(rng.integers(cfg.min_blocks, cfg.max_blocks + 1)),
        timeout_base=cfg.timeout_base,
        local_latency_s=cfg.latency_s,
        gst=gst,
        pre_gst_extra=pre_gst_extra,
        warmup_blocks=0,
        max_sim_time=cfg.liveness_budget,  # placeholder, patched below
        reference_pid=reference_pid,
        faults=tuple(faults),
        degrades=tuple(degrades),
        isolates=tuple(isolates),
        adaptive=adaptive,
    )
    budget = round(quiesce_time(config) + cfg.liveness_budget, 4)
    return replace(config, max_sim_time=budget)


__all__ = ["FuzzConfig", "DEFAULT_CONFIG", "generate_scenario", "quiesce_time"]
