"""Optimization ablations (DESIGN.md: per-design-choice benches).

Sec. VI-F describes three optimizations; each is a toggle on
:class:`~repro.core.replica.OneShotOptions`.  Each ablation crafts the
exact situation its optimization targets and measures the protocol with
the toggle on and off:

* **avoid-revotes** (VI-F a): a view decides at a single replica, the
  next leader is silent, and the decided replica's timeout certificate
  (self-certified) meets older certificates at the following leader.
  With the flag the leader proposes directly off the ``B = true``
  accumulator; without it, a full deliver phase re-votes a block that
  f+1 replicas already stored.
* **omit-known-blocks** (VI-F b): a periodically silent leader causes
  timeouts right after decisions; backups whose certificate provably
  reached the next leader omit the (115.6 KB) block from their
  new-view message.  Measured in bytes on the wire.
* **preempt-catchup** (VI-F c): the previous view's prepare
  certificate arrives *after* the new leader already started a deliver
  phase; with the flag the leader abandons the deliver phase and runs
  a normal execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

from ..core import OneShotOptions, oneshot_with_options
from ..core.messages import DeliverMsg, NewViewMsg, PrepCertMsg, ProposalMsg
from ..faults import FaultPlan
from ..metrics import RunStats, render_table
from .config import ExperimentConfig
from .runner import RunResult, run_experiment

#: The three optimization axes.
AXES = ("avoid_revotes", "omit_known_blocks", "preempt_catchup")


def oneshot_factory(options: OneShotOptions, base_factory=None):
    """A ``replica_factory`` building OneShot replicas with ``options``,
    optionally composed with another factory (fault/forcer classes)."""
    cls = oneshot_with_options(options)

    def make(pid: int, default_cls):
        base = cls
        if base_factory is not None:
            produced = base_factory(pid, base)
            if produced is not None:
                base = produced
        return base

    return make


@dataclass
class AblationResult:
    """Per-axis on/off statistics."""

    axis: str
    on: RunStats
    off: RunStats
    #: Deliver-phase broadcasts observed (re-vote / preemption axes).
    on_delivers: int = 0
    off_delivers: int = 0
    #: Bytes on the wire (block-omission axis).
    on_bytes: int = 0
    off_bytes: int = 0


def _count_delivers(result: RunResult) -> int:
    log = result.network.message_log or []
    views = {
        env.payload.acc.view + 1
        for env in log
        if isinstance(env.payload, DeliverMsg)
    }
    return len(views)


# ----------------------------------------------------------------------
# VI-F(a) — avoid re-votes
# ----------------------------------------------------------------------
def _revote_scenario_cls(base_cls: Type, selector: Callable[[int], bool]) -> Type:
    """The mixed-straggler scenario that makes B = true reachable.

    At a selected view v (n = 5, f = 2; roles are relative to v):

    * the leader sends its proposal only to S = {v, v+3, v+4} (f+1
      replicas) and the prepare certificate only to X = v+3, then goes
      quiet — so X decides view v while nobody else does;
    * the leader of v+1 is silent — everybody times out;
    * the stragglers S∖X delay their new-view messages, so the leader
      of v+2 assembles X's *self-certified* certificate with the
      non-recipients' older ones: a mixed set whose top is
      self-certified.
    """

    class RevoteScenario(base_cls):  # type: ignore[misc, valid-type]
        forced = "revote-scenario"

        def _roles(self, v):
            n = self.config.n
            leader, x = v % n, (v + 3) % n
            s = {leader, x, (v + 4) % n}
            return leader, x, s

        def broadcast_at(self, when, payload, include_self=True):
            v = self.view
            if self.is_leader():
                if isinstance(payload, ProposalMsg) and selector(v):
                    _, x, s = self._roles(v)
                    self.transmit(when, tuple(s), payload)
                    return
                if isinstance(payload, PrepCertMsg) and selector(v):
                    _, x, _ = self._roles(v)
                    self.send_at(when, x, payload)
                    return
                if isinstance(payload, ProposalMsg) and selector(v - 1):
                    return  # leader of v+1 stays silent
            super().broadcast_at(when, payload, include_self)

        def send_at(self, when, dst, payload):
            # New-view messages are only ever unicast, so filtering
            # them here (not at ``transmit``) catches every one.
            if isinstance(payload, NewViewMsg) and selector(self.view - 2):
                _, x, s = self._roles(self.view - 2)
                if self.pid in s and self.pid != x:
                    when = max(when, self.sim.now) + 0.5  # straggle
            super().send_at(when, dst, payload)

    return RevoteScenario


def ablate_avoid_revotes(target_blocks: int = 24, seed: int = 23) -> AblationResult:
    cfg = ExperimentConfig(
        protocol="oneshot",
        f=2,
        deployment="local",
        local_latency_s=0.005,
        timeout_base=0.08,
        target_blocks=target_blocks,
        max_sim_time=120.0,
        seed=seed,
    )
    selector = lambda v: v >= 2 and v % 6 == 2  # noqa: E731

    def run(avoid: bool) -> RunResult:
        factory = oneshot_factory(
            OneShotOptions(avoid_revotes=avoid),
            lambda pid, cls: _revote_scenario_cls(cls, selector),
        )
        return run_experiment(cfg, replica_factory=factory, enable_message_log=True)

    on, off = run(True), run(False)
    return AblationResult(
        "avoid_revotes",
        on.stats,
        off.stats,
        on_delivers=_count_delivers(on),
        off_delivers=_count_delivers(off),
    )


# ----------------------------------------------------------------------
# VI-F(b) — avoid re-sending large blocks
# ----------------------------------------------------------------------
def ablate_omit_known_blocks(target_blocks: int = 24, seed: int = 29) -> AblationResult:
    """A periodically silent leader right after decisions: the timeout
    certificates are self-certified and the next leader co-signed the
    decided block's certificate, so the block can be omitted."""
    cfg = ExperimentConfig(
        protocol="oneshot",
        f=2,
        payload_bytes=256,
        deployment="local",
        local_latency_s=0.005,
        timeout_base=0.08,
        target_blocks=target_blocks,
        max_sim_time=120.0,
        seed=seed,
    )
    plan = FaultPlan().add(1, "silent-leader")

    def run(omit: bool) -> RunResult:
        factory = oneshot_factory(
            OneShotOptions(omit_known_blocks=omit), plan.factory()
        )
        return run_experiment(cfg, replica_factory=factory)

    on, off = run(True), run(False)
    return AblationResult(
        "omit_known_blocks",
        on.stats,
        off.stats,
        on_bytes=on.network.bytes_sent,
        off_bytes=off.network.bytes_sent,
    )


# ----------------------------------------------------------------------
# VI-F(c) — preempting catch-up executions
# ----------------------------------------------------------------------
def _preempt_scenario_cls(base_cls: Type, selector: Callable[[int], bool]) -> Type:
    """At a selected view v: the leader reaches only S = {v, v+3, v+4}
    with its proposal and *delays* the prepare-certificate broadcast,
    so the leader of v+1 starts a deliver phase from the mixed timeout
    certificates — and then receives the late prepare certificate."""

    class PreemptScenario(base_cls):  # type: ignore[misc, valid-type]
        forced = "preempt-scenario"

        def _roles(self, v):
            n = self.config.n
            return v % n, {v % n, (v + 3) % n, (v + 4) % n}

        def broadcast_at(self, when, payload, include_self=True):
            v = self.view
            if self.is_leader() and selector(v):
                if isinstance(payload, ProposalMsg):
                    _, s = self._roles(v)
                    self.transmit(when, tuple(s), payload)
                    return
                if isinstance(payload, PrepCertMsg):
                    late = max(when, self.sim.now) + 0.12
                    super().broadcast_at(late, payload, include_self)
                    return
            super().broadcast_at(when, payload, include_self)

        def send_at(self, when, dst, payload):
            from ..core.messages import VoteMsg

            # The deliver phase's votes crawl, so the late prepare
            # certificate arrives while the deliver phase is still
            # running — the exact race VI-F(c) targets.  Votes are only
            # ever unicast, so ``send_at`` sees every one.
            if isinstance(payload, VoteMsg) and selector(self.view - 1):
                when = max(when, self.sim.now) + 0.3
            super().send_at(when, dst, payload)

    return PreemptScenario


def ablate_preempt_catchup(target_blocks: int = 24, seed: int = 31) -> AblationResult:
    cfg = ExperimentConfig(
        protocol="oneshot",
        f=2,
        deployment="local",
        local_latency_s=0.005,
        timeout_base=0.08,
        target_blocks=target_blocks,
        max_sim_time=120.0,
        seed=seed,
    )
    selector = lambda v: v >= 2 and v % 6 == 2  # noqa: E731

    def run(preempt: bool) -> RunResult:
        factory = oneshot_factory(
            OneShotOptions(preempt_catchup=preempt),
            lambda pid, cls: _preempt_scenario_cls(cls, selector),
        )
        return run_experiment(cfg, replica_factory=factory, enable_message_log=True)

    on, off = run(True), run(False)
    return AblationResult(
        "preempt_catchup",
        on.stats,
        off.stats,
        on_delivers=_count_delivers(on),
        off_delivers=_count_delivers(off),
    )


def run_all_ablations(target_blocks: int = 24) -> list[AblationResult]:
    return [
        ablate_avoid_revotes(target_blocks),
        ablate_omit_known_blocks(target_blocks),
        ablate_preempt_catchup(target_blocks),
    ]


def render_ablations(results: list[AblationResult]) -> str:
    rows, cells = [], []
    for r in results:
        rows.append(r.axis)
        if r.off_bytes:
            extra = f"{(1 - r.on_bytes / r.off_bytes) * 100:+.1f}% bytes"
        elif r.on_delivers or r.off_delivers:
            extra = f"delivers {r.on_delivers} vs {r.off_delivers}"
        else:
            extra = "-"
        cells.append(
            [
                f"{r.on.throughput_tps:,.0f}",
                f"{r.off.throughput_tps:,.0f}",
                f"{r.on.mean_latency_s * 1e3:.1f}",
                f"{r.off.mean_latency_s * 1e3:.1f}",
                extra,
            ]
        )
    return render_table(
        "Sec. VI-F optimization ablations (on vs off)",
        rows,
        ["tput on", "tput off", "lat(ms) on", "lat(ms) off", "effect"],
        cells,
    )


__all__ = [
    "AXES",
    "AblationResult",
    "oneshot_factory",
    "ablate_avoid_revotes",
    "ablate_omit_known_blocks",
    "ablate_preempt_catchup",
    "run_all_ablations",
    "render_ablations",
]
