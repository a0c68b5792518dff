"""Safety and liveness oracles for fuzzed runs.

Every generated scenario is judged by both:

* **safety** — restricted to *correct* replicas: the equivocation
  oracle (no view decides two blocks, per-replica chains
  prefix-consistent — :func:`find_equivocations`) plus
  a direct :func:`repro.smr.prefix_agreement` over the execution logs.
  A run that crashed a correct replica mid-commit is still examined:
  whatever decisions were recorded before the crash are evidence.
* **liveness** — after the scenario quiesces (fault windows closed,
  conditions lifted, GST passed) the reference replica must reach the
  target block count within the scenario's generous sim-time budget.

Failures rank ``safety > crash > liveness``: a safety violation is
reported even when the run also stalled or raised, because a fork
routinely *causes* downstream crashes (``ExecutionLog`` refuses
conflicting executions) and the fork is the root cause worth shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics import MetricsCollector
from ..protocols.common import Cluster
from ..smr import prefix_agreement
from .scenario import Scenario

def find_equivocations(
    collector: MetricsCollector, replicas: Optional[set[int]] = None
) -> list[str]:
    """Conflicts in a run's decision records (empty means safe).

    Checks the two safety properties the trusted services guarantee:

    * **view agreement** — all decisions recorded for one view commit
      the same block (the once-per-view TEE counters make certifying
      two blocks in one view impossible);
    * **prefix consistency** — any two replicas' decided hash
      sequences agree on their common prefix.

    ``replicas`` (if given) restricts the oracle to those pids — the
    fuzzer's safety oracle judges only *correct* replicas, since a
    Byzantine replica's own decision records carry no guarantees.
    A collector that keeps no decisions raises
    :class:`~repro.metrics.DecisionsNotKept` instead of a vacuous
    "safe".
    """
    decisions = collector.decisions
    if replicas is not None:
        decisions = [d for d in decisions if d.replica in replicas]
    problems: list[str] = []
    by_view: dict[int, set] = {}
    for d in decisions:
        by_view.setdefault(d.view, set()).add(d.block_hash)
    for view in sorted(by_view):
        hashes = by_view[view]
        if len(hashes) > 1:
            short = ", ".join(sorted(h.hex()[:12] for h in hashes))
            problems.append(
                f"view {view}: {len(hashes)} conflicting blocks decided ({short})"
            )
    chains: dict[int, list] = {}
    for d in sorted(decisions, key=lambda d: (d.time, d.view)):
        chains.setdefault(d.replica, []).append(d.block_hash)
    pids = sorted(chains)
    for i, a in enumerate(pids):
        for b in pids[i + 1 :]:
            ca, cb = chains[a], chains[b]
            for k, (ha, hb) in enumerate(zip(ca, cb)):
                if ha != hb:
                    problems.append(
                        f"replicas {a} and {b} diverge at height {k}: "
                        f"{ha.hex()[:12]} vs {hb.hex()[:12]}"
                    )
                    break
    return problems


#: Failure kinds, most severe first.
SAFETY = "safety"
CRASH = "crash"
LIVENESS = "liveness"


@dataclass(frozen=True)
class OracleReport:
    """Verdict of both oracles on one run."""

    safety_problems: tuple[str, ...]
    blocks_decided: int
    target_blocks: int
    crashed: Optional[str] = None

    @property
    def safety_ok(self) -> bool:
        return not self.safety_problems

    @property
    def liveness_ok(self) -> bool:
        return self.blocks_decided >= self.target_blocks

    @property
    def failure(self) -> Optional[str]:
        """Most severe failure kind, or None for a clean run."""
        if not self.safety_ok:
            return SAFETY
        if self.crashed is not None:
            return CRASH
        if not self.liveness_ok:
            return LIVENESS
        return None

    def describe(self) -> str:
        if self.failure is None:
            return f"ok ({self.blocks_decided}/{self.target_blocks} blocks)"
        if self.failure == SAFETY:
            return "SAFETY: " + "; ".join(self.safety_problems)
        if self.failure == CRASH:
            return f"CRASH: {self.crashed}"
        return (
            f"LIVENESS: {self.blocks_decided}/{self.target_blocks} "
            "blocks by deadline"
        )


def check_safety(cluster: Cluster) -> list[str]:
    """Safety problems among the cluster's correct replicas."""
    correct = cluster.correct_replicas()
    correct_pids = {r.pid for r in correct}
    problems = find_equivocations(cluster.collector, replicas=correct_pids)
    if correct and not prefix_agreement([r.log for r in correct]):
        problems.append("correct replicas' execution logs are not prefix-consistent")
    return problems


def judge(
    scenario: Scenario, cluster: Cluster, crashed: Optional[str] = None
) -> OracleReport:
    """Run both oracles over a finished (or crashed) run."""
    reference = cluster.replicas[scenario.reference_pid]
    return OracleReport(
        safety_problems=tuple(check_safety(cluster)),
        blocks_decided=len(reference.log),
        target_blocks=scenario.target_blocks,
        crashed=crashed,
    )


def judge_sharded(
    scenario: Scenario,
    shard_clusters: list[Cluster],
    crashed: Optional[str] = None,
) -> OracleReport:
    """Joint verdict over a sharded run.

    Per-shard safety (equivocation + prefix agreement) plus the
    cross-shard atomicity oracle — a partial multi-key commit is a
    *safety* failure (it is disagreement about committed state, exactly
    what shrinking should chase).  Liveness requires every shard's
    reference replica to reach the target block count.
    """
    from ..shard import check_atomicity

    problems: list[str] = []
    for shard, cluster in enumerate(shard_clusters):
        problems += [f"shard {shard}: {p}" for p in check_safety(cluster)]
    problems += check_atomicity(shard_clusters).violations
    blocks = min(
        len(c.replicas[scenario.reference_pid].log) for c in shard_clusters
    )
    return OracleReport(
        safety_problems=tuple(problems),
        blocks_decided=blocks,
        target_blocks=scenario.target_blocks,
        crashed=crashed,
    )


__all__ = [
    "OracleReport",
    "check_safety",
    "find_equivocations",
    "judge",
    "judge_sharded",
    "SAFETY",
    "CRASH",
    "LIVENESS",
]
