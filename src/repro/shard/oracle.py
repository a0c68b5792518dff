"""Cross-shard atomicity oracle.

Invariant (docs/invariants.md): **no shard ever applies a partial
multi-key transaction** — for every 2PC transaction id, the decision
recorded in the shards' committed chains is unanimous across every
touched shard, and a commit is only ever applied over a staged prepare.

The oracle reads each shard's replica state machines directly:

* *intra-shard prefix consistency* — correct replicas of one shard
  execute prefixes of the same chain, so a replica that lags at the
  run's cutoff must hold a *subset* of the reference replica's 2PC
  history, and no two replicas may ever disagree on an xid's outcome;
* *cross-shard unanimity* — an xid committed on one shard and aborted
  on another is a violation;
* *conservation* — every committed transfer moved one unit between
  account keys, so the account total across all shards is bounded by
  the number of transfers whose commit has (so far) been applied on
  only one of its two shards, and is exactly zero once none remain.

Prepared-but-undecided transactions are *not* violations (the decision
may still be in flight when a run is cut off); they are reported
separately so liveness-style checks can bound them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..smr.execution import COMMITTED


@dataclass
class AtomicityReport:
    """Joint verdict over all shards' committed state."""

    violations: list[str] = field(default_factory=list)
    committed: set[int] = field(default_factory=set)
    aborted: set[int] = field(default_factory=set)
    undecided: set[int] = field(default_factory=set)
    #: Commits applied on one touched shard but not (yet) the other.
    partial_commits: set[int] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return (
                f"atomicity ok: {len(self.committed)} committed, "
                f"{len(self.aborted)} aborted, "
                f"{len(self.undecided)} undecided, "
                f"{len(self.partial_commits)} in flight"
            )
        return "ATOMICITY: " + "; ".join(self.violations)


class _Outcomes(NamedTuple):
    undecided: set[int]
    committed: set[int]
    aborted: set[int]


def _outcomes(state) -> _Outcomes:
    """One pass over a store's 2PC table (xid → staged ops or a decided
    state, :class:`~repro.smr.KVStore`)."""
    out = _Outcomes(set(), set(), set())
    for xid, s in state.x_table.items():
        if s == COMMITTED:
            out.committed.add(xid)
        elif type(s) is tuple:
            out.undecided.add(xid)
        else:
            out.aborted.add(xid)
    return out


def check_atomicity(shard_clusters) -> AtomicityReport:
    """Judge the 2PC histories of a sharded run.

    ``shard_clusters`` is a sequence of per-shard clusters (only their
    correct replicas are consulted — Byzantine state machines may
    record anything).
    """
    report = AtomicityReport()
    # Per-shard: correct replicas hold prefixes of one chain, so their
    # 2PC histories must nest inside the most-advanced replica's and
    # never contradict it.  The reference is the longest log.
    per_shard: list[tuple[set[int], set[int], set[int]]] = []
    for shard, cluster in enumerate(shard_clusters):
        replicas = cluster.correct_replicas()
        if not replicas:
            per_shard.append((set(), set(), set()))
            continue
        ref = _outcomes(max(replicas, key=lambda r: len(r.log)).log.state)
        for r in replicas:
            st = _outcomes(r.log.state)
            conflicts = (st.committed & ref.aborted) | (
                st.aborted & ref.committed
            )
            for xid in sorted(conflicts):
                report.violations.append(
                    f"shard {shard}: replica {r.pid} decided 2PC tx "
                    f"{xid} differently from the reference replica"
                )
            lagging = (st.committed - ref.committed) | (
                st.aborted - ref.aborted
            )
            for xid in sorted(lagging - conflicts):
                report.violations.append(
                    f"shard {shard}: replica {r.pid} decided 2PC tx "
                    f"{xid} which the longest log has not"
                )
        per_shard.append(ref)

    # Cross-shard: decisions must be unanimous.
    commit_shards: dict[int, int] = {}
    for shard, (undecided, committed, aborted) in enumerate(per_shard):
        report.committed |= committed
        report.aborted |= aborted
        report.undecided |= undecided
        for xid in committed:
            commit_shards[xid] = commit_shards.get(xid, 0) + 1
        for other in range(shard + 1, len(per_shard)):
            both = (committed & per_shard[other][2]) | (
                aborted & per_shard[other][1]
            )
            for xid in sorted(both):
                report.violations.append(
                    f"2PC tx {xid}: committed on one of shards "
                    f"{shard}/{other} but aborted on the other"
                )
    report.undecided -= report.committed | report.aborted
    # A transfer touches exactly two shards; a commit applied on only
    # one of them is still propagating (or the run was cut off).
    report.partial_commits = {
        xid for xid, n in commit_shards.items() if n == 1
    }

    # Conservation: committed transfers are one-unit moves between
    # acct<home> and acct<partner>, so the global account total equals
    # the signed sum of half-applied commits — bounded by their count,
    # and exactly zero when every applied commit landed on both shards.
    total = 0
    for shard, cluster in enumerate(shard_clusters):
        replicas = cluster.correct_replicas()
        if not replicas:
            continue
        state = max(replicas, key=lambda r: len(r.log)).log.state
        total += int(state.get(f"acct{shard}", 0))
    if abs(total) > len(report.partial_commits):
        report.violations.append(
            f"conservation broken: account total {total} with only "
            f"{len(report.partial_commits)} half-applied commits — some "
            f"shard applied a partial transfer"
        )
    return report


__all__ = ["AtomicityReport", "check_atomicity"]
