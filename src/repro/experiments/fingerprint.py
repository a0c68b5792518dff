"""One behaviour fingerprint for every run.

:func:`fingerprint` reads a finished :class:`~repro.experiments.RunResult`
or :class:`~repro.experiments.ShardRun` and names what the run did:

* per group ``g``: the reference replica's committed chain
  (``log_digest[g]``) and application state (``state_digest[g]``), and
  the group fabric's ``messages_sent[g]`` and ``bytes_sent[g]``;
* ``timeline_hash`` (every envelope, in order) when the message log is on;
* ``chain_hash`` (every decision) and ``decisions`` when the run keeps
  decision records (``streaming_metrics`` off);
* ``table_digest[e]`` per routing epoch when a router ran, and
  ``coordinator_log`` (the 2PC decisions) when a coordinator ran;
* ``sim_now``, where simulated time ended.

``events`` (how many callbacks the kernel ran) sits beside the
components and is never folded: it is bookkeeping, not behaviour
(docs/invariants.md).  Every value is computed from the finished run
without the digest memos, so taking a fingerprint refills none.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

from ..crypto import encode, sha256
from ..metrics import MetricsCollector
from ..net import Envelope
from .runner import RunResult
from .shard import ShardRun

#: A component's value: a hex digest, a count, or ``repr`` of a time.
Component = Union[str, int]


@dataclass(frozen=True)
class Fingerprint:
    """A run's named behaviour components, with its event count beside
    them."""

    components: dict[str, Component]
    events: int

    def __getitem__(self, name: str) -> Component:
        return self.components[name]

    def digest(self) -> str:
        """SHA-256 over the components by name (``events`` is not folded)."""
        return sha256(encode(sorted(self.components.items()))).hex()


def _hash_timeline(logs: Iterable[list[Envelope]]) -> str:
    h = hashlib.sha256()
    for log in logs:
        for env in log:
            h.update(
                f"{env.src}>{env.dst}:{type(env.payload).__name__}:{env.size}:"
                f"{env.send_time!r}:{env.deliver_time!r}\n".encode()
            )
    return h.hexdigest()


def _hash_chain(collectors: Iterable[MetricsCollector]) -> str:
    """Every decision, group by group.  A collector that keeps no
    decisions raises :class:`~repro.metrics.DecisionsNotKept`."""
    h = hashlib.sha256()
    for collector in collectors:
        for d in sorted(
            collector.decisions, key=lambda d: (d.time, d.replica, d.view)
        ):
            h.update(
                f"{d.replica}:{d.view}:{d.block_hash.hex()}:{d.ntxs}:"
                f"{d.time!r}:{d.kind}\n".encode()
            )
    return h.hexdigest()


def fingerprint(run: Union[RunResult, ShardRun]) -> Fingerprint:
    """The behaviour fingerprint of a finished run of either driver."""
    config = run.config
    if isinstance(run, ShardRun):
        clusters, networks = run.clusters, run.networks
        router, coordinator = run.router, run.coordinator
    else:
        clusters, networks = [run.cluster], [run.network]
        router = run.pump.router if run.pump is not None else None
        coordinator = None
    components: dict[str, Component] = {}
    for g, (cluster, network) in enumerate(zip(clusters, networks)):
        log = cluster.replicas[config.reference_pid].log
        components[f"log_digest[{g}]"] = log.log_digest().hex()
        components[f"state_digest[{g}]"] = log.state.state_digest().hex()
        components[f"messages_sent[{g}]"] = network.messages_sent
        components[f"bytes_sent[{g}]"] = network.bytes_sent
    if networks[0].message_log is not None:
        components["timeline_hash"] = _hash_timeline(n.message_log for n in networks)
    if not config.streaming_metrics:
        collectors = [c.collector for c in clusters]
        components["chain_hash"] = _hash_chain(collectors)
        components["decisions"] = sum(len(c.decisions) for c in collectors)
    if router is not None:
        for table in router.history:
            components[f"table_digest[{table.epoch}]"] = table.table_digest().hex()
    if coordinator is not None:
        components["coordinator_log"] = sha256(encode(tuple(
            (xid, outcome, repr(t)) for xid, outcome, t in coordinator.decision_log
        ))).hex()
    components["sim_now"] = repr(run.sim.now)
    return Fingerprint(components, run.sim.events_executed)


__all__ = ["Component", "Fingerprint", "fingerprint"]
