"""Runtime sanitizers: determinism replay and an equivocation oracle.

The static rules in :mod:`repro.analysis.rules` catch *sources* of
nondeterminism; this module catches the *symptom*.  It runs a small
cluster twice under the same root seed, fingerprints each run (hash of
the full message timeline plus hash of the decided chain), and fails
loudly on any divergence — which is exactly what a stray ``time.time()``
or an unseeded generator produces.

The equivocation oracle replays a run's decision records and asserts
the TEE guarantee the protocols are built on (Sec. IV): no two
conflicting blocks are certified/decided in the same view, and all
replicas decide prefix-consistent chains.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..metrics import MetricsCollector
from ..net import ConstantLatency, Network
from ..net.latency import LatencyModel
from ..protocols.common import ProtocolConfig, build_cluster
from ..protocols.registry import get_protocol
from ..sim import Simulator


class DeterminismViolation(AssertionError):
    """Two same-seed runs produced different traces."""


class EquivocationDetected(AssertionError):
    """Conflicting blocks were decided in the same view."""


@dataclass(frozen=True)
class RunFingerprint:
    """Canonical digest of one run's observable behaviour."""

    protocol: str
    seed: int
    events: int
    messages: int
    decisions: int
    timeline_hash: str
    chain_hash: str

    def digest(self) -> str:
        return hashlib.sha256(
            f"{self.timeline_hash}:{self.chain_hash}:{self.events}:"
            f"{self.messages}".encode()
        ).hexdigest()


def _hash_timeline(message_log) -> str:
    h = hashlib.sha256()
    for env in message_log:
        h.update(
            f"{env.src}>{env.dst}:{type(env.payload).__name__}:{env.size}:"
            f"{env.send_time!r}:{env.deliver_time!r}\n".encode()
        )
    return h.hexdigest()


def _hash_chain(collector: MetricsCollector) -> str:
    h = hashlib.sha256()
    for d in sorted(
        collector.decisions, key=lambda d: (d.time, d.replica, d.view)
    ):
        h.update(
            f"{d.replica}:{d.view}:{d.block_hash.hex()}:{d.ntxs}:"
            f"{d.time!r}:{d.kind}\n".encode()
        )
    return h.hexdigest()


def fingerprint_of(
    protocol: str,
    seed: int,
    sim: Simulator,
    network: Network,
    collector: MetricsCollector,
) -> RunFingerprint:
    """Fingerprint an already-executed run (message log must be on).

    Extracted from :func:`fingerprint_run` so harnesses that build
    their own cluster (the fuzzer, the experiment runner) produce
    digests on the same canonical form.
    """
    if network.message_log is None:
        raise ValueError("fingerprinting requires network.enable_log()")
    return RunFingerprint(
        protocol=protocol,
        seed=seed,
        events=sim.events_executed,
        messages=len(network.message_log),
        decisions=len(collector.decisions),
        timeline_hash=_hash_timeline(network.message_log),
        chain_hash=_hash_chain(collector),
    )


def fingerprint_run(
    protocol: str = "oneshot",
    seed: int = 7,
    f: int = 1,
    target_blocks: int = 6,
    latency: Optional[LatencyModel] = None,
    latency_s: float = 0.002,
    timeout_base: float = 0.2,
    max_sim_time: float = 60.0,
    gst: float = 0.0,
    pre_gst_extra: float = 0.0,
    setup=None,
    replica_factory=None,
) -> tuple[RunFingerprint, MetricsCollector]:
    """Run a small cluster to ``target_blocks`` and fingerprint it.

    ``gst``/``pre_gst_extra`` configure pre-GST asynchrony, ``setup``
    (if given) is called with the built
    :class:`~repro.net.network.Network` before the run — the hook
    point for installing delay hooks or other conditions — and
    ``replica_factory`` is forwarded to ``build_cluster`` (the zoo
    property tests fingerprint clusters carrying inert fault mixins).
    """
    info = get_protocol(protocol)
    sim = Simulator(seed=seed)
    network = Network(
        sim,
        latency=latency or ConstantLatency(latency_s),
        gst=gst,
        pre_gst_extra=pre_gst_extra,
    )
    network.enable_log()
    if setup is not None:
        setup(network)
    cluster = build_cluster(
        info.replica_cls,
        sim,
        network,
        ProtocolConfig(n=info.n_for(f), f=f, timeout_base=timeout_base),
        replica_factory=replica_factory,
    )
    cluster.start()
    cluster.replicas[0].log.when_length(target_blocks, sim.stop)
    sim.run(until=max_sim_time)
    cluster.stop()
    fp = fingerprint_of(protocol, seed, sim, network, cluster.collector)
    return fp, cluster.collector


def check_determinism(
    protocol: str = "oneshot",
    seed: int = 7,
    runs: int = 2,
    latency_factory=None,
    **kwargs,
) -> RunFingerprint:
    """Replay the same seeded run ``runs`` times; raise on divergence.

    ``latency_factory`` (if given) is called once per run to build a
    fresh latency model — which is how the test suite injects a
    deliberately nondeterministic clock and proves the sanitizer
    catches it.
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    first: Optional[RunFingerprint] = None
    for i in range(runs):
        latency = latency_factory() if latency_factory is not None else None
        fp, _ = fingerprint_run(protocol=protocol, seed=seed, latency=latency, **kwargs)
        if first is None:
            first = fp
        elif fp != first:
            diffs = [
                name
                for name in (
                    "events",
                    "messages",
                    "decisions",
                    "timeline_hash",
                    "chain_hash",
                )
                if getattr(fp, name) != getattr(first, name)
            ]
            raise DeterminismViolation(
                f"run {i + 1} of {protocol!r} (seed {seed}) diverged from "
                f"run 1 in: {', '.join(diffs)}"
            )
    assert first is not None
    return first


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


def assert_no_equivocation(collector: MetricsCollector) -> None:
    """Raise :class:`EquivocationDetected` if the run is unsafe."""
    problems = find_equivocations(collector)
    if problems:
        raise EquivocationDetected("; ".join(problems))


def replay_and_check(
    protocol: str = "oneshot", seed: int = 7, **kwargs
) -> RunFingerprint:
    """One-call gate: deterministic replay *and* equivocation oracle."""
    fp, collector = fingerprint_run(protocol=protocol, seed=seed, **kwargs)
    fp2, _ = fingerprint_run(protocol=protocol, seed=seed, **kwargs)
    if fp2 != fp:
        raise DeterminismViolation(
            f"{protocol!r} (seed {seed}) is not replay-stable"
        )
    assert_no_equivocation(collector)
    return fp


__all__ = [
    "RunFingerprint",
    "DeterminismViolation",
    "EquivocationDetected",
    "fingerprint_of",
    "fingerprint_run",
    "check_determinism",
    "find_equivocations",
    "assert_no_equivocation",
    "replay_and_check",
]
