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

from typing import Optional

from ..crypto import clear_digest_memos
from ..fuzz import RunFingerprint, find_equivocations, fingerprint_of
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
    try:
        cluster.start()
        cluster.replicas[0].log.when_length(target_blocks, sim.stop)
        sim.run(until=max_sim_time)
        cluster.stop()
    finally:
        # As in run_experiment: the ended run lets go of its cycles.
        sim.close()
        network.close()
        clear_digest_memos()
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
    "DeterminismViolation",
    "EquivocationDetected",
    "fingerprint_run",
    "check_determinism",
    "assert_no_equivocation",
    "replay_and_check",
]
