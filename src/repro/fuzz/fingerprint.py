"""Canonical fingerprint of one executed run.

Every harness that replays runs fingerprints a finished
:func:`~repro.experiments.run_experiment` run (message log on) through
:func:`fingerprint_of`: the fuzzer (:mod:`repro.fuzz.harness`, the
corpus) and the tests' determinism goldens and same-seed replays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..metrics import MetricsCollector
from ..net import Network
from ..sim import Simulator


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

    Every digest shares this form, whoever ran the run (the fuzzer,
    the experiment runner or a test).
    A collector that keeps no decisions raises
    :class:`~repro.metrics.DecisionsNotKept`.
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


__all__ = ["RunFingerprint", "fingerprint_of"]
