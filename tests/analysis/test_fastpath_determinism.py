"""Golden-fingerprint regression gate for the kernel fast path.

The simulation kernel's performance work (tuple heap, ``__slots__``
records, memoized digests, multicast fan-out, RNG stream cache) is
required to be *behaviour-preserving*: bit-identical event timelines,
message streams and decided chains for a fixed seed.  The behavioural
components (``timeline_hash``, ``chain_hash``, ``messages``,
``decisions``) were captured from the pre-fast-path kernel; any
divergence there means an optimization changed observable scheduling
or encoding and must be treated as a correctness bug, not re-pinned.

``events`` and the composite ``digest`` (which then folded it) were
re-pinned once, when a deferred broadcast became one event instead of
one per destination (``BaseReplica.transmit``): the event count fell by
(copies - 1) per deferred broadcast while the four behavioural
components, pinned on the commit before, did not move.  ``digest`` was
re-pinned once more when one :func:`repro.experiments.fingerprint`
replaced the per-driver fingerprints: it now folds every named
component and not ``events``, and the four components and ``events``
did not move.
"""

import dataclasses
from typing import NamedTuple

import pytest

from repro.experiments import fingerprint as fingerprint_run
from repro.experiments import run_experiment, run_sharded

from ..conftest import fingerprint, small_run
from ..shard.test_hot_path_2pc import CONFIG as SHARD_CONFIG


class Golden(NamedTuple):
    """One pinned run.  ``timeline_hash`` (every envelope: src, dst,
    type, size, send and deliver time, in order), ``chain_hash`` (every
    decision), ``messages`` and ``decisions`` are behaviour and never
    re-pinned.  ``events`` is kernel bookkeeping — how many callbacks
    the loop ran to produce that behaviour — pinned as a count so that
    a change to it is deliberate; ``digest`` folds every behaviour
    component but never ``events`` (docs/invariants.md, "Events are
    bookkeeping")."""

    events: int
    messages: int
    decisions: int
    timeline_hash: str
    chain_hash: str
    digest: str


def assert_golden(fp, golden: Golden) -> None:
    """Compare component by component, behaviour first, so a failure
    says *which* part of the fingerprint moved."""
    assert fp["timeline_hash"] == golden.timeline_hash
    assert fp["chain_hash"] == golden.chain_hash
    assert fp["messages_sent[0]"] == golden.messages
    assert fp["decisions"] == golden.decisions
    assert fp.events == golden.events
    assert fp.digest() == golden.digest


#: Captured at seed=7, f=1, target_blocks=6, 2 ms constant latency.
GOLDEN = {
    "oneshot": Golden(
        114,
        70,
        17,
        "9c9c816f30d9347e6ea7fdae50ffe2ee2ceb834d413309975288932b0185dfc4",
        "d293b62e2a23c9d0e56602096f182e6a0c436c6f20420e545127a0d917c8891b",
        "e997f881433f8ed0adb931c803a88c9266b494c464c192bc7e83b5055544d762",
    ),
    "damysus": Golden(
        180,
        109,
        17,
        "1dec53215805ce0589478c975d5d6bd70126d07d8cc2d44957b5475578b52350",
        "ada782385b6c0e4f5d915736771172627efc591640808854ed0606615f56f6cb",
        "fb79b9af7e4ff8921afe6b0401dd7dd1418a82b59fd2ecfa32cb222790fa49f0",
    ),
    "hotstuff": Golden(
        307,
        193,
        22,
        "df347d8791de214dfb85674f8b5938daebe99d4d99072ff9d5456812f792ba3c",
        "f61ff170d94b07cd1d16fbd7a147dd1ac5ae94d32b6b0f46ab1faa5e09d6ffae",
        "161ba16f5a824f25b37c44c93a1c8a90b67d1e1ee8ee608450eacd85ae837035",
    ),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_fingerprint_matches_pre_fastpath_golden(protocol):
    fp, _ = fingerprint(small_run(protocol, seed=7, f=1, target_blocks=6))
    assert_golden(fp, GOLDEN[protocol])


def test_fingerprint_is_replay_stable():
    """Two fresh runs in one process agree — digest memo caches and the
    RNG stream cache must not make a second run see different state."""
    a, _ = fingerprint(small_run("oneshot", seed=7, f=1, target_blocks=6))
    b, _ = fingerprint(small_run("oneshot", seed=7, f=1, target_blocks=6))
    assert a.digest() == b.digest()
    assert a.events == b.events


def _noop() -> None:
    pass


def _one_noop_event(sim, networks, clusters) -> None:
    """An ``instrument`` (either driver's) that schedules one event that
    does nothing."""
    sim.schedule(0.0, _noop)


def _run(shards: int, instrument=None):
    if shards == 1:
        config = small_run("oneshot", seed=7, f=1, target_blocks=6)
        return run_experiment(config, enable_message_log=True, instrument=instrument)
    config = dataclasses.replace(SHARD_CONFIG, max_sim_time=0.5)  # two shards
    return run_sharded(config, instrument=instrument)


@pytest.mark.parametrize("shards", [1, 2])
def test_bookkeeping_is_not_behaviour(shards):
    """One extra no-op event raises ``events`` by one and moves neither
    the digest nor any component (docs/invariants.md, "Events are
    bookkeeping")."""
    plain = fingerprint_run(_run(shards))
    padded = fingerprint_run(_run(shards, instrument=_one_noop_event))
    assert padded.events == plain.events + 1
    assert padded.components == plain.components
    assert padded.digest() == plain.digest()
