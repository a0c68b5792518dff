"""Golden-fingerprint regression gate for the kernel fast path.

The simulation kernel's performance work (tuple heap, ``__slots__``
records, memoized digests, multicast fan-out, RNG stream cache) is
required to be *behaviour-preserving*: bit-identical event timelines,
message streams and decided chains for a fixed seed.  The behavioural
components (``timeline_hash``, ``chain_hash``, ``messages``,
``decisions``) were captured from the pre-fast-path kernel; any
divergence there means an optimization changed observable scheduling
or encoding and must be treated as a correctness bug, not re-pinned.

``events`` and the composite ``digest`` that folds it were re-pinned
once, when a deferred broadcast became one event instead of one per
destination (``BaseReplica.transmit``): the event count fell by
(copies - 1) per deferred broadcast while the four behavioural
components, pinned on the commit before, did not move.
"""

from typing import NamedTuple

import pytest

from repro.analysis.sanitizer import fingerprint_run


class Golden(NamedTuple):
    """One pinned run.  ``timeline_hash`` (every envelope: src, dst,
    type, size, send and deliver time, in order), ``chain_hash`` (every
    decision), ``messages`` and ``decisions`` are behaviour and never
    re-pinned.  ``events`` is kernel bookkeeping — how many callbacks
    the loop ran to produce that behaviour — pinned as a count so that
    a change to it is deliberate, and ``digest`` is the composite that
    folds it (docs/invariants.md, "Events are bookkeeping")."""

    events: int
    messages: int
    decisions: int
    timeline_hash: str
    chain_hash: str
    digest: str


def assert_golden(fp, golden: Golden) -> None:
    """Compare component by component, behaviour first, so a failure
    says *which* part of the fingerprint moved."""
    assert fp.timeline_hash == golden.timeline_hash
    assert fp.chain_hash == golden.chain_hash
    assert fp.messages == golden.messages
    assert fp.decisions == golden.decisions
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
        "a03f7ab4400fef1d05bdf4d319ebb8be05f26e8d69cace46087b0e0bfdf6f80d",
    ),
    "damysus": Golden(
        180,
        109,
        17,
        "1dec53215805ce0589478c975d5d6bd70126d07d8cc2d44957b5475578b52350",
        "ada782385b6c0e4f5d915736771172627efc591640808854ed0606615f56f6cb",
        "0fc59a006d0951c13900c092b9ad3f27d186e97463b7b7288ae4831035b318df",
    ),
    "hotstuff": Golden(
        307,
        193,
        22,
        "df347d8791de214dfb85674f8b5938daebe99d4d99072ff9d5456812f792ba3c",
        "f61ff170d94b07cd1d16fbd7a147dd1ac5ae94d32b6b0f46ab1faa5e09d6ffae",
        "6bfa865308ef8e2b887a9b2580ef7d38e70ec146969a38c27ddc0bd9b748d5a2",
    ),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_fingerprint_matches_pre_fastpath_golden(protocol):
    fp, _ = fingerprint_run(protocol, seed=7, f=1, target_blocks=6)
    assert_golden(fp, GOLDEN[protocol])


def test_fingerprint_is_replay_stable():
    """Two fresh runs in one process agree — digest memo caches and the
    RNG stream cache must not make a second run see different state."""
    a, _ = fingerprint_run("oneshot", seed=7, f=1, target_blocks=6)
    b, _ = fingerprint_run("oneshot", seed=7, f=1, target_blocks=6)
    assert a.digest() == b.digest()

