"""Golden-fingerprint regression gate for the kernel fast path.

The simulation kernel's performance work (tuple heap, ``__slots__``
records, memoized digests, multicast fan-out, RNG stream cache) is
required to be *behaviour-preserving*: bit-identical event timelines,
message streams and decided chains for a fixed seed.  These digests
were captured from the pre-fast-path kernel; any divergence means an
optimization changed observable scheduling or encoding and must be
treated as a correctness bug, not re-pinned.
"""

from typing import NamedTuple

import pytest

from repro.analysis.sanitizer import fingerprint_run


class Golden(NamedTuple):
    """One pinned run.  ``timeline_hash`` (every envelope: src, dst,
    type, size, send and deliver time, in order), ``chain_hash`` (every
    decision), ``messages`` and ``decisions`` are behaviour and never
    re-pinned.  ``events`` is kernel bookkeeping — how many callbacks
    the loop ran to produce that behaviour — pinned as a count, and
    ``digest`` is the composite that folds it (docs/invariants.md)."""

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
        138,
        70,
        17,
        "9c9c816f30d9347e6ea7fdae50ffe2ee2ceb834d413309975288932b0185dfc4",
        "d293b62e2a23c9d0e56602096f182e6a0c436c6f20420e545127a0d917c8891b",
        "e83d05b058ccbfa8c1d9f46180b836fb414420f4b62b9a3a8139bb3b25f08ad9",
    ),
    "damysus": Golden(
        216,
        109,
        17,
        "1dec53215805ce0589478c975d5d6bd70126d07d8cc2d44957b5475578b52350",
        "ada782385b6c0e4f5d915736771172627efc591640808854ed0606615f56f6cb",
        "5d89ab2c74def6c0f527d094a94833cdd2dcef7781f481019d108d07ea3ffefa",
    ),
    "hotstuff": Golden(
        379,
        193,
        22,
        "df347d8791de214dfb85674f8b5938daebe99d4d99072ff9d5456812f792ba3c",
        "f61ff170d94b07cd1d16fbd7a147dd1ac5ae94d32b6b0f46ab1faa5e09d6ffae",
        "e1b44e16c61b3092e8c8b81bb7e2f5f2574a04cdca817f9a3d895bef3c3ff97c",
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


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_fingerprint_identical_with_verification_memo_disabled(protocol):
    """The verification memos (PR 3) elide only redundant Python work:
    with the cache switched off entirely, every run still reproduces
    the same golden fingerprint — simulated time and decisions are a
    function of *charged* cost, never of wall-clock shortcuts."""
    from repro.crypto import memo

    prev = memo.set_enabled(False)
    try:
        fp, _ = fingerprint_run(protocol, seed=7, f=1, target_blocks=6)
    finally:
        memo.set_enabled(prev)
    assert_golden(fp, GOLDEN[protocol])
