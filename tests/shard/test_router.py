"""Deterministic router: stability, versioning, classification."""

import numpy as np
import pytest

from repro.shard import (
    HOT_ROUTING_KEY,
    Router,
    RoutingTable,
    initial_table,
    mix64,
)
from repro.smr import TxBatch

_MASK = (1 << 64) - 1


def mix64_scalar(x: int) -> int:
    """Scalar splitmix64 with the router's slot salt: the oracle for
    :func:`mix64`, one Python int at a time."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _batch(n: int = 256, base: int = 1_000_000) -> TxBatch:
    rng = np.random.default_rng(3)
    cids = base + rng.integers(0, 500, size=n)
    tids = np.arange(n, dtype=np.int64)
    times = np.cumsum(rng.exponential(0.001, size=n))
    return TxBatch.columns(cids, tids, times, 0)


def test_mix64_scalar_matches_vectorized():
    xs = np.array([0, 1, 17, 2**40, 2**63], dtype=np.uint64)
    vec = mix64(xs)
    for x, v in zip(xs.tolist(), vec.tolist()):
        assert mix64_scalar(int(x)) == int(v)


def _shards_of(router: Router, cids) -> list[int]:
    """Home shard per client id: slot, then the table's slot owner."""
    slots = router.slots_of(np.asarray(cids, dtype=np.int64))
    return [router.table.slot_to_shard[s] for s in slots.tolist()]


def test_key_to_shard_is_stable_across_router_instances():
    cids = range(1_000_000, 1_000_200)
    assert _shards_of(Router(4, slots=32), cids) == _shards_of(
        Router(4, slots=32), cids
    )


def test_classification_is_stable_and_covers_all_shards():
    router = Router(4, slots=32, cross_permille=200)
    batch = _batch()
    s1 = router.classify(batch)
    s2 = router.classify(batch)
    for x, y in zip(s1, s2):
        assert np.array_equal(x, y)
    slots, home, cross, partner = s1
    assert set(np.unique(home)) <= set(range(4))
    assert len(set(np.unique(home))) > 1  # load actually spreads
    # Cross rows name a distinct partner shard.
    assert np.all(partner[cross] != home[cross])


def test_classify_home_agrees_with_slot_table():
    router = Router(3, slots=27)
    batch = _batch()
    _, home, _, _ = router.classify(batch)
    assert home.tolist() == _shards_of(router, batch.client_ids)


def test_epoch_versioning_and_history():
    router = Router(2, slots=8)
    assert router.epoch == 0
    t0 = router.table
    t1 = router.advance((0, 0, 0, 0, 1, 1, 1, 1))
    assert router.epoch == 1 and t1.epoch == 1
    assert router.history == [t0, t1]
    assert t0.table_digest() != t1.table_digest()
    # Same assignment at a different epoch digests differently.
    assert (
        RoutingTable(epoch=2, slot_to_shard=t1.slot_to_shard).table_digest()
        != t1.table_digest()
    )


def test_advance_must_preserve_slot_count():
    router = Router(2, slots=8)
    with pytest.raises(ValueError):
        router.advance((0, 1))


def test_rebalance_moves_keys_with_their_slot():
    router = Router(2, slots=8)
    cid = 1_000_042
    slot = int(router.slots_of(np.asarray([cid]))[0])
    [before] = _shards_of(router, [cid])
    flipped = list(router.table.slot_to_shard)
    flipped[slot] = 1 - flipped[slot]
    router.advance(tuple(flipped))
    # The key's slot never changes; only the slot's shard does.
    assert int(router.slots_of(np.asarray([cid]))[0]) == slot
    assert _shards_of(router, [cid]) == [1 - before]


def test_hot_key_collapse_routes_to_one_slot():
    router = Router(4, slots=32, hot_permille=1000)
    batch = _batch()
    slots = router.slots_of(batch.client_ids)
    assert len(np.unique(slots)) == 1
    expected = mix64_scalar(HOT_ROUTING_KEY) % 32
    assert int(slots[0]) == expected


def test_initial_table_round_robin():
    table = initial_table(3, slots=9)
    assert table.slot_to_shard == (0, 1, 2, 0, 1, 2, 0, 1, 2)
    with pytest.raises(ValueError):
        initial_table(4, slots=2)
