"""Unit tests for latency models."""

import numpy as np
import pytest

from repro.net import ConstantLatency, TopologyLatency, UniformLatency
from repro.net.regions import EU4, US4, WORLD11

RNG = np.random.default_rng(0)


def test_constant_latency():
    m = ConstantLatency(0.01)
    assert m.sample(0, 1, RNG) == 0.01
    assert m.sample(2, 5, RNG) == 0.01


def test_constant_loopback_is_tiny():
    m = ConstantLatency(0.01)
    assert m.sample(3, 3, RNG) < 1e-5


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_uniform_within_bounds():
    m = UniformLatency(0.01, 0.02)
    samples = [m.sample(0, 1, RNG) for _ in range(100)]
    assert all(0.01 <= s <= 0.02 for s in samples)


def test_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        UniformLatency(0.02, 0.01)


def test_topology_latency_mean_matches_matrix():
    m = TopologyLatency(EU4, sigma=0.05)
    base = EU4.one_way_s(0, 3)
    samples = np.array([m.sample(0, 3, RNG) for _ in range(500)])
    # Log-normal with small sigma: mean within a few percent of base.
    assert abs(samples.mean() - base) / base < 0.05


def test_topology_latency_zero_sigma_is_deterministic():
    m = TopologyLatency(EU4, sigma=0.0)
    assert m.sample(0, 3, RNG) == m.sample(0, 3, RNG) == EU4.one_way_s(0, 3)


def test_topology_latency_jitter_varies():
    m = TopologyLatency(EU4, sigma=0.1)
    samples = {m.sample(0, 3, RNG) for _ in range(10)}
    assert len(samples) > 1


def test_topology_rejects_negative_sigma():
    with pytest.raises(ValueError):
        TopologyLatency(EU4, sigma=-0.1)


def test_topology_loopback_is_tiny():
    m = TopologyLatency(EU4)
    assert m.sample(2, 2, RNG) < 1e-5


@pytest.mark.parametrize("topology", [EU4, US4, WORLD11], ids=lambda t: t.name)
def test_topology_latency_reads_exactly_one_way_s(topology):
    """Jitter-free samples — scalar and batched — equal
    ``Topology.one_way_s`` for every node pair, loopback excepted."""
    m = TopologyLatency(topology, sigma=0.0)
    nodes = list(range(2 * len(topology.regions) + 1))
    for src in nodes:
        many = m.sample_many(src, nodes, RNG)
        for dst, batched in zip(nodes, many):
            want = 1e-6 if src == dst else topology.one_way_s(src, dst)
            assert m.sample(src, dst, RNG) == want
            assert batched == want


def test_topology_loopback_draws_nothing():
    """Loopback returns before the region lookup and before any draw."""
    m = TopologyLatency(WORLD11, sigma=0.06)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert m.sample(4, 4, rng) == 1e-6
    assert m.sample_many(4, [4, 4], rng) == [1e-6, 1e-6]
    assert rng.bit_generator.state == before
