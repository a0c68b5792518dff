"""Unit tests for latency models."""

import numpy as np
import pytest

from repro.net import ConstantLatency, Network, TopologyLatency
from repro.net.regions import EU4, US4, WORLD11
from repro.sim import Process, Simulator

from ..conftest import UniformLatency

RNG = np.random.default_rng(0)


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.got = []

    def on_message(self, sender, payload):
        self.got.append(self.sim.now)


def loopback_delay(latency, pid):
    """Send ``pid`` a message from itself over a network using
    ``latency`` and return when it arrives."""
    sim = Simulator(0)
    net = Network(sim, latency)
    sink = Sink(sim, pid)
    net.register(sink)
    net.send(pid, pid, "self")
    sim.run()
    return sink.got[0]


def test_constant_latency():
    m = ConstantLatency(0.01)
    assert m.sample(0, 1, RNG) == 0.01
    assert m.sample(2, 5, RNG) == 0.01


def test_constant_loopback_is_tiny():
    assert loopback_delay(ConstantLatency(0.01), 3) < 1e-5


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
    assert loopback_delay(TopologyLatency(EU4), 2) < 1e-5


@pytest.mark.parametrize("topology", [EU4, US4, WORLD11], ids=lambda t: t.name)
def test_topology_latency_reads_exactly_one_way_s(topology):
    """Jitter-free samples — scalar and batched — equal
    ``Topology.one_way_s`` for every pair of distinct nodes."""
    m = TopologyLatency(topology, sigma=0.0)
    nodes = list(range(2 * len(topology.regions) + 1))
    for src in nodes:
        remote = [dst for dst in nodes if dst != src]
        many = m.sample_many(src, remote, RNG)
        for dst, batched in zip(remote, many):
            want = topology.one_way_s(src, dst)
            assert m.sample(src, dst, RNG) == want
            assert batched == want


def test_topology_loopback_draws_nothing():
    """The network owns loopback: a copy to oneself is delivered 1 µs
    later and never reaches the latency model, so it draws nothing."""
    sim = Simulator(5)
    net = Network(sim, TopologyLatency(WORLD11, sigma=0.06), gst=1.0, pre_gst_extra=0.5)
    net.enable_log()
    for i in range(5):
        net.register(Sink(sim, i))
    before = net._rng.bit_generator.state
    net.send(4, 4, "x")
    net.multicast(4, [4, 4], "y")
    assert net._rng.bit_generator.state == before
    assert [e.deliver_time for e in net.message_log] == [1e-6] * 3
    assert net.nic(4).jobs == 0
