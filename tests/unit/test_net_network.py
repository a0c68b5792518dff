"""Unit tests for the network fabric."""

import pytest

from repro.net import ConstantLatency, Network
from repro.net.message import HEADER_BYTES, payload_size
from repro.sim import Process, Simulator

from ..conftest import UniformLatency


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.got = []

    def on_message(self, sender, payload):
        self.got.append((self.sim.now, sender, payload))


class Sized:
    def __init__(self, n):
        self.n = n

    def wire_size(self):
        return self.n


def make_net(seed=0, latency=0.01, bandwidth=1e9, **kw):
    sim = Simulator(seed)
    net = Network(sim, ConstantLatency(latency), bandwidth_bps=bandwidth, **kw)
    procs = [Sink(sim, i) for i in range(3)]
    for p in procs:
        net.register(p)
    return sim, net, procs


def test_send_delivers_payload():
    sim, net, procs = make_net()
    net.send(0, 1, "hello")
    sim.run()
    assert procs[1].got[0][1:] == (0, "hello")


def test_propagation_delay_applied():
    sim, net, procs = make_net(latency=0.02)
    net.send(0, 1, "x")
    sim.run()
    assert procs[1].got[0][0] >= 0.02


def test_nic_serialization_delays_fanout():
    # 1 Mbit/s: an 11000-byte payload takes ~88ms to serialize; the
    # second copy must leave after the first.
    sim, net, procs = make_net(latency=0.001, bandwidth=1e6)
    net.multicast(0, [1, 2], Sized(11000 - HEADER_BYTES))
    sim.run()
    t1 = procs[1].got[0][0]
    t2 = procs[2].got[0][0]
    assert t2 == pytest.approx(t1 + 11000 * 8 / 1e6)


def test_loopback_bypasses_nic():
    sim, net, procs = make_net(latency=0.05)
    net.send(1, 1, "self")
    sim.run()
    assert procs[1].got[0][0] < 0.001


def test_unknown_destination_raises():
    sim, net, procs = make_net()
    with pytest.raises(KeyError):
        net.send(0, 99, "x")


@pytest.mark.parametrize("gst", [1.0, 0.0])  # pre-GST, post-GST
def test_multicast_to_an_unknown_destination_sends_nothing(gst):
    sim = Simulator(0)
    net = Network(sim, UniformLatency(0.001, 0.003), gst=gst, pre_gst_extra=0.05)
    for i in range(3):
        net.register(Sink(sim, i))
    with pytest.raises(KeyError, match="99"):
        net.multicast(0, [1, 99, 2], "x")
    assert net.messages_sent == 0
    assert net.nic(0).busy_until == 0.0
    assert sim.pending_events() == 0


def test_duplicate_registration_rejected():
    sim, net, procs = make_net()
    with pytest.raises(ValueError):
        net.register(Sink(sim, 0))


def test_byte_and_message_accounting():
    sim, net, procs = make_net()
    net.send(0, 1, Sized(100))
    net.send(0, 2, Sized(50))
    assert net.messages_sent == 2
    assert net.bytes_sent == 150 + 2 * HEADER_BYTES


def test_message_log_records_envelopes():
    sim, net, procs = make_net()
    net.enable_log()
    net.send(0, 1, "x")
    sim.run()
    assert len(net.message_log) == 1
    env = net.message_log[0]
    assert (env.src, env.dst) == (0, 1)
    assert env.deliver_time >= env.send_time


def test_pre_gst_extra_delay():
    sim, net, procs = make_net(latency=0.001)
    net.gst = 1.0
    net.pre_gst_extra = 0.5
    net.send(0, 1, "early")
    sim.run()
    early = procs[1].got[0][0]
    # After GST, no extra delay.
    sim2, net2, procs2 = make_net(latency=0.001)
    net2.gst = 0.0
    net2.pre_gst_extra = 0.5
    net2.send(0, 1, "late")
    sim2.run()
    late = procs2[1].got[0][0]
    assert late <= 0.002
    assert early >= late  # pre-GST can only be slower


def test_delay_hooks_add_latency():
    sim, net, procs = make_net(latency=0.001)
    net.delay_hooks.append(lambda now, s, d, size: 0.25)
    net.send(0, 1, "x")
    sim.run()
    assert procs[1].got[0][0] >= 0.25


def test_messages_never_lost():
    sim, net, procs = make_net()
    for i in range(50):
        net.send(0, 1, i)
    sim.run()
    assert [p for _, _, p in procs[1].got] == list(range(50))


def test_jitter_can_reorder_within_a_link():
    """Links are reliable but not FIFO: jitter lets a later message
    overtake an earlier one on the same (src, dst) link."""
    sim = Simulator(4)
    net = Network(sim, UniformLatency(0.001, 0.05))
    procs = [Sink(sim, 0), Sink(sim, 1)]
    for p in procs:
        net.register(p)
    for i in range(40):
        net.send(0, 1, i)
    sim.run()
    got = [p for _, _, p in procs[1].got]
    assert sorted(got) == list(range(40))  # reliable: nothing lost
    assert got != list(range(40))  # but jitter reorders


def test_payload_size_default_for_unsized():
    assert payload_size(object()) == 64
    assert payload_size(Sized(123)) == 123


def test_close_forgets_processes_and_hooks_but_keeps_accounting():
    sim, net, procs = make_net()
    net.delay_hooks.append(lambda now, src, dst, size: 0.0)
    net.send(0, 1, Sized(10))
    sim.run()
    sent, nbytes = net.messages_sent, net.bytes_sent
    net.close()
    assert net.pids == [] and net.delay_hooks == []
    assert (net.messages_sent, net.bytes_sent) == (sent, nbytes)
    assert procs[1].got and all(p.sim is sim for p in procs)
    with pytest.raises(KeyError):
        net.send(0, 1, Sized(10))
