"""Unit tests for network-condition injectors."""

from repro.net import (
    ConstantLatency,
    Network,
    degrade_window,
    isolate_node,
    remove_hook,
)
from repro.sim import Process, Simulator

from ..conftest import slow_node


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.times = []

    def on_message(self, sender, payload):
        self.times.append(self.sim.now)


def setup():
    sim = Simulator(0)
    net = Network(sim, ConstantLatency(0.001))
    procs = [Sink(sim, i) for i in range(3)]
    for p in procs:
        net.register(p)
    return sim, net, procs


def test_degrade_window_applies_inside_window():
    sim, net, procs = setup()
    degrade_window(net, start=0.0, end=1.0, extra_s=0.3)
    net.send(0, 1, "x")
    sim.run()
    assert procs[1].times[0] >= 0.3


def test_degrade_window_ends():
    sim, net, procs = setup()
    degrade_window(net, start=0.0, end=1.0, extra_s=0.3)
    sim.schedule(2.0, lambda: net.send(0, 1, "late"))
    sim.run()
    assert procs[1].times[0] < 2.01


def test_degrade_window_targets_nodes():
    sim, net, procs = setup()
    degrade_window(net, 0.0, 10.0, 0.3, nodes=[2])
    net.send(0, 1, "fast")
    net.send(0, 2, "slow")
    sim.run()
    assert procs[1].times[0] < 0.01
    assert procs[2].times[0] >= 0.3


def test_slow_node_delays_only_its_sends():
    sim, net, procs = setup()
    slow_node(net, node=0, extra_s=0.2)
    net.send(0, 1, "from-slow")
    net.send(2, 1, "from-fast")
    sim.run()
    assert len(procs[1].times) == 2
    assert max(procs[1].times) >= 0.2
    assert min(procs[1].times) < 0.01


def test_isolation_is_delay_not_loss():
    sim, net, procs = setup()
    isolate_node(net, node=1, start=0.0, end=0.5, delay_s=2.0)
    net.send(0, 1, "x")
    sim.run()
    # Delivered eventually (reliable links), just very late.
    assert len(procs[1].times) == 1
    assert procs[1].times[0] >= 2.0


def test_remove_hook():
    sim, net, procs = setup()
    hook = slow_node(net, node=0, extra_s=0.5)
    remove_hook(net, hook)
    net.send(0, 1, "x")
    sim.run()
    assert procs[1].times[0] < 0.01
    remove_hook(net, hook)  # no-op, no error
