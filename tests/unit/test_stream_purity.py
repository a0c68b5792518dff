"""The run-time stream-purity check fires on planted draws.

Each plant is compiled with ``exec`` under a chosen module name, so the
check sees it as code of that ``repro`` package; the same source run
under a home (or test) module name draws normally.
"""

import pytest

from repro.net import ConstantLatency, Network
from repro.sim import RngRegistry, Simulator

from ..conftest import HomeCheckedStream, StreamPurityError

NET_IN_A_CLOSURE = """
def draw(sim):
    network = Network(sim, ConstantLatency(0.001))

    def timeout():
        return network._rng.uniform(0.0, 1.0)

    return timeout()
"""

HOMELESS_ARRIVALS = """
def draw(sim):
    pid = 3
    return sim.rng.stream(f"client{pid}.arrivals").exponential(1.0)
"""

GENERATE_IN_PROTOCOL = """
def draw(sim):
    rng = RngRegistry(sim.rng.root_seed, namespace="fuzz").stream("generate")
    return rng.integers(3)
"""

WORKLOAD_IN_SHARD = """
def draw(sim):
    return sim.rng.stream("workload.shard-region0.arrivals").exponential(1.0)
"""

#: case -> (source, module where it must raise, module where it draws)
PLANTS = {
    "net-closure-in-smr": (
        NET_IN_A_CLOSURE, "repro.smr.replica", "repro.net.network",
    ),
    "homeless-client-arrivals": (
        HOMELESS_ARRIVALS, "repro.smr.client", "tests.unit.planted",
    ),
    "workload-draw-in-shard": (
        WORKLOAD_IN_SHARD, "repro.shard.router", "repro.workload.arrivals",
    ),
    "generate-in-protocols": (
        GENERATE_IN_PROTOCOL, "repro.protocols.oneshot.replica", "repro.fuzz.generator",
    ),
}


def planted(source: str, module: str):
    namespace = {
        "__name__": module,
        "ConstantLatency": ConstantLatency,
        "Network": Network,
        "RngRegistry": RngRegistry,
    }
    exec(compile(source, f"<{module}>", "exec"), namespace)
    return namespace["draw"]


@pytest.mark.parametrize("case", sorted(PLANTS))
def test_draw_outside_home_raises(case):
    source, bad, good = PLANTS[case]
    with pytest.raises(StreamPurityError, match=bad):
        planted(source, bad)(Simulator(1))
    assert planted(source, good)(Simulator(1)) is not None


def test_reading_the_bit_generator_is_not_a_draw():
    net = Simulator(1).rng.stream("net")
    assert isinstance(net, HomeCheckedStream)
    read = planted("def draw(rng):\n    return rng.bit_generator\n", "repro.smr.x")
    assert read(net) is net.bit_generator
