"""Property tests: ``BaseReplica.transmit`` ≡ the per-destination loop.

Until replicas had one outbound seam, a broadcast was a loop of
``send_at`` calls: one ``Network.send`` per destination, each from its
own deferred event when the CPU was still busy.  ``transmit`` hands the
whole destination list to the network from **one** event.  The
reference below is that loop, kept here; the property is that both
yield the same message log (every ``Envelope`` field), delivery order,
NIC state and RNG stream position — over destination subsets with and
without the sender, ``when`` before, at and after ``now``, several
transmissions queued for the same instant, draw-free and draw-consuming
latency models, pre-GST extra delay and a stateful delay hook.  Only
the number of executed events may differ.

One case needs another reference: before GST with a model that draws,
a loop of sends interleaves latency and extra-delay draws, while a
multicast draws all latencies first.  There the reference hands the
fan-out to ``reference_multicast``, the per-destination re-derivation
of that order in test_prop_multicast.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, Network
from repro.net.latency import TopologyLatency
from repro.net.regions import WORLD11
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import Simulator

from ..conftest import UniformLatency
from .test_prop_multicast import reference_multicast


class _Probe:
    """A payload no protocol handles, with its own wire size."""

    def __init__(self, tag: int, size: int) -> None:
        self.tag = tag
        self.size = size

    def wire_size(self) -> int:
        return self.size


_OneShot = get_protocol("oneshot").replica_cls


class _ProbedReplica(_OneShot):
    """A OneShot replica that records every :class:`_Probe` it receives
    in its world's ``arrivals`` list."""

    HANDLERS = {**_OneShot.HANDLERS, _Probe: "_on_probe"}

    def _on_probe(self, sender, msg):
        self.arrivals.append((self.sim.now, self.pid, sender, msg.tag))


def _reference_send_at(replica, when, dst, payload):
    """``BaseReplica.send_at`` as it was before ``transmit``."""
    if when <= replica.sim.now:
        replica.network.send(replica.pid, dst, payload)
    else:
        replica.sim.schedule_at(
            when, replica.network.send, replica.pid, dst, payload
        )


def _reference_transmit(replica, when, dsts, payload):
    for dst in dsts:
        _reference_send_at(replica, when, dst, payload)


def _reference_drawn_fan_out(replica, when, dsts, payload):
    """The reference before GST with a model that draws: a fan-out is
    one ``reference_multicast`` at ``when``, a unicast one send."""
    if len(dsts) == 1:
        _reference_send_at(replica, when, dsts[0], payload)
    elif when <= replica.sim.now:
        reference_multicast(replica.network, replica.pid, dsts, payload)
    else:
        replica.sim.schedule_at(
            when, reference_multicast, replica.network, replica.pid, dsts, payload
        )


class _CountingHook:
    """A delay hook with state: the extra depends on how many calls
    came before, so any reordering of hook calls shows in the log."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, now, src, dst, size):
        self.calls += 1
        return (self.calls % 4) * 1e-4


def _world(n, latency, seed, pre_gst, hook):
    sim = Simulator(seed=seed)
    network = Network(
        sim,
        latency=latency,
        gst=10_000.0 if pre_gst else 0.0,
        pre_gst_extra=0.02 if pre_gst else 0.0,
    )
    network.enable_log()
    if hook:
        network.delay_hooks.append(_CountingHook())
    cluster = build_cluster(
        _ProbedReplica, sim, network, ProtocolConfig(n=n, f=(n - 1) // 2)
    )
    arrivals = []
    for replica in cluster.replicas:
        replica.arrivals = arrivals
    return sim, network, cluster.replicas, arrivals


def _latency(kind):
    # Fresh per world: the models are stateless, the worlds must not
    # share anything.
    return {
        "constant": lambda: ConstantLatency(0.002),
        "uniform": lambda: UniformLatency(0.001, 0.01),
        "topology": lambda: TopologyLatency(WORLD11, sigma=0.06),
    }[kind]()


N_MAX = 9

#: One transmission: (source, offset of ``when`` from now, destinations
#: as indices folded into range(n), payload size).
transmissions = st.tuples(
    st.integers(0, N_MAX - 1),
    st.sampled_from([-0.001, 0.0, 0.0005, 0.003]),
    st.lists(st.integers(0, N_MAX - 1), min_size=1, max_size=N_MAX, unique=True),
    st.sampled_from([0, 64, 4_000, 120_000]),
)
#: A round: time the simulation runs first, then transmissions issued
#: back to back at one instant.
rounds = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0004, 0.002, 0.01]),
        st.lists(transmissions, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


def _drive(world, transmit, n, plan):
    sim, network, replicas, arrivals = world
    tag = 0
    for advance, batch in plan:
        sim.run(until=sim.now + advance)
        for src, offset, dsts, size in batch:
            replica = replicas[src % n]
            folded = list(dict.fromkeys(d % n for d in dsts))
            transmit(replica, sim.now + offset, folded, _Probe(tag, size))
            tag += 1
    sim.run()
    log = [
        (e.src, e.dst, e.payload.tag, e.size, e.send_time, e.deliver_time, e.seq)
        for e in network.message_log
    ]
    nics = [
        (nic.busy_until, nic.total_busy, nic.jobs)
        for nic in (network.nic(r.pid) for r in replicas)
    ]
    rng_state = network._rng.bit_generator.state
    hooks = [h.calls for h in network.delay_hooks]
    return log, arrivals, nics, rng_state, hooks, network.bytes_sent, sim.now


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(3, N_MAX),
    kind=st.sampled_from(["constant", "uniform", "topology"]),
    seed=st.integers(0, 50),
    pre_gst=st.booleans(),
    hook=st.booleans(),
    plan=rounds,
)
def test_transmit_equals_per_destination_send_at_loop(
    n, kind, seed, pre_gst, hook, plan
):
    new = _drive(
        _world(n, _latency(kind), seed, pre_gst, hook),
        lambda replica, when, dsts, payload: replica.transmit(when, dsts, payload),
        n,
        plan,
    )
    reference = _drive(
        _world(n, _latency(kind), seed, pre_gst, hook),
        _reference_drawn_fan_out
        if pre_gst and kind != "constant"
        else _reference_transmit,
        n,
        plan,
    )
    assert new == reference


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, N_MAX),
    kind=st.sampled_from(["constant", "topology"]),
    include_self=st.booleans(),
    deferred=st.booleans(),
)
def test_send_at_and_broadcast_at_are_the_seam(n, kind, include_self, deferred):
    """The two public senders are thin callers of ``transmit``: same
    envelopes as the reference loop over the same destinations."""
    def run(broadcast):
        sim, network, replicas, arrivals = _world(n, _latency(kind), 3, False, False)
        when = sim.now + (0.002 if deferred else 0.0)
        broadcast(replicas[1], when, _Probe(0, 500))
        replicas[2].send_at(when, 0, _Probe(1, 50))
        sim.run()
        return [
            (e.src, e.dst, e.payload.tag, e.size, e.send_time, e.deliver_time, e.seq)
            for e in network.message_log
        ], arrivals

    def reference(replica, when, payload):
        dsts = [p for p in range(n) if include_self or p != replica.pid]
        _reference_transmit(replica, when, dsts, payload)

    assert run(
        lambda replica, when, payload: replica.broadcast_at(
            when, payload, include_self=include_self
        )
    ) == run(reference)


def test_deferred_broadcast_is_one_event_plus_one_per_copy():
    n = 7
    sim, network, replicas, arrivals = _world(n, ConstantLatency(0.002), 1, False, False)
    replicas[0].broadcast_at(sim.now + 0.001, _Probe(0, 100))
    assert sim.pending_events() == 1
    sim.run()
    assert sim.events_executed == 1 + n
    assert network.messages_sent == n and len(arrivals) == n


def test_immediate_broadcast_schedules_only_the_deliveries():
    n = 7
    sim, network, replicas, arrivals = _world(n, ConstantLatency(0.002), 1, False, False)
    replicas[0].broadcast_at(sim.now, _Probe(0, 100), include_self=False)
    assert sim.pending_events() == n - 1
    sim.run()
    assert sim.events_executed == n - 1


def test_deferred_unicast_is_two_events():
    sim, network, replicas, arrivals = _world(3, ConstantLatency(0.002), 1, False, False)
    replicas[0].send_at(sim.now + 0.001, 2, _Probe(0, 100))
    sim.run()
    assert sim.events_executed == 2
    assert arrivals == [(network.message_log[0].deliver_time, 2, 0, 0)]
