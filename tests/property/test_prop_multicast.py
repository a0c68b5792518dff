"""Property tests: the one multicast draw order.

``Network.multicast`` draws, on the ``net`` stream, every remote latency
in one ``sample_many`` call and then, before GST, every remote extra
delay in one batched uniform, each in destination order; loopback
copies draw nothing.  :func:`reference_multicast` re-derives that
order one destination at a time from the scalar pieces (``sample``,
scalar ``uniform``, ``Nic.serialize``, ``schedule_at``).  The
properties: ``multicast`` equals the reference; ``multicast(src,
[dst])`` equals ``send(src, dst)``; and ``multicast`` equals a loop of
sends wherever the two orders coincide (after GST, or with a model that
draws nothing).  "Equal" means every ``Envelope`` field, the arrival
order, every NIC's ``busy_until``/``total_busy``/``jobs``, the traffic
counters, the hook calls and the RNG state, across constant, uniform
and topology latency (jittered and flat), before and after GST, with
and without delay hooks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.net.latency import ConstantLatency, TopologyLatency
from repro.net.message import HEADER_BYTES, Envelope, payload_size
from repro.net.regions import WORLD11
from repro.sim import Process, Simulator

from ..conftest import UniformLatency


class _Sink(Process):
    def on_message(self, sender, payload):
        self.arrivals.append((self.sim.now, sender, self.pid, payload.tag))


class _Payload:
    def __init__(self, tag: int, size: int) -> None:
        self.tag = tag
        self.size = size

    def wire_size(self) -> int:
        return self.size


class _CountingHook:
    """A stateful hook: its extra depends on how many calls came
    before, so any reordering of hook calls shows in the log.  Every
    ``clamp_every``-th call returns a negative extra, which the network
    clamps."""

    def __init__(self, scale: float, clamp_every: int) -> None:
        self.scale = scale
        self.clamp_every = clamp_every
        self.calls = 0

    def __call__(self, now, src, dst, size):
        self.calls += 1
        if self.calls % self.clamp_every == 0:
            return -1.0
        return (self.calls % 4 + dst) * self.scale


N = 7

#: name -> (factory, draws from the RNG)
LATENCIES = {
    "constant": (lambda: ConstantLatency(0.002), False),
    "topology-flat": (lambda: TopologyLatency(WORLD11, sigma=0.0), False),
    "topology-jitter": (lambda: TopologyLatency(WORLD11, sigma=0.06), True),
    "uniform": (lambda: UniformLatency(0.001, 0.01), True),
}
DRAW_FREE = [name for name, (_, draws) in LATENCIES.items() if not draws]


def _world(kind, seed, pre_gst, hook):
    sim = Simulator(seed=seed)
    network = Network(
        sim,
        latency=LATENCIES[kind][0](),
        gst=10_000.0 if pre_gst else 0.0,
        pre_gst_extra=0.3 if pre_gst else 0.0,
    )
    network.enable_log()
    if hook:
        # Two stacked hooks of different scales: dropping either one or
        # summing them in another order changes the delivery times.
        network.delay_hooks.extend(
            [_CountingHook(1e-4, 3), _CountingHook(3.7e-3, 5)]
        )
    arrivals = []
    for pid in range(N):
        sink = _Sink(sim, pid)
        sink.arrivals = arrivals
        network.register(sink)
    return sim, network, arrivals


def reference_multicast(network, src, dsts, payload):
    """``multicast`` one destination at a time: the remote latencies
    first, then the remote pre-GST extras, each in destination order."""
    dsts = list(dsts)
    now, rng = network.sim.now, network._rng
    size = payload_size(payload) + HEADER_BYTES
    remote = [dst for dst in dsts if dst != src]
    props = [network.latency.sample(src, dst, rng) for dst in remote]
    pre_gst = now < network.gst and network.pre_gst_extra > 0
    extras = [
        float(rng.uniform(0.0, network.pre_gst_extra)) if pre_gst else 0.0
        for _ in remote
    ]
    envs = []
    ri = 0
    for dst in dsts:
        env = Envelope(src, dst, payload, size, now, 0.0, network._seq)
        network._seq += 1
        if dst == src:
            env.deliver_time = now + 1e-6
        else:
            extra = 0.0 + extras[ri]
            for hook in network.delay_hooks:
                extra += max(0.0, hook(now, src, dst, size))
            ser_end = network.nic(src).serialize(now, size)
            env.deliver_time = (ser_end + props[ri]) + extra
            ri += 1
        network.messages_sent += 1
        network.bytes_sent += size
        network.message_log.append(env)
        network.sim.schedule_at(env.deliver_time, network._deliver, env)
        envs.append(env)
    return envs


def _multicast(network, src, dsts, payload):
    return network.multicast(src, dsts, payload)


def _send_loop(network, src, dsts, payload):
    return [network.send(src, dst, payload) for dst in dsts]


def _drive(world, fan_out, plan):
    """Run ``plan`` (rounds of (src, dsts, size), the simulation run
    to quiescence after each round) and return everything observable."""
    sim, network, arrivals = world
    tag = 0
    for round_ in plan:
        for src, dsts, size in round_:
            fan_out(network, src, dsts, _Payload(tag, size))
            tag += 1
        sim.run()
    log = [
        (e.src, e.dst, e.payload.tag, e.size, e.send_time, e.deliver_time, e.seq)
        for e in network.message_log
    ]
    nics = [
        (nic.busy_until, nic.total_busy, nic.jobs)
        for nic in (network.nic(pid) for pid in range(N))
    ]
    hooks = [h.calls for h in network.delay_hooks]
    return (
        log,
        arrivals,
        nics,
        network._rng.bit_generator.state,
        hooks,
        (network.messages_sent, network.bytes_sent),
        sim.now,
    )


fan_outs = st.tuples(
    st.integers(0, N - 1),
    st.lists(st.integers(0, N - 1), min_size=1, max_size=12),
    st.sampled_from([0, 64, 4_000, 120_000]),
)
plans = st.lists(st.lists(fan_outs, min_size=1, max_size=3), min_size=1, max_size=4)
unicasts = st.tuples(
    st.integers(0, N - 1),
    st.integers(0, N - 1).map(lambda d: [d]),
    st.sampled_from([0, 64, 4_000, 120_000]),
)
unicast_plans = st.lists(
    st.lists(unicasts, min_size=1, max_size=4), min_size=1, max_size=4
)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LATENCIES)),
    seed=st.integers(0, 50),
    hook=st.booleans(),
    plan=plans,
)
def test_pre_gst_multicast_matches_the_draw_order_reference(kind, seed, hook, plan):
    """Before GST: latencies first, then extras — the one draw order,
    for every model, with and without stacked delay hooks."""
    got = _drive(_world(kind, seed, True, hook), _multicast, plan)
    want = _drive(_world(kind, seed, True, hook), reference_multicast, plan)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LATENCIES)),
    seed=st.integers(0, 50),
    pre_gst=st.booleans(),
    plan=plans,
)
def test_delay_hooks_compose_with_fast_path(kind, seed, pre_gst, plan):
    """Two stacked stateful delay hooks, negative extras clamped,
    compose with the batched multicast: hook calls and extras land in
    destination order, as in the reference, before and after GST."""
    got = _drive(_world(kind, seed, pre_gst, True), _multicast, plan)
    want = _drive(_world(kind, seed, pre_gst, True), reference_multicast, plan)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LATENCIES)),
    seed=st.integers(0, 50),
    pre_gst=st.booleans(),
    hook=st.booleans(),
    plan=unicast_plans,
)
def test_one_destination_multicast_is_send(kind, seed, pre_gst, hook, plan):
    """``multicast(src, [dst])`` is ``send(src, dst)``: one latency
    draw, then one extra draw — loopback and pre-GST included."""
    got = _drive(_world(kind, seed, pre_gst, hook), _multicast, plan)
    want = _drive(_world(kind, seed, pre_gst, hook), _send_loop, plan)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LATENCIES)),
    seed=st.integers(0, 50),
    hook=st.booleans(),
    plan=plans,
)
def test_multicast_bit_identical_to_scalar_sends(kind, seed, hook, plan):
    """After GST no extra is drawn, so the batched latency draw is the
    sends' draw sequence for every model."""
    got = _drive(_world(kind, seed, False, hook), _multicast, plan)
    want = _drive(_world(kind, seed, False, hook), _send_loop, plan)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(DRAW_FREE),
    seed=st.integers(0, 50),
    hook=st.booleans(),
    plan=plans,
)
def test_pre_gst_batched_extras_match_scalar_draws(kind, seed, hook, plan):
    """With a model that draws nothing, the pre-GST extras are the only
    draws on the net stream, so the batched uniform equals the sends'
    one draw per copy."""
    got = _drive(_world(kind, seed, True, hook), _multicast, plan)
    want = _drive(_world(kind, seed, True, hook), _send_loop, plan)
    assert got == want
