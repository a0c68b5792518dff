"""Property tests: SAFETY — correct replicas never execute conflicting
blocks (Lemma 1), for every protocol, under randomized fault schedules,
network latencies and seeds.

These are the most important tests in the repository: they search the
space the safety proof quantifies over.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.net import ConstantLatency, Network
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import Simulator
from repro.smr import prefix_agreement

from ..conftest import UniformLatency

BEHAVIOURS = ["crashed", "silent-leader", "slow", "withhold", "garbage"]


@st.composite
def scenarios(draw):
    protocol = draw(
        st.sampled_from(
            [
                "oneshot",
                "oneshot-chained",
                "damysus",
                "damysus-chained",
                "hotstuff",
                "hotstuff-chained",
            ]
        )
    )
    f = draw(st.integers(1, 2))
    info = get_protocol(protocol)
    n = info.n_for(f)
    n_faults = draw(st.integers(0, f))
    pids = draw(
        st.lists(
            st.integers(0, n - 1), min_size=n_faults, max_size=n_faults, unique=True
        )
    )
    behaviours = draw(
        st.lists(
            st.sampled_from(BEHAVIOURS), min_size=n_faults, max_size=n_faults
        )
    )
    seed = draw(st.integers(0, 2**16))
    jitter = draw(st.booleans())
    return protocol, f, list(zip(pids, behaviours)), seed, jitter


def run_scenario(protocol, f, faults, seed, jitter, sim_time=2.5):
    info = get_protocol(protocol)
    sim = Simulator(seed=seed)
    latency = (
        UniformLatency(0.001, 0.01) if jitter else ConstantLatency(0.003)
    )
    net = Network(sim, latency)
    cfg = ProtocolConfig(n=info.n_for(f), f=f, timeout_base=0.15)
    plan = FaultPlan()
    for pid, behaviour in faults:
        plan.add(pid, behaviour)
    cluster = build_cluster(
        info.replica_cls, sim, net, cfg, replica_factory=plan.factory()
    )
    cluster.start()
    sim.run(until=sim_time)
    cluster.stop()
    return cluster


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_safety_under_random_faults(scenario):
    protocol, f, faults, seed, jitter = scenario
    cluster = run_scenario(protocol, f, faults, seed, jitter)
    logs = [r.log for r in cluster.correct_replicas()]
    assert prefix_agreement(logs), (
        f"SAFETY VIOLATION: {protocol} f={f} faults={faults} seed={seed}"
    )


@settings(max_examples=10, deadline=None)
@given(scenarios())
def test_liveness_without_faults_or_with_crashes_only(scenario):
    """With only crash-like faults and a synchronous network, every
    run makes progress (Lemma 2)."""
    protocol, f, faults, seed, jitter = scenario
    crashes_only = [(pid, "crashed") for pid, _ in faults]
    cluster = run_scenario(protocol, f, crashes_only, seed, jitter, sim_time=4.0)
    correct = cluster.correct_replicas()
    assert max(len(r.log) for r in correct) >= 3, (
        f"NO PROGRESS: {protocol} f={f} crashes={crashes_only} seed={seed}"
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_oneshot_safety_with_full_byzantine_budget(seed):
    """f=2, n=5 with two misbehaving replicas of different kinds."""
    cluster = run_scenario(
        "oneshot", 2, [(1, "withhold"), (3, "silent-leader")], seed, True
    )
    assert prefix_agreement([r.log for r in cluster.correct_replicas()])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.0, 0.5))
def test_oneshot_safety_under_pre_gst_asynchrony(seed, extra):
    """Before GST the network may delay arbitrarily — safety must hold
    regardless (partial synchrony, Sec. IV)."""
    sim = Simulator(seed=seed)
    net = Network(
        sim, ConstantLatency(0.003), gst=1.0, pre_gst_extra=extra
    )
    cfg = ProtocolConfig(n=5, f=2, timeout_base=0.1)
    info = get_protocol("oneshot")
    cluster = build_cluster(info.replica_cls, sim, net, cfg)
    cluster.start()
    sim.run(until=3.0)
    cluster.stop()
    assert prefix_agreement(cluster.logs())
    # And after GST there is progress.
    assert max(len(r.log) for r in cluster.replicas) >= 2
