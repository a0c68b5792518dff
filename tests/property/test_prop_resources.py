"""Property tests: FIFO resource (CPU/NIC) occupancy invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Network
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import Resource, Simulator

jobs = st.lists(
    st.tuples(
        st.floats(0.0, 10.0, allow_nan=False),  # submission delta
        st.floats(0.0, 1.0, allow_nan=False),  # duration
    ),
    max_size=30,
)


@given(jobs)
def test_completions_monotonic_and_non_overlapping(job_list):
    r = Resource()
    now = 0.0
    prev_end = 0.0
    total = 0.0
    for delta, duration in job_list:
        now += delta
        end = r.occupy(now, duration)
        # Work never completes before it is submitted + its duration.
        assert end >= now + duration
        # FIFO: completions are monotone.
        assert end >= prev_end
        # No overlap: each job occupies after the previous ends.
        assert end - duration >= min(prev_end, end - duration)
        prev_end = end
        total += duration
    assert r.total_busy == sum(d for _, d in job_list)
    assert r.jobs == len(job_list)


@given(jobs)
def test_busy_until_equals_last_completion(job_list):
    r = Resource()
    now, last = 0.0, 0.0
    for delta, duration in job_list:
        now += delta
        last = r.occupy(now, duration)
    assert r.busy_until == last


@given(jobs)
def test_utilization_bounded(job_list):
    r = Resource()
    now = 0.0
    for delta, duration in job_list:
        now += delta
        r.occupy(now, duration)
    horizon = max(now, r.busy_until, 1e-9)
    assert 0.0 <= r.utilization(horizon) <= 1.0


@given(jobs)
def test_replica_charge_equals_resource_occupy(job_list):
    """``BaseReplica.charge`` is ``Resource.occupy`` written out in one
    frame: same completion times, same three fields, bit for bit."""
    sim = Simulator()
    cluster = build_cluster(
        get_protocol("oneshot").replica_cls, sim, Network(sim), ProtocolConfig(n=3, f=1)
    )
    replica = cluster.replicas[0]
    reference = Resource()
    for delta, duration in job_list:
        sim.schedule(delta, lambda: None)
        sim.run()
        assert replica.charge(duration) == reference.occupy(sim.now, duration)
        cpu = replica.cpu
        assert (cpu.busy_until, cpu.total_busy, cpu.jobs) == (
            reference.busy_until, reference.total_busy, reference.jobs
        )
    with pytest.raises(ValueError):
        replica.charge(-1.0)
