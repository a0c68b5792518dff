"""Crash-recovery: replicas that crash, miss views, and rejoin.

The ``crashed`` behaviour with a bounded fault window models a process
restart: during the window nothing is processed; afterwards incoming
higher-view messages resynchronize the replica (view jump + TEE
fast-forward + block pulling)."""

import pytest

from repro.faults import FaultPlan
from repro.net import isolate_node
from repro.protocols.registry import REGISTRY
from repro.smr import prefix_agreement

from ..conftest import make_cluster


@pytest.mark.parametrize(
    "protocol", ["oneshot", "oneshot-chained", "damysus", "hotstuff"]
)
def test_replica_recovers_after_crash_window(protocol):
    plan = FaultPlan().add(2, "crashed", start=0.1, end=0.8)
    sim, net, cluster = make_cluster(
        protocol, f=1, seed=71, replica_factory=plan.factory(), timeout_base=0.25
    )
    cluster.start()
    sim.run(until=4.0)
    cluster.stop()
    recovered = cluster.replicas[2]
    reference = cluster.replicas[0]
    # The recovered replica rejoined the view progression...
    assert recovered.view >= reference.view - 2
    # ...caught up on (almost) the whole log...
    assert len(recovered.log) >= len(reference.log) - 3
    # ...and the union of logs still agrees.
    assert prefix_agreement(cluster.logs())


def test_recovered_replica_leads_again():
    plan = FaultPlan().add(1, "crashed", start=0.05, end=0.5)
    sim, net, cluster = make_cluster(
        "oneshot", f=1, seed=72, replica_factory=plan.factory(), timeout_base=0.2
    )
    cluster.start()
    sim.run(until=4.0)
    cluster.stop()
    late_blocks = cluster.replicas[0].log.blocks[-8:]
    assert any(b.proposer == 1 for b in late_blocks)


def test_recovery_with_large_blocks_uses_pulls():
    plan = FaultPlan().add(2, "crashed", start=0.05, end=0.6)
    sim, net, cluster = make_cluster(
        "oneshot",
        f=1,
        seed=73,
        replica_factory=plan.factory(),
        payload_bytes=256,
        timeout_base=0.25,
        enable_log=True,
    )
    cluster.start()
    sim.run(until=4.0)
    cluster.stop()
    from repro.core.messages import PullReply

    pulls = [e for e in net.message_log if isinstance(e.payload, PullReply)]
    assert pulls, "catching up across a gap requires pulling blocks"
    assert prefix_agreement(cluster.logs())


def test_two_staggered_crash_windows():
    plan = (
        FaultPlan()
        .add(0, "crashed", start=0.1, end=0.6)
        .add(2, "crashed", start=1.0, end=1.5)
    )
    sim, net, cluster = make_cluster(
        "oneshot", f=2, seed=74, replica_factory=plan.factory(), timeout_base=0.25
    )
    cluster.start()
    sim.run(until=5.0)
    cluster.stop()
    assert prefix_agreement(cluster.logs())
    lens = [len(r.log) for r in cluster.replicas]
    assert min(lens) >= max(lens) - 3


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_isolated_replica_converges_past_a_crashed_first_signer(protocol):
    """Replica 1 is cut off for a second and then pulls the blocks it
    missed.  The node it asks first — the first signer of the
    certificate behind the pull — crashes as the request leaves, for
    one second.  The pull moves on to the next signer and replica 1's
    log converges.  (A one-shot fetch lost the request for good.)"""

    def run(plan=None):
        sim, net, cluster = make_cluster(
            protocol,
            f=1,
            seed=75,
            timeout_base=0.25,
            replica_factory=plan.factory() if plan else None,
            enable_log=True,
        )
        cluster.start()
        isolate_node(net, node=1, start=0.05, end=1.0)
        sim.run(until=4.0)
        cluster.stop()
        return net, cluster

    net, cluster = run()
    req = cluster.replicas[1].FETCH[0]
    first = next(
        e for e in net.message_log if e.src == 1 and isinstance(e.payload, req)
    )
    plan = FaultPlan().add(
        first.dst, "crashed", start=first.send_time, end=first.send_time + 1.0
    )
    _, cluster = run(plan)
    lagging, reference = cluster.replicas[1], cluster.replicas[0]
    assert prefix_agreement(cluster.logs())
    assert len(lagging.log) >= len(reference.log) - 3
