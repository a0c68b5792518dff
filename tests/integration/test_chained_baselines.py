"""Integration tests: chained HotStuff (3-chain) and chained Damysus
(2-chain), plus the chained-family comparison."""

import pytest

from repro.faults import FaultPlan
from repro.metrics import compute_stats
from repro.smr import prefix_agreement

from ..conftest import make_cluster, run_blocks

CHAINED = ["oneshot-chained", "damysus-chained", "hotstuff-chained"]


@pytest.mark.parametrize("protocol", CHAINED)
def test_fault_free_progress_and_agreement(protocol):
    sim, net, cluster = make_cluster(protocol, f=2, seed=1)
    run_blocks(sim, cluster, 15)
    assert len(cluster.replicas[0].log) >= 15
    assert prefix_agreement(cluster.logs())
    assert cluster.collector.timeouts() == 0


@pytest.mark.parametrize("protocol", CHAINED)
def test_one_block_per_consecutive_view(protocol):
    sim, net, cluster = make_cluster(protocol, f=1, seed=2)
    run_blocks(sim, cluster, 10)
    views = [b.view for b in cluster.replicas[0].log.blocks]
    assert views == list(range(views[0], views[0] + len(views)))


@pytest.mark.parametrize("protocol", CHAINED)
def test_crash_recovery(protocol):
    plan = FaultPlan().add(1, "crashed")
    sim, net, cluster = make_cluster(
        protocol, f=1, seed=3, replica_factory=plan.factory()
    )
    run_blocks(sim, cluster, 8, max_time=120.0)
    assert len(cluster.replicas[0].log) >= 8
    assert prefix_agreement([r.log for r in cluster.correct_replicas()])


@pytest.mark.parametrize("protocol", CHAINED)
def test_silent_leader_recovery(protocol):
    plan = FaultPlan().add(2, "silent-leader")
    sim, net, cluster = make_cluster(
        protocol, f=1, seed=4, replica_factory=plan.factory()
    )
    run_blocks(sim, cluster, 8, max_time=120.0)
    assert cluster.collector.timeouts() > 0
    assert prefix_agreement([r.log for r in cluster.correct_replicas()])


def test_commit_lag_reflects_chain_length():
    """1-chain < 2-chain < 3-chain commit latency, ~equal throughput."""
    stats = {}
    for protocol in CHAINED:
        sim, net, cluster = make_cluster(protocol, f=2, seed=5, latency_s=0.005)
        run_blocks(sim, cluster, 25)
        stats[protocol] = compute_stats(cluster.collector)
    assert (
        stats["oneshot-chained"].mean_latency_s
        < stats["damysus-chained"].mean_latency_s
        < stats["hotstuff-chained"].mean_latency_s
    )
    # Throughputs are within 2x of each other (same 2-wave pipeline).
    tputs = [stats[p].throughput_tps for p in CHAINED]
    assert max(tputs) < 2 * min(tputs)


def test_chained_hotstuff_lock_advances():
    sim, net, cluster = make_cluster("hotstuff-chained", f=1, seed=6)
    run_blocks(sim, cluster, 10)
    for r in cluster.replicas:
        assert r.locked_qc.view >= 5
        assert r.prepare_qc.view >= r.locked_qc.view


def test_chained_damysus_prepared_pair_tracks_chain():
    sim, net, cluster = make_cluster("damysus-chained", f=1, seed=7)
    run_blocks(sim, cluster, 10)
    for r in cluster.replicas:
        assert r.checker.prep_view >= 7
        assert r.checker.voted_view >= r.checker.prep_view


def test_chained_damysus_vote_once_per_view():
    """The CHECKER's monotonic voted_view forbids double votes."""
    from repro.crypto import FREE, digest_of
    from repro.protocols.damysus.chained import ChainedDamysusChecker
    from repro.protocols.damysus.certificates import DamCert, DamVote, PREPARE
    from repro.tee import TeeCostModel, provision

    creds = provision(3)
    checker = ChainedDamysusChecker(
        0, creds[0].keypair, creds[0].ring, FREE, TeeCostModel.free(), 2
    )
    h = digest_of("b")
    d = DamVote.content_digest(h, 0, PREPARE)
    cert = DamCert(h, 0, PREPARE, tuple(creds[o].keypair.sign(d) for o in (1, 2)))
    assert checker.tee_vote_chained(digest_of("c"), 1, cert) is not None
    assert checker.tee_vote_chained(digest_of("other"), 1, cert) is None
    assert checker.tee_vote_chained(digest_of("old"), 0, cert) is None


def test_chained_damysus_rejects_bad_justify():
    from repro.crypto import FREE, digest_of
    from repro.protocols.damysus.chained import ChainedDamysusChecker
    from repro.protocols.damysus.certificates import DamCert, PREPARE
    from repro.tee import TeeCostModel, provision

    creds = provision(3)
    checker = ChainedDamysusChecker(
        0, creds[0].keypair, creds[0].ring, FREE, TeeCostModel.free(), 2
    )
    bogus = DamCert(digest_of("b"), 0, PREPARE, ())
    assert checker.tee_vote_chained(digest_of("c"), 1, bogus) is None
    assert checker.tee_vote_chained(digest_of("c"), 1, "garbage") is None
