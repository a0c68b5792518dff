"""Adversarial message injection: hand-crafted invalid protocol
messages must be rejected without state corruption.

These tests play the Byzantine sender at the wire level — forged
signatures, mismatched views, non-extending blocks, undersized quorums
— and assert the OneShot replica neither acts on them nor corrupts its
state (no executions, no stores, no view movement)."""

import pytest

from repro.core.certificates import (
    GENESIS_QC,
    PrepareCert,
    Proposal,
    StoreCert,
)
from repro.core.messages import PrepCertMsg, ProposalMsg, StoreMsg
from repro.crypto import digest_of
from repro.smr import GENESIS, TxBatch, create_leaf
from repro.tee import provision

from ..conftest import make_cluster, run_blocks


@pytest.fixture()
def cluster3():
    """A 3-replica cluster frozen after a few decided blocks.

    The cluster stays stopped; `deliver` pokes single messages into a
    replica's (synchronous) handlers so state assertions are exact."""
    sim, net, cluster = make_cluster("oneshot", f=1, seed=61)
    run_blocks(sim, cluster, 3)
    return sim, net, cluster


def snapshot(replica):
    return (
        replica.view,
        len(replica.log),
        replica.checker.view,
        replica.checker.prepv,
        replica.last_store,
    )


def creds_for(cluster):
    # Re-derive the cluster's provisioning (same deterministic seed).
    return provision(cluster.config.n, master_seed=cluster.sim.rng.root_seed)


def deliver(sim, replica, sender, payload):
    replica.stopped = False
    try:
        replica.on_message(sender, payload)
    finally:
        replica.stopped = True


def test_proposal_with_forged_signature_rejected(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    before = snapshot(victim)
    v = victim.view
    outsider = provision(5, master_seed=999)[0]
    block = create_leaf(GENESIS.hash, v, TxBatch(), proposer=0)
    fake = Proposal(block.hash, v, outsider.keypair.sign(Proposal.content_digest(block.hash, v)))
    deliver(sim, victim, victim.leader_of(v), ProposalMsg(block, fake, GENESIS_QC))
    assert snapshot(victim) == before


def test_proposal_from_non_leader_rejected(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    creds = creds_for(cluster)
    v = victim.view
    non_leader = (victim.leader_of(v) + 1) % cluster.config.n
    block = create_leaf(GENESIS.hash, v, TxBatch(), proposer=non_leader)
    prop = Proposal(
        block.hash, v, creds[non_leader].keypair.sign(Proposal.content_digest(block.hash, v))
    )
    before = snapshot(victim)
    deliver(sim, victim, non_leader, ProposalMsg(block, prop, GENESIS_QC))
    assert snapshot(victim) == before


def test_proposal_not_extending_its_qc_rejected(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    creds = creds_for(cluster)
    v = victim.view
    leader = victim.leader_of(v)
    qc = victim.prop.qc  # a real, valid certificate...
    # ...but the block extends something else entirely.
    block = create_leaf(digest_of("elsewhere"), v, TxBatch(), proposer=leader)
    prop = Proposal(
        block.hash, v, creds[leader].keypair.sign(Proposal.content_digest(block.hash, v))
    )
    before = snapshot(victim)
    deliver(sim, victim, leader, ProposalMsg(block, prop, qc))
    assert snapshot(victim) == before


def test_prep_cert_with_duplicate_signers_rejected(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    creds = creds_for(cluster)
    v = victim.view
    leader = victim.leader_of(v)
    h = digest_of("evil")
    sig = creds[leader].keypair.sign(StoreCert.content_digest(v, h, v))
    cert = PrepareCert(v, h, v, (sig, sig))  # one signer twice
    prop = Proposal(h, v, creds[leader].keypair.sign(Proposal.content_digest(h, v)))
    before = snapshot(victim)
    deliver(sim, victim, leader, PrepCertMsg(cert, prop))
    assert snapshot(victim) == before


def test_prep_cert_signed_over_wrong_content_rejected(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    creds = creds_for(cluster)
    v = victim.view
    leader = victim.leader_of(v)
    h = digest_of("evil")
    sigs = tuple(
        creds[i].keypair.sign(StoreCert.content_digest(v + 7, h, v)) for i in range(2)
    )
    cert = PrepareCert(v, h, v, sigs)  # signatures are for another view
    prop = Proposal(h, v, creds[leader].keypair.sign(Proposal.content_digest(h, v)))
    before = snapshot(victim)
    deliver(sim, victim, leader, PrepCertMsg(cert, prop))
    assert snapshot(victim) == before


def test_store_cert_for_foreign_block_never_forms_quorum(cluster3):
    sim, net, cluster = cluster3
    # The current leader collects stores; feed it a bogus one.
    leader_pid = cluster.replicas[0].leader_of(cluster.replicas[0].view)
    leader = cluster.replicas[leader_pid]
    creds = creds_for(cluster)
    v = leader.view
    log_before = len(leader.log)
    bogus = StoreCert(
        v, digest_of("junk"), v, creds[2].keypair.sign(StoreCert.content_digest(v, digest_of("junk"), v))
    )
    deliver(sim, leader, 2, StoreMsg(bogus))
    assert len(leader.log) == log_before


def test_stale_view_messages_ignored(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    creds = creds_for(cluster)
    old_view = 0
    leader0 = victim.leader_of(old_view)
    block = create_leaf(GENESIS.hash, old_view, TxBatch(), proposer=leader0)
    prop = Proposal(
        block.hash,
        old_view,
        creds[leader0].keypair.sign(Proposal.content_digest(block.hash, old_view)),
    )
    before = snapshot(victim)
    deliver(sim, victim, leader0, ProposalMsg(block, prop, GENESIS_QC))
    assert snapshot(victim) == before


def test_replayed_valid_prep_cert_does_not_reexecute(cluster3):
    sim, net, cluster = cluster3
    victim = cluster.replicas[1]
    # Replay the certificate of an already-executed block.
    executed = victim.log.blocks[0]
    prop_of = victim.prop
    before_len = len(victim.log)
    cert = PrepareCert(
        executed.view, executed.hash, executed.view, ()
    )  # even a (bogus) replay shape
    deliver(
        sim,
        victim,
        victim.leader_of(executed.view),
        PrepCertMsg(cert, prop_of.proposal),
    )
    assert len(victim.log) == before_len
    assert victim.prop == prop_of


def test_cluster_keeps_working_after_injections(cluster3):
    sim, net, cluster = cluster3
    from repro.smr import prefix_agreement

    target = len(cluster.replicas[0].log) + 5
    for r in cluster.replicas:
        r.stopped = False
    cluster.replicas[0].log.when_length(target, sim.stop)
    sim.run(until=sim.now + 5.0)
    cluster.stop()
    assert len(cluster.replicas[0].log) >= target
    assert prefix_agreement(cluster.logs())
