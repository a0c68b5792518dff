"""Integration tests: the block-pulling subprotocol (Fig. 6) and view
synchronization of lagging replicas."""

import pytest

from repro.metrics import NORMAL
from repro.net import ConstantLatency, Network, isolate_node, remove_hook
from repro.protocols.registry import REGISTRY
from repro.smr import GENESIS, TxBatch, create_leaf, prefix_agreement

from ..conftest import make_cluster, run_blocks


def test_lagging_replica_catches_up_via_pull():
    """Isolate a replica for a while; on rejoining it must fetch the
    blocks it missed and converge to the same log."""
    sim, net, cluster = make_cluster("oneshot", f=2, seed=21, timeout_base=0.3)
    cluster.start()
    isolate_node(net, node=4, start=0.05, end=0.6, delay_s=1.0)
    sim.run(until=4.0)
    cluster.stop()
    logs = cluster.logs()
    assert prefix_agreement(logs)
    # The isolated replica eventually executes blocks from the window
    # it missed (it pulled the bodies it never received in time).
    assert len(cluster.replicas[4].log) >= len(cluster.replicas[0].log) - 3


def _pull_replies(net, replica):
    reply = replica.FETCH[1]
    return [e for e in net.message_log if isinstance(e.payload, reply)]


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_pull_request_answered_once_per_requester(protocol):
    sim, net, cluster = make_cluster(protocol, f=1, seed=22, enable_log=True)
    run_blocks(sim, cluster, 4)
    r0 = cluster.replicas[0]
    block = r0.log.blocks[0]
    req = r0.FETCH[0](view=block.view, block_hash=block.hash)
    r0.stopped = False
    r0.on_message(1, req)
    sim.run(until=sim.now + 0.1)
    assert len(_pull_replies(net, r0)) == 1
    r0.on_message(1, req)  # anti-DoS: second identical request ignored
    sim.run(until=sim.now + 0.1)
    assert len(_pull_replies(net, r0)) == 1


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_pull_for_unknown_block_is_silent(protocol):
    from repro.crypto import digest_of

    sim, net, cluster = make_cluster(protocol, f=1, seed=23, enable_log=True)
    run_blocks(sim, cluster, 3)
    r0 = cluster.replicas[0]
    r0.stopped = False
    r0.on_message(1, r0.FETCH[0](view=99, block_hash=digest_of("nope")))
    sim.run(until=sim.now + 0.1)
    assert len(_pull_replies(net, r0)) == 0


def test_pull_reply_stores_block_and_unblocks_commit():
    from repro.core.certificates import VoteCert
    from repro.core.messages import PullReply

    _, _, cluster = make_cluster("oneshot", f=1, seed=24)
    r1 = cluster.replicas[1]
    blk = create_leaf(GENESIS.hash, 0, TxBatch(), proposer=0)
    sigs = tuple(cluster.replicas[i].creds.keypair.sign(blk.hash) for i in (0, 2))
    cert = VoteCert(block_hash=blk.hash, view=0, sigs=sigs)
    assert not r1.commit_chain(blk.hash, NORMAL, context=cert)  # pulls from r0
    r1.on_message(0, PullReply(view=0, block=blk))
    assert r1.store.get(blk.hash) is not None
    assert r1.log.is_executed(blk.hash)


def test_tee_never_desynchronizes_under_isolation():
    """Regression test: a replica that decides via certificates without
    storing proposals must keep its CHECKER in lock-step (the zombie
    bug found with large blocks)."""
    sim, net, cluster = make_cluster(
        "oneshot", f=2, seed=25, payload_bytes=256, timeout_base=0.3
    )
    cluster.start()
    hook = isolate_node(net, node=2, start=0.02, end=0.4, delay_s=0.8)
    sim.run(until=3.0)
    cluster.stop()
    for r in cluster.replicas:
        assert abs(r.checker.view - r.view) <= 1, (
            f"r{r.pid}: tee={r.checker.view} untrusted={r.view}"
        )
    # And the previously-isolated replica can still lead views.
    views_led = {b.proposer for b in cluster.replicas[0].log.blocks[-10:]}
    assert 2 in views_led
