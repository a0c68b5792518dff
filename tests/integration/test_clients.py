"""Integration tests: clients, replies, and the replicated KV app."""

import pytest

from repro.net import ConstantLatency, Network
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import Simulator
from repro.smr import Client, SubmitTxBatch, TxBatch

from ..conftest import slow_node


def build(protocol="oneshot", f=1, seed=1, saturated=False, certified=None):
    info = get_protocol(protocol)
    sim = Simulator(seed)
    net = Network(sim, ConstantLatency(0.002))
    cfg = ProtocolConfig(n=info.n_for(f), f=f, timeout_base=0.2)
    cluster = build_cluster(
        info.replica_cls, sim, net, cfg, saturated=saturated
    )
    if certified is None:
        certified = info.replica_cls.CERTIFIED_REPLIES
    client = Client(
        sim,
        net,
        pid=1000,
        replica_pids=[r.pid for r in cluster.replicas],
        f=f,
        certified_replies=certified,
    )
    return sim, net, cluster, client


def test_client_transaction_commits_and_measures_latency():
    sim, net, cluster, client = build()
    cluster.start()
    tx = None

    def go():
        nonlocal tx
        tx = client.submit(("set", "k", "v"))

    sim.schedule(0.01, go)
    sim.run(until=2.0)
    cluster.stop()
    lat = client.latency(tx)
    assert lat is not None and 0 < lat < 0.5
    assert client.pending() == 0


def test_client_state_applied_on_all_replicas():
    sim, net, cluster, client = build()
    cluster.start()
    sim.schedule(0.01, lambda: client.submit(("set", "x", 42)))
    sim.schedule(0.02, lambda: client.submit(("add", "x", 8)))
    sim.run(until=2.0)
    cluster.stop()
    for r in cluster.replicas:
        assert r.log.state.get("x") == 50
    digests = {r.log.state.state_digest() for r in cluster.replicas}
    assert len(digests) == 1


def test_oneshot_client_trusts_single_certified_reply():
    sim, net, cluster, client = build("oneshot", certified=True)
    cluster.start()
    tx = None

    def go():
        nonlocal tx
        tx = client.submit(("set", "a", 1))

    sim.schedule(0.01, go)
    sim.run(until=2.0)
    cluster.stop()
    assert tx.tx_id in client.committed


def test_quorum_client_needs_f_plus_1_replies():
    sim, net, cluster, client = build("damysus", certified=False)
    cluster.start()
    tx = None

    def go():
        nonlocal tx
        tx = client.submit(("set", "a", 1))

    sim.schedule(0.01, go)
    sim.run(until=2.0)
    cluster.stop()
    assert tx.tx_id in client.committed


def test_duplicate_submissions_commit_once():
    sim, net, cluster, client = build()
    cluster.start()

    def go():
        tx = client.submit(("add", "c", 1))
        # Re-broadcast the same transaction (e.g. a client retry).
        retry = SubmitTxBatch(
            TxBatch.from_transactions([tx]), wants_replies=True
        )
        for r in cluster.replicas:
            net.send(client.pid, r.pid, retry)

    sim.schedule(0.01, go)
    sim.run(until=2.0)
    cluster.stop()
    assert all(r.log.state.get("c") == 1 for r in cluster.replicas)


def test_client_with_saturated_background_traffic():
    sim, net, cluster, client = build(saturated=True)
    cluster.start()
    tx = None

    def go():
        nonlocal tx
        tx = client.submit(("set", "mixed", True))

    sim.schedule(0.05, go)
    sim.run(until=2.0)
    cluster.stop()
    assert client.latency(tx) is not None
    assert all(r.log.state.get("mixed") is True for r in cluster.replicas)


def test_client_under_crashed_leader():
    from repro.faults import FaultPlan

    info = get_protocol("oneshot")
    sim = Simulator(3)
    net = Network(sim, ConstantLatency(0.002))
    cfg = ProtocolConfig(n=3, f=1, timeout_base=0.15)
    cluster = build_cluster(
        info.replica_cls,
        sim,
        net,
        cfg,
        saturated=False,
        replica_factory=FaultPlan().add(0, "crashed").factory(),
    )
    client = Client(sim, net, 1000, [0, 1, 2], f=1, certified_replies=True)
    cluster.start()
    tx = None

    def go():
        nonlocal tx
        tx = client.submit(("set", "k", 1))

    sim.schedule(0.01, go)
    sim.run(until=5.0)
    cluster.stop()
    # The crashed replica 0 leads view 0; the tx commits after a timeout.
    assert client.latency(tx) is not None


def test_oneshot_single_reply_beats_quorum_wait():
    """Responsiveness (Sec. II, Gupta et al. issue #1): transferring
    certificates to clients lets them trust the FIRST reply, which
    arrives earlier than an f+1 reply quorum when replicas are skewed."""
    latencies = {}
    for certified in (True, False):
        sim, net, cluster, client = build("oneshot", f=1, seed=6, certified=certified)
        # One (correct but distant) replica answers much later; with
        # quorum trust the client must wait for its reply sometimes.
        slow_node(net, node=2, extra_s=0.08)
        cluster.start()
        tx = None

        def go():
            nonlocal tx
            tx = client.submit(("set", "r", 1))

        sim.schedule(0.01, go)
        sim.run(until=2.0)
        cluster.stop()
        latencies[certified] = client.latency(tx)
    assert latencies[True] is not None and latencies[False] is not None
    assert latencies[True] <= latencies[False]
