"""Unit tests for the client reply logic (quorum vs certified trust)."""

import pytest

from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.smr import Client, Reply, SubmitTxBatch


class FakeReplica:
    """Registered network endpoint that records submissions."""

    def __init__(self, sim, pid):
        self.sim = sim
        self.pid = pid
        self.name = f"fake{pid}"
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


def setup(f=1, certified=False):
    sim = Simulator(0)
    net = Network(sim, ConstantLatency(0.001))
    replicas = [FakeReplica(sim, i) for i in range(3)]
    for r in replicas:
        net.register(r)
    client = Client(
        sim, net, pid=1000, replica_pids=[0, 1, 2], f=f,
        certified_replies=certified,
    )
    return sim, net, replicas, client


def test_submit_broadcasts_to_all_replicas():
    sim, net, replicas, client = setup()
    tx = client.submit(("set", "k", 1))
    sim.run()
    for r in replicas:
        assert len(r.received) == 1
        msg = r.received[0][1]
        assert isinstance(msg, SubmitTxBatch) and msg.wants_replies
        assert msg.batch.keys() == (tx.key(),)
        assert msg.batch[0] == tx and msg.batch[0].op is tx.op  # op rides along


def test_quorum_client_waits_for_f_plus_1_distinct():
    sim, net, replicas, client = setup(f=1, certified=False)
    tx = client.submit(None)
    sim.run()
    key = tx.key()
    client.on_message(0, Reply((key,), view=1, replica=0))
    assert key not in client.committed
    client.on_message(0, Reply((key,), view=1, replica=0))  # duplicate replica
    assert key not in client.committed
    client.on_message(1, Reply((key,), view=1, replica=1))
    assert key in client.committed


def test_self_declared_replica_ids_do_not_forge_a_quorum():
    """One Byzantine replica naming two different ``replica`` ids is
    still one voter: the client counts network senders."""
    sim, net, replicas, client = setup(f=1, certified=False)
    tx = client.submit(None)
    sim.run()
    client.on_message(0, Reply((tx.key(),), view=1, replica=0))
    client.on_message(0, Reply((tx.key(),), view=1, replica=1))
    assert tx.key() not in client.committed


def test_replies_from_non_replicas_ignored():
    sim, net, replicas, client = setup(f=1, certified=True)
    tx = client.submit(None)
    sim.run()
    client.on_message(7, Reply((tx.key(),), view=1, replica=0, certified=True))
    assert tx.key() not in client.committed


def test_certified_client_trusts_single_certified_reply():
    sim, net, replicas, client = setup(certified=True)
    tx = client.submit(None)
    sim.run()
    client.on_message(2, Reply((tx.key(),), view=1, replica=2, certified=True))
    assert tx.key() in client.committed


def test_certified_client_falls_back_to_quorum_for_plain_replies():
    sim, net, replicas, client = setup(f=1, certified=True)
    tx = client.submit(None)
    sim.run()
    client.on_message(0, Reply((tx.key(),), view=1, replica=0, certified=False))
    assert tx.key() not in client.committed
    client.on_message(1, Reply((tx.key(),), view=1, replica=1, certified=False))
    assert tx.key() in client.committed


def test_replies_for_unknown_tx_ignored():
    sim, net, replicas, client = setup()
    client.on_message(0, Reply(((9, 9),), view=1, replica=0, certified=True))
    assert (9, 9) not in client.committed


def test_latency_none_until_committed():
    sim, net, replicas, client = setup(certified=True)
    tx = client.submit(None)
    sim.run()
    assert client.latency(tx) is None
    client.on_message(0, Reply((tx.key(),), view=1, replica=0, certified=True))
    assert client.latency(tx) is not None and client.latency(tx) >= 0


def test_pending_count():
    sim, net, replicas, client = setup(certified=True)
    t1, t2 = client.submit(None), client.submit(None)
    sim.run()
    assert client.pending() == 2
    client.on_message(0, Reply((t1.key(),), view=1, replica=0, certified=True))
    assert client.pending() == 1


def test_result_recorded_on_commit():
    sim, net, replicas, client = setup(certified=True)
    tx = client.submit(None)
    sim.run()
    client.on_message(0, Reply((tx.key(),), 1, 0, certified=True, result="ok"))
    assert client.results[tx.key()] == "ok"


def test_reply_wire_size_is_per_key():
    assert Reply(((1, 2),), view=1, replica=0).wire_size() == 24
    assert Reply(((1, 2), (1, 3), (1, 4)), view=1, replica=0).wire_size() == 40
    assert Reply(((1, 2),), 1, 0, certified=True).wire_size() == 104


def test_multi_key_reply_counts_f_plus_1_per_key():
    sim, net, replicas, client = setup(f=1, certified=False)
    t1, t2, t3 = (client.submit(None) for _ in range(3))
    sim.run()
    client.on_message(0, Reply((t1.key(), t2.key()), view=1, replica=0))
    client.on_message(0, Reply((t1.key(), t2.key()), view=1, replica=0))
    assert client.pending() == 3  # one distinct voter per key so far
    client.on_message(1, Reply((t2.key(), t3.key()), view=1, replica=1))
    assert t2.key() in client.committed
    assert t1.key() not in client.committed and t3.key() not in client.committed
    client.on_message(2, Reply((t1.key(), t3.key()), view=1, replica=2))
    assert client.pending() == 0


def test_multi_key_certified_reply_commits_every_key():
    sim, net, replicas, client = setup(certified=True)
    t1, t2 = client.submit(None), client.submit(None)
    sim.run()
    client.on_message(0, Reply((t1.key(), t2.key()), 1, 0, certified=True))
    assert t1.key() in client.committed and t2.key() in client.committed
    assert client.pending() == 0


def test_multi_key_reply_ignores_unknown_keys():
    sim, net, replicas, client = setup(certified=True)
    tx = client.submit(None)
    sim.run()
    keys = ((9, 9), tx.key(), (1000, 77))
    client.on_message(0, Reply(keys, view=1, replica=0, certified=True))
    assert set(client.committed) == {tx.key()}
    assert client.pending() == 0


def test_non_reply_payloads_ignored():
    sim, net, replicas, client = setup()
    client.on_message(0, "garbage")  # must not raise
