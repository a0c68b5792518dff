"""Guard: the saturated and sharded hot paths never materialise
per-row objects.

Count-based, no timing: a change that goes back to building one
``Transaction`` per block row anywhere between source and commit —
mempool, block hashing, execution, replies, metrics, 2PC markers —
leaves them reachable from the run's logs and fails here without a
benchmark.
"""

import gc

import pytest

from repro.experiments import ExperimentConfig, run_experiment, run_sharded
from repro.protocols.registry import REGISTRY
from repro.smr import Client, Transaction, TxBatch
from tests.conftest import make_cluster
from tests.shard.test_hot_path_2pc import CONFIG as SHARDED


def _live_transactions() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Transaction)


@pytest.mark.parametrize("protocol", ["oneshot", "hotstuff-chained"])
def test_saturated_run_retains_no_transaction_objects(protocol):
    before = _live_transactions()
    run = run_experiment(
        ExperimentConfig(
            protocol=protocol, f=1, deployment="local", target_blocks=30
        )
    )
    log = run.cluster.replicas[0].log
    assert len(log) >= 30 and log.txs_executed == 400 * len(log)
    assert _live_transactions() - before == 0
    assert run.stats.blocks_decided >= 30  # the result is still referenced


def test_sharded_run_retains_no_transaction_objects():
    """2PC markers and routed arrivals are column slabs: a k=2 run with
    15 % cross-shard transfers ends with every marker op in an op column
    and no ``Transaction`` alive."""
    before = _live_transactions()
    run = run_sharded(SHARDED)
    assert run.atomicity.ok, run.atomicity.describe()
    assert run.coordinator.committed > 10
    assert _live_transactions() - before == 0
    assert run.clusters  # the result is still referenced


# -- a transaction key is one int ------------------------------------------


@pytest.fixture
def no_key_tuples(monkeypatch):
    """``TxBatch.keys`` and ``Transaction.key`` (the readers' tuple
    forms) raise: every program path must carry packed keys."""

    def refuse(*_args):
        raise AssertionError("a program path built a (client_id, tx_id) tuple")

    monkeypatch.setattr(TxBatch, "keys", refuse)
    monkeypatch.setattr(Transaction, "key", refuse)


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_protocol_runs_build_no_key_tuple(protocol, no_key_tuples):
    run = run_experiment(
        ExperimentConfig(protocol=protocol, f=1, deployment="local", target_blocks=8)
    )
    assert run.stats.blocks_decided >= 8


def test_sharded_run_builds_no_key_tuple(no_key_tuples):
    """Arrivals, 2PC marker slabs, reply routing and the coordinator's
    acks, all on packed keys."""
    run = run_sharded(SHARDED)
    assert run.atomicity.ok, run.atomicity.describe()
    assert run.coordinator.committed > 10


def test_kv_client_round_trip_builds_no_key_tuple(no_key_tuples):
    sim, net, cluster = make_cluster("oneshot", f=1)
    pids = [r.pid for r in cluster.replicas]
    client = Client(sim, net, pid=1000, replica_pids=pids, f=1)
    cluster.start()
    txs = [client.submit(("add", "n", 1)) for _ in range(3)]
    sim.run(until=2.0)
    cluster.stop()
    assert all(client.latency(tx) is not None for tx in txs)
    assert cluster.replicas[0].log.state.get("n") == 3
