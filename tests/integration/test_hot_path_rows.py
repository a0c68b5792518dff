"""Guard: every program path carries a transaction as one packed int.

Count-free and timing-free: ``TxBatch.keys``, the readers' tuple form,
raises for the duration of each run, so a change that goes back to
building ``(client_id, tx_id)`` tuples anywhere between source and
commit — mempool, block hashing, execution, replies, metrics, 2PC
markers — fails here without a benchmark.

A saturated run is also counted: no object type that the collector
tracks may grow by as much as one block's rows, so a per-transaction
object (a row view, a reply record) kept reachable from the
run's logs fails here too.
"""

import gc
from collections import Counter

import pytest

from repro.experiments import ExperimentConfig, run_experiment, run_sharded
from repro.protocols.registry import REGISTRY
from repro.smr import Client, TxBatch
from tests.conftest import make_cluster
from tests.shard.test_hot_path_2pc import CONFIG as SHARDED


def _live_objects() -> Counter:
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects())


@pytest.mark.parametrize("protocol", ["oneshot", "hotstuff-chained"])
def test_saturated_run_retains_no_transaction_objects(protocol):
    before = _live_objects()
    run = run_experiment(
        ExperimentConfig(
            protocol=protocol, f=1, deployment="local", target_blocks=30
        )
    )
    log = run.cluster.replicas[0].log
    assert len(log) >= 30 and log.txs_executed == 400 * len(log)
    grown = _live_objects() - before
    worst = max(grown.items(), key=lambda item: item[1])
    assert worst[1] < 400, f"{worst[1]} {worst[0].__name__} objects retained"
    assert run.stats.blocks_decided >= 30  # the result is still referenced


@pytest.fixture
def no_key_tuples(monkeypatch):
    """``TxBatch.keys`` (the readers' tuple form) raises: every program
    path must carry packed keys."""

    def refuse(*_args):
        raise AssertionError("a program path built a (client_id, tx_id) tuple")

    monkeypatch.setattr(TxBatch, "keys", refuse)


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_protocol_runs_build_no_key_tuple(protocol, no_key_tuples):
    run = run_experiment(
        ExperimentConfig(protocol=protocol, f=1, deployment="local", target_blocks=8)
    )
    assert run.stats.blocks_decided >= 8
    log = run.cluster.replicas[0].log
    assert len(log) >= 8 and log.txs_executed == 400 * len(log)


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
    tx_ids = [client.submit(("add", "n", 1)) for _ in range(3)]
    sim.run(until=2.0)
    cluster.stop()
    assert all(client.latency(tx_id) is not None for tx_id in tx_ids)
    assert cluster.replicas[0].log.state.get("n") == 3
