"""Hot-key rebalancing: monitor math, LPT planning, golden replay."""

import numpy as np

from repro.experiments import ExperimentConfig, fingerprint, run_sharded
from repro.shard import LoadMonitor, Rebalancer, RoutingTable, initial_table


def _loaded_monitor(counts, n_shards):
    monitor = LoadMonitor(len(counts), n_shards)
    for slot, n in enumerate(counts):
        if n:
            monitor.record(
                np.full(n, slot, dtype=np.int64), np.zeros(n, dtype=np.int64)
            )
    return monitor


def test_monitor_accumulates_and_resets():
    monitor = LoadMonitor(4, 2)
    monitor.record(np.array([0, 0, 1, 3]), np.array([0, 0, 1, 1]))
    assert monitor.slot_counts.tolist() == [2, 1, 0, 1]
    assert monitor.total_rows == 4
    monitor.reset_epoch()
    assert monitor.slot_counts.sum() == 0 and monitor.total_rows == 0
    # Streaming sketches survive the epoch reset (reporting history).
    assert monitor.slab_rows.count == 1


def test_shard_loads_follow_the_table():
    monitor = _loaded_monitor([10, 20, 30, 40], 2)
    table = RoutingTable(epoch=0, slot_to_shard=(0, 0, 1, 1))
    assert monitor.shard_loads(table).tolist() == [30, 70]
    assert monitor.imbalance(table) == 70 / 50


def test_rebalancer_noop_under_threshold():
    monitor = _loaded_monitor([25, 25, 25, 25], 2)
    table = RoutingTable(epoch=0, slot_to_shard=(0, 0, 1, 1))
    assert Rebalancer().plan(monitor, table) is None
    # No load at all: never replans.
    empty = LoadMonitor(4, 2)
    assert Rebalancer().plan(empty, table) is None


def test_rebalancer_lpt_reduces_skew_deterministically():
    # Slot 0 is hot: 90 of 120 rows land on shard 0's slots.
    monitor = _loaded_monitor([90, 10, 10, 10], 2)
    table = initial_table(2, slots=4)  # (0, 1, 0, 1) -> loads [100, 20]
    plan = Rebalancer().plan(monitor, table)
    assert plan is not None
    assign, before, after = plan
    assert before > after >= 1.0
    # LPT: hot slot alone on one shard, the three light slots together.
    assert assign == (0, 1, 1, 1)
    assert plan == Rebalancer().plan(monitor, table)  # deterministic


def _hot_config(seed=11):
    return ExperimentConfig(
        protocol="oneshot",
        f=1,
        deployment="local",
        local_latency_s=0.002,
        max_sim_time=4.0,
        seed=seed,
        workload="open",
        offered_tps=3000.0,
        virtual_clients=3000,
        arrival_slab=64,
        shards=4,
        cross_shard_permille=0,
        hot_key_permille=400,
        shard_epoch_s=1.0,
        shard_slots=32,
    )


#: The hot-key run's behaviour, component by component: each shard's
#: chain and state digest (reference replica), each routing epoch's
#: table digest and the end of simulated time.
GOLDEN_COMPONENTS = {
    "log_digest[0]": "8c3c8d265e64de124510b72e901c1f227ab96be4ba546775112f57334fefb272",
    "state_digest[0]": "715c2cbde33fa8552dbaaf501ace6f8a2e82f55dd8b0e24b194e7460e75d70c0",
    "log_digest[1]": "f5a30d9055ea46e769434eb09ecbdc4479c049cfd5a46d40c7f3930e930ec257",
    "state_digest[1]": "715c2cbde33fa8552dbaaf501ace6f8a2e82f55dd8b0e24b194e7460e75d70c0",
    "log_digest[2]": "0e472594a132f2593fd66f5ae29b3480248a87dfa8bedee11d50cfd2ec13a8f5",
    "state_digest[2]": "715c2cbde33fa8552dbaaf501ace6f8a2e82f55dd8b0e24b194e7460e75d70c0",
    "log_digest[3]": "198fd1c7b9d7450c0752c3f30c2bae814168ade33ca73eb8cbc332aa1ae4458c",
    "state_digest[3]": "715c2cbde33fa8552dbaaf501ace6f8a2e82f55dd8b0e24b194e7460e75d70c0",
    "table_digest[0]": "817655ada490730731cc1e280d378e70b0c942c73019c984bcf3b40d09307628",
    "table_digest[1]": "63288d5c33651d1a4c952cbffa9669da44632655317dd413a289abab05148531",
    "sim_now": "4.0",
}

#: The digest over all of the run's components.  Re-pinned once, when one
#: fingerprint replaced the sharded one: it now also folds message and
#: byte counts and the decided chains, and every component above held.
GOLDEN_DIGEST = "01b3c4d547ce557c7e53823ed71d40e774198175e70e1074858561838335182c"


def test_hot_key_run_migrates_and_replays_byte_identically():
    run = run_sharded(_hot_config())
    assert run.atomicity.ok
    assert run.committed_txs > 0
    migrations = run.pump.migrations
    assert migrations, "40% hot traffic must trip the rebalancer"
    first = migrations[0]
    assert first.epoch >= 1 and first.moved_slots
    assert first.imbalance_after < first.imbalance_before
    assert run.router.epoch == len(run.router.history) - 1 >= 1
    # Golden fingerprint: rebalancing runs replay byte-identically.
    fp = fingerprint(run)
    for name, value in GOLDEN_COMPONENTS.items():
        assert fp[name] == value, name
    assert fp.digest() == GOLDEN_DIGEST
    again = run_sharded(_hot_config())
    assert fingerprint(again) == fp
    assert again.pump.migrations == migrations


def test_fingerprint_tracks_routing_history():
    # A different seed shifts arrivals, so chains (and the digest) move.
    other = fingerprint(run_sharded(_hot_config(seed=12)))
    assert other.digest() != GOLDEN_DIGEST
