"""Guard: 2PC traffic is per block and per slab, not per transfer.

Count-based, no timing.  The coordinator hands each pump slab's
cross-shard rows to the shards as one marker slab per touched shard,
decides everything one reply completes (or one deadline expires) as
one decision slab per touched shard, and a replica answers a block with
one reply per client.  So, with k=2:

* replies reaching the coordinator  <=  blocks executed x n  (per shard);
* coordinator submissions  <=  2 x (pump emits + coordinator replies);
* a submission carries more than one transfer on average.

A change that goes back to one marker (or one reply) per transfer costs
n submissions and n replies per marker and fails here without a
benchmark.
"""

import dataclasses

from repro.experiments import ExperimentConfig, run_sharded
from repro.shard import COORDINATOR_PID, Coordinator
from repro.smr import Reply, SubmitTxBatch

CONFIG = ExperimentConfig(
    protocol="oneshot",
    f=1,
    deployment="local",
    local_latency_s=0.002,
    max_sim_time=2.0,
    seed=9,
    workload="open",
    offered_tps=1200.0,
    virtual_clients=2000,
    arrival_slab=64,
    shards=2,
    cross_shard_permille=150,
    shard_slots=16,
)


def test_2pc_messages_scale_with_blocks_and_slabs(monkeypatch):
    replies = [0]
    real = Coordinator.on_shard_message

    def counting(self, shard, sender, payload):
        if isinstance(payload, Reply):
            replies[0] += 1
        real(self, shard, sender, payload)

    monkeypatch.setattr(Coordinator, "on_shard_message", counting)
    networks = []

    def log_traffic(sim, nets, clusters):
        for net in nets:
            net.enable_log()
        networks.extend(nets)

    run = run_sharded(CONFIG, instrument=log_traffic)
    coord = run.coordinator
    assert run.atomicity.ok, run.atomicity.describe()
    assert coord.committed > 10

    bound = sum(
        max(len(r.log) for r in c.replicas) * len(c.replicas)
        for c in run.clusters
    )
    assert 0 < replies[0] <= bound

    sent = [
        env.payload
        for net in networks
        for env in net.message_log
        if env.src == COORDINATOR_PID
    ]
    assert all(type(p) is SubmitTxBatch and p.wants_replies for p in sent)
    # One submission = one payload handed over by the coordinator,
    # however many replicas it fans out to (ids are unique while the
    # log keeps every payload alive).
    submissions = {id(p) for p in sent}
    assert len(submissions) <= 2 * (run.pump.slabs_sent + replies[0])
    assert coord.submitted / len(submissions) > 1


def test_many_seeds_keep_2pc_accounting_and_atomicity():
    for seed in range(5):
        run = run_sharded(dataclasses.replace(CONFIG, seed=seed, max_sim_time=1.0))
        coord = run.coordinator
        assert run.atomicity.ok, (seed, run.atomicity.describe())
        assert coord.committed > 0
        assert coord.committed + coord.aborted + coord.in_flight == coord.submitted
        xids = [xid for xid, _, _ in coord.decision_log]
        assert len(xids) == len(set(xids)) == coord.committed + coord.aborted
