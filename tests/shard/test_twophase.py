"""2PC semantics: KVStore markers, the coordinator, and the oracle."""

import pytest

from repro.experiments import run_sharded
from repro.net import Network
from repro.shard import COORDINATOR_PID, Coordinator, check_atomicity
from repro.sim import Process, Simulator
from repro.smr import KVStore, Reply, SubmitTxBatch
from tests.conftest import slab_rows


# ----------------------------------------------------------------------
# KVStore 2PC markers
# ----------------------------------------------------------------------
def test_prepare_then_commit_applies_staged_ops():
    kv = KVStore()
    kv.apply(("xprepare", 7, (("add", "acct0", -1), ("set", "flag", "on"))))
    assert kv.get("acct0") is None  # staged, not applied
    assert 7 in kv.x_prepared and 7 in kv.x_staged
    kv.apply(("xcommit", 7))
    assert kv.get("acct0") == -1
    assert kv.get("flag") == "on"
    assert 7 in kv.x_committed and 7 not in kv.x_staged
    # Legs are accounted as one decision, not one op each.
    assert kv.ops_applied == 2


def test_abort_discards_staged_ops():
    kv = KVStore()
    kv.apply(("xprepare", 3, (("add", "acct1", 1),)))
    kv.apply(("xabort", 3))
    assert kv.get("acct1") is None
    assert 3 in kv.x_aborted and 3 not in kv.x_staged


def test_presumed_abort_tolerates_late_prepare():
    kv = KVStore()
    kv.apply(("xabort", 5))  # deadline fired before the prepare landed
    assert 5 in kv.x_aborted
    kv.apply(("xprepare", 5, (("add", "acct0", -1),)))
    assert 5 in kv.x_prepared
    assert 5 not in kv.x_staged  # the late prepare stages nothing
    assert kv.get("acct0") is None


def test_commit_without_prepare_raises():
    kv = KVStore()
    with pytest.raises(ValueError, match="unstaged"):
        kv.apply(("xcommit", 9))


def test_double_decision_and_double_prepare_raise():
    kv = KVStore()
    kv.apply(("xprepare", 1, ()))
    kv.apply(("xcommit", 1))
    with pytest.raises(ValueError, match="decided twice"):
        kv.apply(("xabort", 1))
    with pytest.raises(ValueError, match="prepared twice"):
        kv.apply(("xprepare", 1, ()))


#: Each 2PC state of xid 1, as the marker history that reaches it.
HISTORIES = {
    "fresh": (),
    "staged": ("prepare",),
    "committed": ("prepare", "commit"),
    "aborted": ("abort",),
    "late-prepared": ("abort", "prepare"),
    "prepared-aborted": ("prepare", "abort"),
}
_MARKERS = {
    "prepare": ("xprepare", 1, (("add", "acct0", -1),)),
    "commit": ("xcommit", 1),
    "abort": ("xabort", 1),
}
_TWICE = "2PC tx 1 prepared twice"
_DECIDED = "2PC tx 1 decided twice"
#: (state, marker) -> the error text, or what the views read after it:
#: (staged, prepared, committed, aborted, acct0, ops_applied).
TRANSITIONS = {
    ("fresh", "prepare"): ({1}, {1}, set(), set(), None, 1),
    ("fresh", "commit"): "2PC commit for unstaged tx 1",
    ("fresh", "abort"): (set(), set(), set(), {1}, None, 1),
    ("staged", "prepare"): _TWICE,
    ("staged", "commit"): (set(), {1}, {1}, set(), -1, 2),
    ("staged", "abort"): (set(), {1}, set(), {1}, None, 2),
    ("committed", "prepare"): _TWICE,
    ("committed", "commit"): _DECIDED,
    ("committed", "abort"): _DECIDED,
    ("aborted", "prepare"): (set(), {1}, set(), {1}, None, 2),
    ("aborted", "commit"): _DECIDED,
    ("aborted", "abort"): _DECIDED,
    ("late-prepared", "prepare"): _TWICE,
    ("late-prepared", "commit"): _DECIDED,
    ("late-prepared", "abort"): _DECIDED,
    ("prepared-aborted", "prepare"): _TWICE,
    ("prepared-aborted", "commit"): _DECIDED,
    ("prepared-aborted", "abort"): _DECIDED,
}


def _views(kv):
    return (
        set(kv.x_staged), set(kv.x_prepared), set(kv.x_committed),
        set(kv.x_aborted), kv.get("acct0"), kv.ops_applied,
    )


def test_transition_table_covers_every_state_and_marker():
    assert set(TRANSITIONS) == {(h, m) for h in HISTORIES for m in _MARKERS}


@pytest.mark.parametrize("state,marker", sorted(TRANSITIONS))
def test_2pc_transition(state, marker):
    kv = KVStore()
    for step in HISTORIES[state]:
        kv.apply(_MARKERS[step])
    before = _views(kv)
    expected = TRANSITIONS[state, marker]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            kv.apply(_MARKERS[marker])
        assert str(raised.value) == expected
        assert _views(kv) == before  # a rejected marker changes nothing
    else:
        kv.apply(_MARKERS[marker])
        assert _views(kv) == expected


@pytest.mark.parametrize(
    "legs",
    [
        (("xabort", 5),),
        (("xprepare", 5, ()),),
        (("set", "k"),),
        (("add", "k", 1, 2),),
        (("add", "k", 1), ["set", "k", 1]),
        (("mul", "k", 2),),
        ((),),
        [("set", "k", 1)],
    ],
)
def test_prepare_rejects_legs_that_are_not_plain_ops(legs):
    kv = KVStore()
    kv.apply(("xprepare", 5, (("add", "acct0", 1),)))
    with pytest.raises(ValueError, match="^2PC tx 1 stages a non-plain op$"):
        kv.apply(("xprepare", 1, legs))
    # Nothing was staged, so the commit cannot decide transaction 5.
    with pytest.raises(ValueError, match="unstaged tx 1"):
        kv.apply(("xcommit", 1))
    assert set(kv.x_staged) == {5} and not kv.x_aborted
    assert kv.ops_applied == 1


# ----------------------------------------------------------------------
# Coordinator over stub shards
# ----------------------------------------------------------------------
class _Replica(Process):
    """A stub shard replica: applies each marker slab to a local KVStore
    in arrival order and optionally acks it with one multi-key reply."""

    def __init__(self, sim, network, pid, ack=True, certified=True, claims=None):
        super().__init__(sim, pid, name=f"stub-{pid}")
        self.network = network
        self.ack = ack
        self.certified = certified
        #: ``replica`` ids written into replies, one reply each (a
        #: Byzantine stub claims several identities).
        self.claims = [pid] if claims is None else claims
        self.kv = KVStore()
        self.slabs = []
        network.register(self)

    def on_message(self, sender, payload):
        if not isinstance(payload, SubmitTxBatch):
            return
        assert payload.wants_replies
        self.slabs.append(payload.batch)
        for *_, op in slab_rows(payload.batch):
            self.kv.apply(op)
        if not self.ack:
            return
        for replica in self.claims:
            self.network.send(
                self.pid,
                sender,
                Reply(
                    tx_keys=payload.batch.packed(),
                    view=1,
                    replica=replica,
                    certified=self.certified,
                ),
            )


def _fabric(sim, ack_by_shard):
    nets, pids, replicas = [], [], []
    for ack in ack_by_shard:
        net = Network(sim)
        nets.append(net)
        replicas.append(_Replica(sim, net, 0, ack=ack))
        pids.append([0])
    return nets, pids, replicas


def test_coordinator_commits_when_both_shards_prepare():
    sim = Simulator(seed=1)
    nets, pids, replicas = _fabric(sim, [True, True])
    coord = Coordinator(sim, nets, pids, f=0, certified_replies=False)
    coord.submit_transfers([(0, 1)])
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted, coord.in_flight) == (1, 0, 0)
    assert coord.decision_log[0][:2] == (0, "commit")
    for r in replicas:
        assert r.kv.x_committed == {0}
    # The transfer moved one unit home -> partner.
    assert replicas[0].kv.get("acct0") == -1
    assert replicas[1].kv.get("acct1") == 1


def test_coordinator_batches_markers_per_shard():
    sim = Simulator(seed=1)
    nets, pids, replicas = _fabric(sim, [True, True, True])
    coord = Coordinator(sim, nets, pids, f=0, certified_replies=True)
    assert list(coord.submit_transfers([(0, 1), (2, 0), (1, 0)])) == [0, 1, 2]
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted, coord.in_flight) == (3, 0, 0)
    # One prepare slab per touched shard, rows in xid order.
    prepares = [[k & 0xFFFF_FFFF for k in r.slabs[0].packed()] for r in replicas]
    assert prepares == [[0, 2, 4], [0, 4], [2]]
    # Shard 0's slab is the largest, so its ack lands last and completes
    # all three: one decision instant, one decision slab per shard.
    assert [x for x, _, _ in coord.decision_log] == [0, 1, 2]
    assert len({t for _, _, t in coord.decision_log}) == 1
    decisions = [
        [op for *_, op in slab_rows(slab)] for r in replicas for slab in r.slabs[1:]
    ]
    assert decisions == [
        [("xcommit", 0), ("xcommit", 1), ("xcommit", 2)],
        [("xcommit", 0), ("xcommit", 2)],
        [("xcommit", 1)],
    ]
    assert replicas[0].kv.get("acct0") == 1  # -1 (xid 0), +1, +1
    assert replicas[1].kv.get("acct1") == 0  # +1 (xid 0), -1 (xid 2)
    assert replicas[2].kv.get("acct2") == -1


def test_coordinator_aborts_on_prepare_timeout():
    sim = Simulator(seed=1)
    nets, pids, replicas = _fabric(sim, [True, False])  # shard 1 never acks
    coord = Coordinator(
        sim, nets, pids, f=0, certified_replies=False, prepare_timeout=0.5
    )
    coord.submit_transfers([(0, 1)])
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted) == (0, 1)
    assert coord.decision_log[0][:2] == (0, "abort")
    # Both shards recorded the abort; no account moved anywhere.
    for r in replicas:
        assert r.kv.x_aborted == {0}
        assert r.kv.get("acct0") is None and r.kv.get("acct1") is None


def test_forced_deadline_aborts_a_whole_batch_together():
    sim = Simulator(seed=1)
    nets, pids, replicas = _fabric(sim, [True, False])  # shard 1 never acks
    coord = Coordinator(
        sim, nets, pids, f=0, certified_replies=True, prepare_timeout=0.5
    )
    coord.submit_transfers([(0, 1), (1, 0), (0, 1)])
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted, coord.in_flight) == (0, 3, 0)
    assert [(x, o) for x, o, _ in coord.decision_log] == [
        (0, "abort"), (1, "abort"), (2, "abort"),
    ]
    # One deadline, one decision instant, one abort slab per shard.
    assert len({t for _, _, t in coord.decision_log}) == 1
    assert coord.decision_log[0][2] == pytest.approx(0.5)
    for r in replicas:
        assert len(r.slabs) == 2
        assert [op for *_, op in slab_rows(r.slabs[1])] == [
            ("xabort", x) for x in range(3)
        ]
        assert r.kv.x_aborted == {0, 1, 2}


def test_coordinator_needs_quorum_without_certified_replies():
    sim = Simulator(seed=1)
    nets = [Network(sim), Network(sim)]
    replicas = [
        [_Replica(sim, nets[s], pid, ack=(pid == 0)) for pid in range(3)]
        for s in range(2)
    ]
    coord = Coordinator(
        sim,
        nets,
        [[0, 1, 2], [0, 1, 2]],
        f=1,
        certified_replies=False,
        prepare_timeout=0.5,
    )
    coord.submit_transfers([(0, 1)])
    sim.run(until=5.0)
    # A single ack per shard is below the f+1 quorum -> presumed abort.
    assert (coord.committed, coord.aborted) == (0, 1)
    assert replicas[0][0].kv.x_aborted == {0}


def test_coordinator_rejects_one_uncertified_ack_under_certified_replies():
    sim = Simulator(seed=1)
    nets = [Network(sim), Network(sim)]
    replicas = [
        [
            _Replica(sim, nets[s], pid, ack=(pid == 0), certified=False)
            for pid in range(3)
        ]
        for s in range(2)
    ]
    coord = Coordinator(
        sim,
        nets,
        [[0, 1, 2], [0, 1, 2]],
        f=1,
        certified_replies=True,
        prepare_timeout=0.5,
    )
    coord.submit_transfers([(0, 1)])
    sim.run(until=5.0)
    # A plain reply is trusted only as one of f+1 distinct replicas,
    # even when the protocol could have certified it.
    assert (coord.committed, coord.aborted) == (0, 1)
    assert replicas[0][0].kv.x_aborted == {0}


def test_coordinator_counts_senders_not_claimed_replica_ids():
    """One Byzantine replica sending f+1 replies under distinct
    self-declared ``replica`` ids is still one voter."""
    sim = Simulator(seed=1)
    nets = [Network(sim), Network(sim)]
    replicas = [
        [_Replica(sim, nets[s], 0, certified=False, claims=[0, 1])]
        + [_Replica(sim, nets[s], pid, ack=False) for pid in (1, 2)]
        for s in range(2)
    ]
    coord = Coordinator(
        sim,
        nets,
        [[0, 1, 2], [0, 1, 2]],
        f=1,
        certified_replies=False,
        prepare_timeout=0.5,
    )
    coord.submit_transfers([(0, 1)])
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted) == (0, 1)
    assert replicas[0][0].kv.x_aborted == {0}


def test_coordinator_ignores_replies_from_non_replicas():
    sim = Simulator(seed=1)
    nets, pids, _ = _fabric(sim, [False, False])
    coord = Coordinator(
        sim, nets, pids, f=0, certified_replies=True, prepare_timeout=0.5
    )
    coord.submit_transfers([(0, 1)])
    # A certified ack on each shard, but from a pid outside the shard.
    for shard in (0, 1):
        coord.on_shard_message(
            shard,
            9,
            Reply(tx_keys=(COORDINATOR_PID << 32,), view=1, replica=0, certified=True),
        )
    sim.run(until=5.0)
    assert (coord.committed, coord.aborted) == (0, 1)


def test_coordinator_rejects_degenerate_transfer():
    # Any ``home == partner`` pair rejects the whole batch.
    for pairs in ([(1, 1)], [(0, 1), (1, 1)], [(0, 1), (1, 0), (0, 0)]):
        sim = Simulator(seed=1)
        nets, pids, replicas = _fabric(sim, [True, True])
        coord = Coordinator(sim, nets, pids, f=0, certified_replies=False)
        with pytest.raises(ValueError):
            coord.submit_transfers(pairs)
        # A rejected batch mints no xid and sends nothing.
        sim.run(until=1.0)
        assert (coord.submitted, coord.in_flight) == (0, 0)
        assert all(not r.slabs for r in replicas)


# ----------------------------------------------------------------------
# Atomicity oracle on planted histories
# ----------------------------------------------------------------------
class _FakeLog:
    def __init__(self, state, blocks=1):
        self.state = state
        self._blocks = blocks

    def __len__(self):
        return self._blocks


class _FakeReplica:
    def __init__(self, pid, state, blocks=1):
        self.pid = pid
        self.log = _FakeLog(state, blocks)


class _FakeCluster:
    def __init__(self, replicas):
        self.replicas = replicas

    def correct_replicas(self):
        return self.replicas


def _state(committed=(), aborted=(), prepared=(), accounts=()):
    """A store whose 2PC history is built through ``apply``: every xid
    prepared (nothing staged), then the decisions."""
    kv = KVStore()
    for xid in sorted(set(prepared) | set(committed) | set(aborted)):
        kv.apply(("xprepare", xid, ()))
    for xid in committed:
        kv.apply(("xcommit", xid))
    for xid in aborted:
        kv.apply(("xabort", xid))
    for key, value in accounts:
        kv.apply(("set", key, value))
    return kv


def test_oracle_accepts_unanimous_histories():
    a = _state(committed=[0], accounts=[("acct0", -1)])
    b = _state(committed=[0], accounts=[("acct1", 1)])
    report = check_atomicity(
        [_FakeCluster([_FakeReplica(0, a)]), _FakeCluster([_FakeReplica(0, b)])]
    )
    assert report.ok
    assert report.committed == {0}


def test_oracle_flags_commit_abort_disagreement():
    a = _state(committed=[0], accounts=[("acct0", -1)])
    b = _state(aborted=[0])
    report = check_atomicity(
        [_FakeCluster([_FakeReplica(0, a)]), _FakeCluster([_FakeReplica(0, b)])]
    )
    assert not report.ok
    assert any("committed on one" in v for v in report.violations)


def test_oracle_flags_intra_shard_outcome_conflict():
    lead = _state(committed=[0], accounts=[("acct0", -1)], prepared=[0])
    lag = _state(aborted=[0])
    report = check_atomicity(
        [_FakeCluster([_FakeReplica(0, lead, blocks=5), _FakeReplica(1, lag)])]
    )
    assert not report.ok
    assert any("differently from the reference" in v for v in report.violations)


def test_oracle_tolerates_lagging_subset_replicas():
    lead = _state(committed=[0, 1], accounts=[("acct0", -2)])
    lag = _state(committed=[0], accounts=[("acct0", -1)])
    other = _state(committed=[0, 1], accounts=[("acct1", 2)])
    report = check_atomicity(
        [
            _FakeCluster([_FakeReplica(0, lead, blocks=5), _FakeReplica(1, lag)]),
            _FakeCluster([_FakeReplica(0, other, blocks=5)]),
        ]
    )
    assert report.ok


def test_oracle_flags_conservation_break():
    # A commit applied on BOTH shards but only one side's account moved:
    # the totals cannot be explained by in-flight half-commits.
    a = _state(committed=[0], accounts=[("acct0", -1)])
    b = _state(committed=[0])  # partner shard "lost" its credit leg
    report = check_atomicity(
        [_FakeCluster([_FakeReplica(0, a)]), _FakeCluster([_FakeReplica(0, b)])]
    )
    assert not report.ok
    assert any("conservation" in v for v in report.violations)


def test_oracle_allows_half_applied_commit_in_flight():
    # Commit landed on the home shard, still in flight to the partner:
    # |total| == #partial_commits is within the conservation bound.
    a = _state(committed=[0], accounts=[("acct0", -1)])
    b = _state(prepared=[0])
    report = check_atomicity(
        [_FakeCluster([_FakeReplica(0, a)]), _FakeCluster([_FakeReplica(0, b)])]
    )
    assert report.ok
    assert report.partial_commits == {0}


@pytest.mark.parametrize(
    "protocol,k,report",
    [
        ("oneshot", 2, "342 committed, 0 aborted, 0 undecided, 0 in flight"),
        ("hotstuff", 2, "334 committed, 0 aborted, 8 undecided, 0 in flight"),
        ("oneshot", 8, "342 committed, 0 aborted, 0 undecided, 0 in flight"),
    ],
)
def test_oracle_reports_on_real_runs_are_unchanged(protocol, k, report):
    """The oracle reads the one-table store exactly as it read the four
    sets: the reports on the cross-shard runs of ``test_end_to_end``."""
    from .test_end_to_end import _config

    run = run_sharded(_config(protocol, shards=k))
    assert run.atomicity.describe() == "atomicity ok: " + report
