"""Property tests: chained HotStuff's 3-chain commit rule.

Feeds randomized QC/block arrival orders into `_chain_update` and
checks the commit rule's defining properties: a block commits only
with a full direct-parent 3-chain of QCs, commits happen in chain
order, and the lock never regresses.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import FREE, digest_of
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network
from repro.protocols.common import ProtocolConfig
from repro.protocols.hotstuff.certificates import HsQC, HsVote
from repro.protocols.hotstuff.chained import GENERIC, ChainedHotStuffReplica
from repro.sim import Simulator
from repro.smr import GENESIS, Mempool, TxBatch, create_leaf
from repro.tee import provision

N, F = 4, 1
QUORUM = 2 * F + 1
CREDS = provision(N)


def make_replica():
    sim = Simulator(0)
    net = Network(sim, ConstantLatency(0.001))
    cfg = ProtocolConfig(n=N, f=F, crypto_costs=FREE)
    return ChainedHotStuffReplica(
        sim=sim,
        network=net,
        pid=0,
        config=cfg,
        credentials=CREDS[0],
        mempool=Mempool(),
        collector=MetricsCollector(),
    )


def qc_for(block, view):
    d = HsVote.content_digest(GENERIC, view, block.hash)
    return HsQC(
        GENERIC,
        view,
        block.hash,
        tuple(CREDS[i].keypair.sign(d) for i in range(QUORUM)),
    )


def build_chain(length, skip_views=()):
    """A straight chain; views in ``skip_views`` get no QC."""
    blocks, qcs = [], {}
    parent = GENESIS.hash
    for view in range(length):
        b = create_leaf(parent, view, TxBatch(), proposer=view % N)
        blocks.append(b)
        if view not in skip_views:
            qcs[b.hash] = qc_for(b, view)
        parent = b.hash
    return blocks, qcs


def _committable(i, length, skip):
    """Block i may commit iff it (or a descendant) heads a full
    3-chain of QCs — committing a block commits its whole prefix."""
    return any(
        j + 2 < length and not ({j, j + 1, j + 2} & skip)
        for j in range(i, length)
    )


@given(st.integers(4, 10), st.sets(st.integers(0, 9), max_size=3))
def test_commit_requires_three_chain_in_order(length, skip):
    """QCs arrive in view order (as the pipeline delivers them):
    exactly the blocks with a descendant 3-chain commit."""
    blocks, qcs = build_chain(length, skip_views=skip)
    replica = make_replica()
    for b in blocks:
        replica.store.add(b)
    for b in blocks:  # view order
        qc = qcs.get(b.hash)
        if qc is not None:
            replica._register_qc(qc)
            replica._chain_update(qc)
    committed = {b.hash for b in replica.log.blocks}
    for i, b in enumerate(blocks):
        assert (b.hash in committed) == _committable(i, length, skip), (
            i,
            skip,
        )


@given(
    st.integers(4, 10),
    st.sets(st.integers(0, 9), max_size=3),
    st.randoms(use_true_random=False),
)
def test_no_unsafe_commit_under_any_arrival_order(length, skip, rng):
    """However QCs are reordered, nothing commits without a descendant
    3-chain (reordering may delay commits, never add unsafe ones)."""
    blocks, qcs = build_chain(length, skip_views=skip)
    replica = make_replica()
    for b in blocks:
        replica.store.add(b)
    order = list(qcs.values())
    rng.shuffle(order)
    for qc in order:
        replica._register_qc(qc)
        replica._chain_update(qc)
    committed = {b.hash for b in replica.log.blocks}
    for i, b in enumerate(blocks):
        if b.hash in committed:
            assert _committable(i, length, skip), (i, skip)


@given(st.integers(4, 10), st.randoms(use_true_random=False))
def test_commits_in_chain_order(length, rng):
    blocks, qcs = build_chain(length)
    replica = make_replica()
    for b in blocks:
        replica.store.add(b)
    order = list(qcs.values())
    rng.shuffle(order)
    for qc in order:
        replica._register_qc(qc)
        replica._chain_update(qc)
    log = replica.log.blocks
    assert [b.view for b in log] == sorted(b.view for b in log)
    for parent, child in zip(log, log[1:]):
        assert child.extends(parent.hash)


@given(st.integers(4, 10), st.randoms(use_true_random=False))
def test_lock_monotone(length, rng):
    blocks, qcs = build_chain(length)
    replica = make_replica()
    for b in blocks:
        replica.store.add(b)
    order = list(qcs.values())
    rng.shuffle(order)
    lock_views = []
    for qc in order:
        replica._register_qc(qc)
        replica._chain_update(qc)
        lock_views.append(replica.locked_qc.view)
    assert lock_views == sorted(lock_views)
