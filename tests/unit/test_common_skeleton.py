"""The replica skeleton: what every protocol inherits from BaseReplica.

Table-driven dispatch, chained replicas as overrides of their basic
replicas, one quorum size, one block-recovery path (Fig. 6 pulling:
rotate, retry, answer once), and per-view pruning that keeps collection,
recovery and per-block state bounded however views advance.
"""

import pytest

from repro.core.certificates import VoteCert
from repro.crypto import digest_of
from repro.metrics import NORMAL
from repro.protocols.common.quorum import _view_of
from repro.protocols.registry import REGISTRY, get_protocol
from repro.smr import GENESIS, TxBatch, create_leaf

from ..conftest import make_cluster, run_blocks

PROTOCOLS = sorted(REGISTRY)


def _cert(cluster, h, signers):
    """A certificate on ``h`` whose signers are ``signers``, in order:
    a block pull reads only its ``signer_ids``, whatever the protocol."""
    sigs = tuple(cluster.replicas[i].creds.keypair.sign(h) for i in signers)
    return VoteCert(block_hash=h, view=0, sigs=sigs)


@pytest.mark.parametrize("basic", ["oneshot", "damysus", "hotstuff"])
def test_chained_replica_overrides_its_basic_replica(basic):
    chained = get_protocol(f"{basic}-chained").replica_cls
    assert issubclass(chained, get_protocol(basic).replica_cls)
    assert chained.quorum_for(3) == get_protocol(basic).replica_cls.quorum_for(3)


def test_chained_hotstuff_ignores_basic_phase_certificates():
    """The pipeline has no pre-commit/commit waves: a stray HsQcMsg is
    not dispatched (not even charged the handler overhead)."""
    from repro.protocols.hotstuff.certificates import HS_GENESIS_QC
    from repro.protocols.hotstuff.messages import HsQcMsg

    _, _, cluster = make_cluster("hotstuff-chained", f=1)
    r = cluster.replicas[0]
    r.on_message(1, HsQcMsg(HS_GENESIS_QC))
    assert r.cpu.jobs == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_missing_block_is_fetched_once_from_a_certificate_signer(protocol):
    sim, net, cluster = make_cluster(protocol, f=1, enable_log=True)
    r, holder = cluster.replicas[0], cluster.replicas[1]
    block = create_leaf(GENESIS.hash, 0, TxBatch(), proposer=1)
    holder.add_block(block)
    cert = _cert(cluster, block.hash, (0, 1, 2))
    assert not r.commit_chain(block.hash, NORMAL, context=cert)
    r.on_missing_block(block.hash, cert)  # already outstanding: no resend
    sim.run(until=3 * r.RETRY_S)
    assert r.log.is_executed(block.hash)
    req, resp = r.FETCH
    sent = [(e.src, e.dst, type(e.payload)) for e in net.message_log]
    assert sent == [(0, 1, req), (1, 0, resp)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_silent_first_signer_is_skipped_after_a_retry(protocol):
    """Signer 1 lacks the block and stays silent; signer 2 holds it.
    After RETRY_S without a reply the pull asks signer 2, and the
    commit completes.  (A one-shot fetch to the first signer stalled
    the lagging replica's log for good.)"""
    sim, net, cluster = make_cluster(protocol, f=1, enable_log=True)
    r = cluster.replicas[0]
    block = create_leaf(GENESIS.hash, 0, TxBatch(), proposer=2)
    cluster.replicas[2].add_block(block)
    cert = _cert(cluster, block.hash, (0, 1, 2))
    assert not r.commit_chain(block.hash, NORMAL, context=cert)
    sim.run(until=3 * r.RETRY_S)
    assert r.log.is_executed(block.hash)
    req, resp = r.FETCH
    sent = [(e.src, e.dst, type(e.payload)) for e in net.message_log]
    assert sent == [(0, 1, req), (0, 2, req), (2, 0, resp)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_unsolicited_pull_reply_is_dropped(protocol):
    """A reply for a block nobody pulled is charged its hash check and
    never reaches the block store."""
    _, _, cluster = make_cluster(protocol, f=1)
    r = cluster.replicas[0]
    block = create_leaf(GENESIS.hash, 0, TxBatch(), proposer=1)
    stored = len(r.store)
    r.on_message(1, r.FETCH[1](view=0, block=block))
    assert block.hash not in r.store and len(r.store) == stored
    assert r.cpu.jobs == 2  # dispatch overhead + hash check


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_per_view_state_is_pruned_on_long_runs(protocol):
    """Every tracker key — int views (new-view / commitment collection)
    as well as (view, ...) tuples — stays within the pruning horizon;
    so do outstanding pulls and answered pull requests, and the
    per-block maps forget executed blocks older than the horizon."""
    sim, _, cluster = make_cluster(protocol, f=1, seed=3)
    for r in cluster.replicas:
        # A pull nobody can answer (retried until it ages out), and an
        # answered request (its reply is unsolicited, hence dropped).
        r.pull(0, digest_of("lost"), r.others)
        r.on_pull_request(r.others[0], r.FETCH[0](view=0, block_hash=GENESIS.hash))
        assert r._pulls and r._answered
    run_blocks(sim, cluster, 200)
    for r in cluster.replicas:
        assert r.view >= 150
        horizon = r.view - r.PRUNE_EVERY - r.PRUNE_KEEP
        for t in r._trackers:
            assert all(_view_of(k) >= horizon for k in t._items), protocol
        assert all(view >= horizon for view, _, _ in r._pulls.values())
        assert all(view >= horizon for view in r._answered.values())
        for name in ("_qc_of", "_cert_of", "_proposal_kind"):
            for h in getattr(r, name, ()):
                assert not r.log.is_executed(h) or r.store.get(h).view >= horizon


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus"])
def test_pruning_survives_view_jumps(protocol):
    """A replica that jumps over every multiple of PRUNE_EVERY still
    prunes its new-view collection state."""
    _, _, cluster = make_cluster(protocol, f=1)
    r = cluster.replicas[0]
    tracker = r._nv_tracker if protocol == "hotstuff" else r._com_tracker
    tracker.add(3, 1, "nv")
    r.enter_view(100)
    assert tracker.count(3) == 0


def test_oneshot_prunes_prepare_certificates_on_jumps():
    _, _, cluster = make_cluster("oneshot", f=1)
    r = cluster.replicas[0]
    r._prep_certs[3] = object()
    r._prep_certs[98] = object()
    r.enter_view(100)
    assert list(r._prep_certs) == [98]
