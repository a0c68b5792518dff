"""Unit tests for OneShot's CHECKER and ACCUMULATOR (Fig. 5c)."""

import pytest

from repro.core.certificates import (
    GENESIS_PROPOSAL,
    GENESIS_QC,
    Accumulator,
    NewViewCert,
    PrepareCert,
    Proposal,
    StoreCert,
)
from repro.core.tee_services import AccumulatorService, Checker
from repro.crypto import FREE, T2_MICRO, digest_of
from repro.smr import GENESIS, TxBatch, create_leaf
from repro.tee import TeeCostModel, provision

N = 5
QUORUM = 3
CREDS = provision(N)
RING = CREDS[0].ring


def leader_of(view):
    return view % N


def make_checker(owner=0, costs=FREE):
    return Checker(
        owner,
        CREDS[owner].keypair,
        RING,
        costs,
        TeeCostModel.free(),
        leader_of,
    )


def make_accum(owner=0):
    return AccumulatorService(
        owner, CREDS[owner].keypair, RING, FREE, TeeCostModel.free(), QUORUM
    )


H1 = digest_of("b1")


# ----------------------------------------------------------------------
# TEEprepare: one proposal per view
# ----------------------------------------------------------------------
def test_prepare_signs_current_view():
    c = make_checker(owner=0)
    p = c.tee_prepare(H1)
    assert p is not None and p.view == 0 and p.block_hash == H1
    assert p.verify(RING)


def test_prepare_refuses_second_call_in_view():
    """The non-equivocation guarantee (Lemma 1)."""
    c = make_checker()
    assert c.tee_prepare(H1) is not None
    assert c.tee_prepare(digest_of("other")) is None


def test_prepare_available_again_after_store():
    c = make_checker(owner=0)
    p = c.tee_prepare(H1)
    assert c.tee_store(p) is not None  # view 0 -> 1, phase reset
    # leader of view 1 is replica 1, but the phase machine itself
    # permits a new prepare in the new view:
    assert c.tee_prepare(digest_of("next")) is not None


# ----------------------------------------------------------------------
# TEEstore: monotonic view, prepv discipline, leader check
# ----------------------------------------------------------------------
def test_store_increments_view_and_tags_previous():
    c = make_checker(owner=1)
    p0 = Proposal(H1, 0, CREDS[0].keypair.sign(Proposal.content_digest(H1, 0)))
    s = c.tee_store(p0)
    assert s == StoreCert(0, H1, 0, s.sig)
    assert c.view == 1 and c.prepv == 0
    assert s.verify(RING)


def test_store_rejects_non_leader_proposal():
    c = make_checker(owner=1)
    # view 0's leader is replica 0; replica 2 signs instead.
    p = Proposal(H1, 0, CREDS[2].keypair.sign(Proposal.content_digest(H1, 0)))
    assert c.tee_store(p) is None


def test_store_rejects_future_proposal():
    c = make_checker(owner=1)
    p = Proposal(H1, 3, CREDS[3].keypair.sign(Proposal.content_digest(H1, 3)))
    assert c.tee_store(p) is None  # view 0 < 3


def test_store_rejects_below_prepv():
    c = make_checker(owner=1)
    p2 = Proposal(H1, 2, CREDS[2].keypair.sign(Proposal.content_digest(H1, 2)))
    # Fast-forward to view 3 with prepv=2.
    c.view = 2  # (test shortcut: simulate earlier stores)
    assert c.tee_store(p2) is not None
    assert c.prepv == 2
    old = Proposal(digest_of("old"), 1, CREDS[1].keypair.sign(Proposal.content_digest(digest_of("old"), 1)))
    assert c.tee_store(old) is None  # 1 < prepv


def test_store_rejects_tampered_signature():
    c = make_checker(owner=1)
    p = Proposal(H1, 0, CREDS[0].keypair.sign(Proposal.content_digest(digest_of("x"), 0)))
    assert c.tee_store(p) is None


def test_store_genesis_bootstrap():
    c = make_checker(owner=1)
    s = c.tee_store(GENESIS_PROPOSAL)
    assert s is not None
    assert s.stored_view == 0 and s.prop_view == -1
    assert s.block_hash == GENESIS.hash


def test_store_same_proposal_repeatedly_fast_forwards():
    """Re-storing the latest proposal is the only way to skip views."""
    c = make_checker(owner=1)
    for expected in range(4):
        s = c.tee_store(GENESIS_PROPOSAL)
        assert s.stored_view == expected
    assert c.view == 4 and c.prepv == -1


def test_one_store_per_view():
    c = make_checker(owner=1)
    s1 = c.tee_store(GENESIS_PROPOSAL)
    s2 = c.tee_store(GENESIS_PROPOSAL)
    assert s1.stored_view != s2.stored_view  # can never re-certify a view


# ----------------------------------------------------------------------
# TEEvote
# ----------------------------------------------------------------------
def test_vote_carries_tee_view():
    c = make_checker(owner=1)
    c.tee_store(GENESIS_PROPOSAL)  # view -> 1
    v = c.tee_vote(H1)
    assert v.view == 1 and v.verify(RING)


# ----------------------------------------------------------------------
# TEEaccum
# ----------------------------------------------------------------------
def _nv(owner, stored_view, prop_view, block, qc):
    sig = CREDS[owner].keypair.sign(
        StoreCert.content_digest(stored_view, block.hash, prop_view)
    )
    return NewViewCert(block, StoreCert(stored_view, block.hash, prop_view, sig), qc)


def make_nv_set(stored_view=1, top_prop_view=0):
    block = create_leaf(GENESIS.hash, top_prop_view, TxBatch(), proposer=0)
    top = _nv(1, stored_view, top_prop_view, block, GENESIS_QC)
    gblock = GENESIS
    rest = [
        NewViewCert(
            gblock,
            StoreCert(
                stored_view,
                GENESIS.hash,
                -1,
                CREDS[o].keypair.sign(StoreCert.content_digest(stored_view, GENESIS.hash, -1)),
            ),
            GENESIS_QC,
        )
        for o in (2, 3)
    ]
    return top, rest, block


def test_accum_certifies_highest():
    acc_svc = make_accum()
    top, rest, block = make_nv_set()
    acc = acc_svc.tee_accum(top, rest)
    assert acc is not None
    assert acc.view == 1 and acc.block_hash == block.hash
    assert set(acc.ids) == {1, 2, 3}
    assert acc.verify(RING, QUORUM)
    assert not acc.certified  # extends-case top


def test_accum_flags_self_certified_top():
    """Re-vote avoidance (Sec. VI-F a): B = true."""
    acc_svc = make_accum()
    _, rest, _ = make_nv_set()
    # Self-certified top: genesis nv cert (its qc certifies genesis).
    top = rest[0]
    acc = acc_svc.tee_accum(top, [rest[1], rest[1]])
    # duplicate signer -> rejected; use distinct ones instead
    top2, others, _ = make_nv_set()
    genesis_top = others[0]
    acc = acc_svc.tee_accum(genesis_top, [others[1], _nv_genesis(4)])
    assert acc is not None and acc.certified


def _nv_genesis(owner, stored_view=1):
    return NewViewCert(
        GENESIS,
        StoreCert(
            stored_view,
            GENESIS.hash,
            -1,
            CREDS[owner].keypair.sign(StoreCert.content_digest(stored_view, GENESIS.hash, -1)),
        ),
        GENESIS_QC,
    )


def test_accum_rejects_top_without_highest_view():
    acc_svc = make_accum()
    top, rest, block = make_nv_set(top_prop_view=0)
    # Pass a genesis cert (prop view -1) as top while rest has view 0.
    assert acc_svc.tee_accum(rest[0], [top, rest[1]]) is None


def test_accum_rejects_mixed_stored_views():
    acc_svc = make_accum()
    top, rest, _ = make_nv_set(stored_view=1)
    stale = _nv_genesis(4, stored_view=0)
    assert acc_svc.tee_accum(top, [rest[0], stale]) is None


def test_accum_rejects_duplicate_signers():
    acc_svc = make_accum()
    top, rest, _ = make_nv_set()
    assert acc_svc.tee_accum(top, [rest[0], rest[0]]) is None


def test_accum_rejects_below_quorum():
    acc_svc = make_accum()
    top, rest, _ = make_nv_set()
    assert acc_svc.tee_accum(top, rest[:1]) is None


def test_accum_rejects_invalid_certificate():
    acc_svc = make_accum()
    top, rest, _ = make_nv_set()
    broken = NewViewCert(rest[0].block, rest[0].store, PrepareCert(3, H1, 3, ()))
    assert acc_svc.tee_accum(top, [rest[0], broken]) is None


def test_accum_rejects_prepare_cert_input():
    acc_svc = make_accum()
    top, rest, _ = make_nv_set()
    assert acc_svc.tee_accum(top, [rest[0], GENESIS_QC]) is None


def test_accum_charges_both_signatures_of_an_accumulator_backed_certificate():
    """An nv certificate whose quorum certificate is a ``B = true``
    accumulator carries two signatures (its store certificate's and the
    accumulator's), and TEEaccum charges both per certificate, as the
    replica side does (``sig_count``)."""
    acc_qc = Accumulator.content_digest(True, 4, H1, (0, 1, 2))
    qc = Accumulator(True, 4, H1, (0, 1, 2), CREDS[4].keypair.sign(acc_qc))
    block = create_leaf(H1, 5, TxBatch(), proposer=0)  # extends the qc's block
    certs = [_nv(owner, 6, 5, block, qc) for owner in (1, 2, 3)]
    assert all(nv.sig_count == 2 and nv.verify(RING, QUORUM) for nv in certs)

    tee = TeeCostModel(ecall_overhead=20e-6, crypto_factor=2.0)
    svc = AccumulatorService(0, CREDS[0].keypair, RING, T2_MICRO, tee, QUORUM)
    acc = svc.tee_accum(certs[0], certs[1:])
    assert acc is not None and acc.ids == (1, 2, 3)
    expected = (
        tee.ecall_overhead
        + 3 * T2_MICRO.verify(2) * tee.crypto_factor
        + T2_MICRO.sign() * tee.crypto_factor
    )
    assert svc.drain_cost() == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# rebind_leader_map: enclave reconfiguration for staggered rotations
# ----------------------------------------------------------------------
def test_rebind_leader_map_changes_proposal_validation():
    """After rebinding, the checker validates proposals against the new
    view -> leader map (the multi-instance experiments stagger it)."""
    proposer = make_checker(owner=1)
    proposer.view = 1  # view 1, where pid 1 leads under leader_of
    prop = proposer.tee_prepare(H1)
    assert prop is not None

    verifier = make_checker(owner=2)
    assert verifier._verify_proposal(prop)
    # Shift the rotation by one: view 1's leader becomes pid 2.
    verifier.rebind_leader_map(lambda view: (view + 1) % N)
    assert not verifier._verify_proposal(prop)
    # Rebinding back restores acceptance.
    verifier.rebind_leader_map(leader_of)
    assert verifier._verify_proposal(prop)


# ----------------------------------------------------------------------
# Ledger invariance: charged cost is identical with the memo on or off
# ----------------------------------------------------------------------
def test_accum_ledger_identical_with_memo_on_and_off():
    """The wall-clock verification memos never reduce *charged* cost:
    TEEaccum accrues the same ledger for cold, warm, and uncached
    verification of the same certificates — uncached meaning a fresh
    ``KeyRing(memo_capacity=0)`` with the same public keys, which no
    ring or instance memo answers for."""
    from repro.crypto import KeyRing
    from repro.tee import TeeCostModel as _Tee

    top, rest, _ = make_nv_set()

    def run(ring):
        svc = AccumulatorService(0, CREDS[0].keypair, ring, T2_MICRO, _Tee(), QUORUM)
        acc = svc.tee_accum(top, rest)
        assert acc is not None
        return svc.drain_cost()

    uncached = KeyRing(memo_capacity=0)
    for c in CREDS:
        uncached.add(c.keypair.public())

    first = run(RING)  # cold: populates the memos
    warm = run(RING)  # warm: served from the memos
    off = run(uncached)  # misses both memo layers
    assert first == warm == off
