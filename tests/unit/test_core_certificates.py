"""Unit tests for OneShot certificates (Defs 1-6)."""

import pytest

from repro.core.certificates import (
    GENESIS_PROPOSAL,
    GENESIS_QC,
    Accumulator,
    NewViewCert,
    PrepareCert,
    Proposal,
    StoreCert,
    Vote,
    VoteCert,
    certifies,
    nv_triple,
    qc_ref,
)
from repro.crypto import digest_of
from repro.smr import GENESIS, TxBatch, create_leaf
from repro.tee import provision

QUORUM = 2
CREDS = provision(4)
RING = CREDS[0].ring


def sign(owner, digest):
    return CREDS[owner].keypair.sign(digest)


def make_store(owner, stored_view, h, prop_view):
    return StoreCert(
        stored_view, h, prop_view, sign(owner, StoreCert.content_digest(stored_view, h, prop_view))
    )


def make_prep(stored_view, h, prop_view, owners=(0, 1)):
    d = StoreCert.content_digest(stored_view, h, prop_view)
    return PrepareCert(stored_view, h, prop_view, tuple(sign(o, d) for o in owners))


H1 = digest_of("block-1")
H2 = digest_of("block-2")


# ----------------------------------------------------------------------
# Proposals (Def. 1)
# ----------------------------------------------------------------------
def test_proposal_verify():
    p = Proposal(H1, 3, sign(0, Proposal.content_digest(H1, 3)))
    assert p.verify(RING)


def test_proposal_tamper_fails():
    p = Proposal(H1, 3, sign(0, Proposal.content_digest(H1, 3)))
    assert not Proposal(H2, 3, p.sig).verify(RING)
    assert not Proposal(H1, 4, p.sig).verify(RING)


def test_genesis_proposal():
    assert GENESIS_PROPOSAL.is_genesis
    assert GENESIS_PROPOSAL.verify(RING)
    fake = Proposal(H1, -1, None)
    assert not fake.verify(RING)


# ----------------------------------------------------------------------
# Store / prepare certificates (Defs 2-3)
# ----------------------------------------------------------------------
def test_store_cert_verify_and_tamper():
    c = make_store(1, 5, H1, 4)
    assert c.verify(RING)
    assert not StoreCert(5, H2, 4, c.sig).verify(RING)
    assert not StoreCert(6, H1, 4, c.sig).verify(RING)


def test_prepare_cert_combines_store_signatures():
    pc = make_prep(5, H1, 5, owners=(0, 1))
    assert pc.verify(RING, QUORUM)
    assert pc.signer_ids() == (0, 1)


def test_prepare_cert_requires_distinct_signers():
    d = StoreCert.content_digest(5, H1, 5)
    pc = PrepareCert(5, H1, 5, (sign(0, d), sign(0, d)))
    assert not pc.verify(RING, QUORUM)


def test_prepare_cert_quorum_size_enforced():
    pc = make_prep(5, H1, 5, owners=(0,))
    assert not pc.verify(RING, QUORUM)


def test_genesis_qc_valid_by_convention():
    assert GENESIS_QC.is_genesis
    assert GENESIS_QC.verify(RING, quorum=100)


def test_non_genesis_empty_prep_invalid():
    pc = PrepareCert(0, H1, 0, ())
    assert not pc.is_genesis
    assert not pc.verify(RING, QUORUM)


# ----------------------------------------------------------------------
# Votes (Def. 4)
# ----------------------------------------------------------------------
def test_vote_and_vote_cert():
    v0 = Vote(H1, 7, sign(0, Vote.content_digest(H1, 7)))
    v1 = Vote(H1, 7, sign(1, Vote.content_digest(H1, 7)))
    assert v0.verify(RING)
    vc = VoteCert(H1, 7, (v0.sig, v1.sig))
    assert vc.verify(RING, QUORUM)
    assert not VoteCert(H2, 7, (v0.sig, v1.sig)).verify(RING, QUORUM)


# ----------------------------------------------------------------------
# Accumulators (Def. 5)
# ----------------------------------------------------------------------
def make_acc(certified=True, view=4, h=H1, ids=(0, 1), signer=2):
    return Accumulator(
        certified, view, h, ids, sign(signer, Accumulator.content_digest(certified, view, h, ids))
    )


def test_accumulator_validity():
    assert make_acc().verify(RING, QUORUM)


def test_accumulator_requires_unique_ids():
    acc = make_acc(ids=(0, 0))
    assert not acc.verify(RING, QUORUM)


def test_accumulator_tamper_fails():
    acc = make_acc()
    forged = Accumulator(acc.certified, acc.view + 1, acc.block_hash, acc.ids, acc.sig)
    assert not forged.verify(RING, QUORUM)


# ----------------------------------------------------------------------
# Quorum certificates: the "for ⟨v, h⟩" mapping (Sec. VI-B f)
# ----------------------------------------------------------------------
def test_qc_ref_prepare_cert():
    # prep(v-1, h, v') is for ⟨v, h⟩.
    assert qc_ref(make_prep(4, H1, 4)) == (5, H1)


def test_qc_ref_vote_cert():
    vc = VoteCert(H1, 7, ())
    assert qc_ref(vc) == (7, H1)


def test_qc_ref_accumulator():
    assert qc_ref(make_acc(certified=True, view=4)) == (5, H1)
    assert qc_ref(make_acc(certified=False, view=4)) is None


def test_qc_ref_genesis():
    assert qc_ref(GENESIS_QC) == (0, GENESIS.hash)


def test_qc_signer_ids():
    """Every quorum-certificate arm names the nodes a block pull asks."""
    assert make_prep(4, H1, 4, owners=(0, 1)).signer_ids() == (0, 1)
    assert make_acc(ids=(2, 3)).signer_ids() == (2, 3)


def test_verify_qc_dispatch():
    """Every quorum-certificate arm verifies through one ``verify``."""
    assert make_prep(4, H1, 4).verify(RING, QUORUM)
    assert make_acc().verify(RING, QUORUM)
    assert not make_acc(ids=(0, 0)).verify(RING, QUORUM)


def test_qc_verify_cost():
    assert make_prep(4, H1, 4).sig_count == 2
    assert make_acc().sig_count == 1
    assert GENESIS_QC.sig_count == 0


# ----------------------------------------------------------------------
# New-view certificates (Def. 6)
# ----------------------------------------------------------------------
def _nv_extends_case():
    """Timeout after an undecided proposal: b ≻ qc.hash, proposed at v."""
    parent_qc = make_prep(4, H1, 4)  # for ⟨5, H1⟩
    block = create_leaf(H1, 5, TxBatch(), proposer=0)
    store = make_store(1, 6, block.hash, 5)  # stored at 6, proposed at 5
    return NewViewCert(block, store, parent_qc)


def _nv_self_certified():
    """Timeout after a decision: qc certifies the stored block itself."""
    block = create_leaf(H1, 5, TxBatch(), proposer=0)
    qc = make_prep(5, block.hash, 5)  # decide-phase cert for the block
    store = make_store(1, 6, block.hash, 5)
    return NewViewCert(block, store, qc)


def test_nv_triple():
    nv = _nv_extends_case()
    assert nv_triple(nv) == (6, nv.block.hash, 5)
    pc = make_prep(6, H1, 6)
    assert nv_triple(pc) == (6, H1, 6)


def test_certifies_only_self_certified():
    ext = _nv_extends_case()
    selfc = _nv_self_certified()
    assert not certifies(ext.store.block_hash, ext)
    assert certifies(selfc.store.block_hash, selfc)
    # A prepare certificate is never "certified by" (nv-form only).
    assert not certifies(H1, make_prep(5, H1, 5))


def test_verify_new_view_accepts_both_cases():
    assert _nv_extends_case().verify(RING, QUORUM)
    assert _nv_self_certified().verify(RING, QUORUM)


def test_verify_new_view_rejects_view_mismatch():
    nv = _nv_extends_case()
    # Store claims proposal view 6 but qc is for view 5.
    bad_store = make_store(1, 6, nv.block.hash, 6)
    assert not NewViewCert(nv.block, bad_store, nv.qc).verify(RING, QUORUM)


def test_verify_new_view_rejects_wrong_block():
    nv = _nv_extends_case()
    other = create_leaf(H2, 5, TxBatch(), proposer=0)
    assert not NewViewCert(other, nv.store, nv.qc).verify(RING, QUORUM)


def test_verify_new_view_block_omission_allowed():
    nv = _nv_extends_case()
    omitted = NewViewCert(None, nv.store, nv.qc)
    assert omitted.verify(RING, QUORUM)


def test_verify_new_view_rejects_bad_qc():
    nv = _nv_extends_case()
    bad_qc = PrepareCert(4, H1, 4, (sign(0, StoreCert.content_digest(9, H1, 9)),) * 2)
    assert not NewViewCert(nv.block, nv.store, bad_qc).verify(RING, QUORUM)


def test_nv_verify_cost():
    assert _nv_extends_case().sig_count == 3  # store + 2 qc sigs
    assert make_prep(5, H1, 5).sig_count == 2


def test_wire_sizes_positive_and_scale():
    assert make_prep(4, H1, 4, owners=(0, 1)).wire_size() < make_prep(
        4, H1, 4, owners=(0, 1, 2)
    ).wire_size()
    assert _nv_extends_case().wire_size() > 0
    nv = _nv_extends_case()
    assert NewViewCert(None, nv.store, nv.qc).wire_size() < nv.wire_size() + 1
