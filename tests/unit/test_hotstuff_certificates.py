"""Unit tests for HotStuff votes and quorum certificates."""

from repro.crypto import digest_of
from repro.protocols.hotstuff.certificates import (
    HS_GENESIS_QC,
    HS_PRECOMMIT,
    HS_PREPARE,
    HsQC,
    HsVote,
)
from repro.smr import GENESIS
from repro.tee import provision

CREDS = provision(4)
RING = CREDS[0].ring
H = digest_of("blk")
QUORUM = 3


def vote(owner, phase=HS_PREPARE, view=1, h=H):
    return HsVote(phase, view, h, CREDS[owner].keypair.sign(HsVote.content_digest(phase, view, h)))


def test_vote_verify_and_tamper():
    v = vote(0)
    assert v.verify(RING)
    bad = HsVote(HS_PRECOMMIT, v.view, v.block_hash, v.sig)
    assert not bad.verify(RING)


def test_qc_combines_votes():
    qc = HsQC(HS_PREPARE, 1, H, tuple(vote(o).sig for o in range(3)))
    assert qc.verify(RING, QUORUM)
    assert qc.signer_ids() == (0, 1, 2)


def test_qc_rejects_duplicate_signers():
    qc = HsQC(HS_PREPARE, 1, H, (vote(0).sig, vote(0).sig, vote(1).sig))
    assert not qc.verify(RING, QUORUM)


def test_qc_rejects_below_quorum():
    qc = HsQC(HS_PREPARE, 1, H, (vote(0).sig, vote(1).sig))
    assert not qc.verify(RING, QUORUM)


def test_qc_phase_binds_signatures():
    qc = HsQC(HS_PRECOMMIT, 1, H, tuple(vote(o, HS_PREPARE).sig for o in range(3)))
    assert not qc.verify(RING, QUORUM)  # votes were for prepare phase


def test_genesis_qc_valid():
    assert HS_GENESIS_QC.is_genesis
    assert HS_GENESIS_QC.verify(RING, quorum=1000)
    assert HS_GENESIS_QC.view == -1
    assert HS_GENESIS_QC.block_hash == GENESIS.hash


def test_qc_wire_size_scales():
    small = HsQC(HS_PREPARE, 1, H, (vote(0).sig,))
    big = HsQC(HS_PREPARE, 1, H, tuple(vote(o).sig for o in range(3)))
    assert big.wire_size() > small.wire_size()
