"""Property tests: every signed statement signs the bytes it always did.

The reference below is the per-class digest helpers the protocols used
before :mod:`repro.crypto.signed` gave every statement one
``digest()``: one function per signed content, each a domain tag plus
the content fields in a fixed order.  A signature is over these bytes,
so any drift (a renamed domain, reordered fields) would change every
run's messages.  The checks cover the digest, :meth:`Statement.combine`
(a vote's quorum certificate equals the one built by hand) and the wire
sizes the network charges.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.certificates import (
    GENESIS_PROPOSAL,
    GENESIS_QC,
    Accumulator,
    PrepareCert,
    Proposal,
    StoreCert,
    Vote,
    VoteCert,
)
from repro.crypto import Signature, digest_of
from repro.crypto.signed import Certificate
from repro.protocols.damysus.certificates import (
    COMMIT,
    PREPARE,
    Commitment,
    DamAccum,
    DamCert,
    DamProposal,
    DamVote,
)
from repro.protocols.hotstuff.certificates import (
    HS_COMMIT,
    HS_GENESIS_QC,
    HS_PRECOMMIT,
    HS_PREPARE,
    HsQC,
    HsVote,
)


# ----------------------------------------------------------------------
# The reference: the signed-content helpers as they were written, with
# their parameters named after the fields they sign.
# ----------------------------------------------------------------------
def os_proposal_digest(block_hash, view):
    return digest_of("os-prop", block_hash, view)


def os_store_digest(stored_view, block_hash, prop_view):
    return digest_of("os-store", stored_view, block_hash, prop_view)


def os_vote_digest(block_hash, view):
    return digest_of("os-vote", block_hash, view)


def os_accumulator_digest(certified, view, block_hash, ids):
    return digest_of("os-acc", certified, view, block_hash, ids)


def dam_commitment_digest(prep_view, prep_hash, view):
    return digest_of("dam-com", prep_view, prep_hash, view)


def dam_accum_digest(view, prep_hash, prep_view):
    return digest_of("dam-acc", view, prep_hash, prep_view)


def dam_proposal_digest(block_hash, view):
    return digest_of("dam-prop", block_hash, view)


def dam_vote_digest(block_hash, view, phase):
    return digest_of("dam-vote", block_hash, view, phase)


def hs_vote_digest(phase, view, block_hash):
    return digest_of("hs-vote", phase, view, block_hash)


views = st.integers(-1, 2**40)
hashes = st.binary(min_size=32, max_size=32)
dam_phases = st.sampled_from([PREPARE, COMMIT])
hs_phases = st.sampled_from([HS_PREPARE, HS_PRECOMMIT, HS_COMMIT])
STORE = dict(stored_view=views, block_hash=hashes, prop_view=views)
DAM_VOTE = dict(block_hash=hashes, view=views, phase=dam_phases)
HS_VOTE = dict(phase=hs_phases, view=views, block_hash=hashes)

#: Class -> (reference digest, field name -> strategy).  The fields are
#: drawn by name, so a class whose content order drifted from the
#: reference's fails.
SIGNED = {
    Proposal: (os_proposal_digest, dict(block_hash=hashes, view=views)),
    StoreCert: (os_store_digest, STORE),
    PrepareCert: (os_store_digest, STORE),
    Vote: (os_vote_digest, dict(block_hash=hashes, view=views)),
    VoteCert: (os_vote_digest, dict(block_hash=hashes, view=views)),
    Accumulator: (
        os_accumulator_digest,
        dict(
            certified=st.booleans(),
            view=views,
            block_hash=hashes,
            ids=st.lists(st.integers(0, 100), max_size=8).map(tuple),
        ),
    ),
    Commitment: (
        dam_commitment_digest,
        dict(prep_view=views, prep_hash=hashes, view=views),
    ),
    DamAccum: (dam_accum_digest, dict(view=views, prep_hash=hashes, prep_view=views)),
    DamProposal: (dam_proposal_digest, dict(block_hash=hashes, view=views)),
    DamVote: (dam_vote_digest, DAM_VOTE),
    DamCert: (dam_vote_digest, DAM_VOTE),
    HsVote: (hs_vote_digest, HS_VOTE),
    HsQC: (hs_vote_digest, HS_VOTE),
}

#: A vote and the certificate a quorum of it combines into.
PAIRS = [(StoreCert, PrepareCert), (Vote, VoteCert), (DamVote, DamCert), (HsVote, HsQC)]


def sig(signer):
    return Signature(signer, bytes([signer]) * 32)


def build(cls, fields, k=2):
    """An instance of ``cls`` with ``fields``: one signature, or ``k``."""
    if issubclass(cls, Certificate):
        return cls(**fields, sigs=tuple(sig(i) for i in range(k)))
    return cls(**fields, sig=sig(0))


def draw_fields(data, cls):
    return data.draw(st.fixed_dictionaries(SIGNED[cls][1]))


@pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
@given(data=st.data())
def test_signed_bytes_equal_the_reference(cls, data):
    fields = draw_fields(data, cls)
    expected = SIGNED[cls][0](**fields)
    obj = build(cls, fields)
    assert obj.digest() == expected
    assert cls.content_digest(*obj.content) == expected


@pytest.mark.parametrize("vote_cls, cert_cls", PAIRS, ids=lambda c: c.__name__)
@given(data=st.data(), k=st.integers(0, 7))
def test_combine_equals_the_hand_built_certificate(vote_cls, cert_cls, data, k):
    fields = draw_fields(data, vote_cls)
    sigs = tuple(sig(i) for i in range(k))
    vote = build(vote_cls, fields)
    combined = vote.combine(sigs)
    assert type(combined) is cert_cls
    assert combined == cert_cls(**fields, sigs=sigs)
    assert combined.digest() == vote.digest()


#: Statement class -> the wire size it had as a hand-written constant.
STATEMENT_BYTES = {
    Proposal: 40 + 64,
    StoreCert: 48 + 64,
    Vote: 40 + 64,
    Commitment: 48 + 64,
    DamAccum: 48 + 64,
    DamProposal: 40 + 64,
    DamVote: 48 + 64,
    HsVote: 48 + 64,
}

#: Certificate class -> content bytes before its k signatures.
CERT_HEAD = {PrepareCert: 48, VoteCert: 40, DamCert: 48, HsQC: 48}


@pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
@given(data=st.data(), k=st.integers(0, 7))
def test_wire_sizes_equal_the_old_constants(cls, data, k):
    fields = draw_fields(data, cls)
    obj = build(cls, fields, k)
    if cls is Accumulator:
        expected = 48 + 4 * len(fields["ids"]) + 64
    elif cls in CERT_HEAD:
        expected = CERT_HEAD[cls] + 64 * k
    else:
        expected = STATEMENT_BYTES[cls]
    assert obj.wire_size() == expected


def test_genesis_wire_sizes_and_signature_counts():
    assert GENESIS_PROPOSAL.wire_size() == 40 + 64
    assert GENESIS_QC.wire_size() == 48
    assert HS_GENESIS_QC.wire_size() == 48
    assert GENESIS_QC.sig_count == HS_GENESIS_QC.sig_count == 0


def test_signature_count_is_read_from_the_certificate():
    h = bytes(32)
    store = dict(stored_view=1, block_hash=h, prop_view=1)
    assert build(StoreCert, store).sig_count == 1
    acc = dict(certified=True, view=1, block_hash=h, ids=(0, 1, 2))
    assert build(Accumulator, acc).sig_count == 1
    for k in (1, 3, 5):
        assert build(PrepareCert, store, k).sig_count == k
        assert build(HsQC, dict(phase=HS_PREPARE, view=1, block_hash=h), k).sig_count == k
