"""Unit tests for Damysus's trusted components."""

import pytest

from repro.crypto import FREE, digest_of
from repro.protocols.damysus.certificates import (
    COMMIT,
    PREPARE,
    DamCert,
    DamVote,
)
from repro.protocols.damysus.tee_services import DamysusAccumulator, DamysusChecker
from repro.smr import GENESIS
from repro.tee import TeeCostModel, provision

N = 5
QUORUM = 3
CREDS = provision(N)
RING = CREDS[0].ring
H1 = digest_of("b1")


def make_checker(owner=0):
    return DamysusChecker(
        owner, CREDS[owner].keypair, RING, FREE, TeeCostModel.free(), QUORUM
    )


def make_accum(owner=0):
    return DamysusAccumulator(
        owner, CREDS[owner].keypair, RING, FREE, TeeCostModel.free(), QUORUM
    )


def prep_cert(h, view, owners=(1, 2, 3)):
    d = DamVote.content_digest(h, view, PREPARE)
    return DamCert(h, view, PREPARE, tuple(CREDS[o].keypair.sign(d) for o in owners))


def test_new_view_commitment_carries_prepared_pair():
    c = make_checker()
    com = c.new_view(0)
    assert com.view == 0
    assert com.prep_view == -1 and com.prep_hash == GENESIS.hash
    assert com.verify(RING)


def test_new_view_monotonic():
    c = make_checker()
    assert c.new_view(0) is not None
    assert c.new_view(0) is None
    assert c.new_view(5) is not None  # jumps are fine, regressions not
    assert c.new_view(3) is None


def test_tee_prepare_once_per_view():
    c = make_checker()
    c.new_view(0)
    assert c.tee_prepare(H1) is not None
    assert c.tee_prepare(digest_of("other")) is None  # non-equivocation


def test_tee_prepare_requires_new_view_first():
    c = make_checker()
    assert c.tee_prepare(H1) is None


def test_vote_prepare_once_per_view():
    c = make_checker()
    c.new_view(0)
    assert c.tee_vote_prepare(H1) is not None
    assert c.tee_vote_prepare(H1) is None


def test_leader_flow_prepare_then_vote():
    c = make_checker()
    c.new_view(0)
    assert c.tee_prepare(H1) is not None
    assert c.tee_vote_prepare(H1) is not None  # leader votes for own block


def test_store_requires_valid_prepare_cert():
    c = make_checker()
    c.new_view(0)
    c.tee_vote_prepare(H1)
    bad = DamCert(H1, 0, PREPARE, ())
    assert c.tee_store(bad) is None
    good = prep_cert(H1, 0)
    vote = c.tee_store(good)
    assert vote is not None and vote.phase == COMMIT
    assert c.prep_view == 0 and c.prep_hash == H1


def test_store_rejects_wrong_view_cert():
    c = make_checker()
    c.new_view(1)
    c.tee_vote_prepare(H1)
    assert c.tee_store(prep_cert(H1, 0)) is None


def test_store_requires_vote_first():
    c = make_checker()
    c.new_view(0)
    assert c.tee_store(prep_cert(H1, 0)) is None


def test_store_once_per_view():
    c = make_checker()
    c.new_view(0)
    c.tee_vote_prepare(H1)
    assert c.tee_store(prep_cert(H1, 0)) is not None
    assert c.tee_store(prep_cert(H1, 0)) is None


def test_prepared_pair_survives_view_changes():
    c = make_checker()
    c.new_view(0)
    c.tee_vote_prepare(H1)
    c.tee_store(prep_cert(H1, 0))
    com = c.new_view(1)
    assert com.prep_view == 0 and com.prep_hash == H1


def test_accumulator_picks_highest_pair():
    a, b, c = make_checker(1), make_checker(2), make_checker(3)
    for chk in (a, b, c):
        chk.new_view(0)
        chk.tee_vote_prepare(H1)
    b.tee_store(prep_cert(H1, 0))  # only b prepared H1 at view 0
    coms = [chk.new_view(1) for chk in (a, b, c)]
    acc = make_accum().tee_accum(coms)
    assert acc is not None
    assert acc.prep_view == 0 and acc.prep_hash == H1
    assert acc.view == 1
    assert acc.verify(RING)


def test_accumulator_rejects_mixed_views():
    a, b, c = make_checker(1), make_checker(2), make_checker(3)
    coms = [a.new_view(1), b.new_view(1), c.new_view(2)]
    assert make_accum().tee_accum(coms) is None


def test_accumulator_rejects_duplicates_and_small_sets():
    a, b = make_checker(1), make_checker(2)
    ca, cb = a.new_view(1), b.new_view(1)
    assert make_accum().tee_accum([ca, cb]) is None
    assert make_accum().tee_accum([ca, ca, cb]) is None


def test_accumulator_rejects_forged_commitment():
    a, b, c = make_checker(1), make_checker(2), make_checker(3)
    coms = [a.new_view(1), b.new_view(1), c.new_view(1)]
    from repro.protocols.damysus.certificates import Commitment

    forged = Commitment(99, H1, 1, coms[2].sig)
    assert make_accum().tee_accum([coms[0], coms[1], forged]) is None
