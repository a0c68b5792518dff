"""Property tests: Damysus CHECKER invariants under arbitrary calls."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import FREE, digest_of
from repro.protocols.damysus.certificates import (
    COMMIT,
    PREPARE,
    DamCert,
    DamVote,
)
from repro.protocols.damysus.tee_services import DamysusChecker
from repro.tee import TeeCostModel, provision

N = 4
QUORUM = 3
CREDS = provision(N)
RING = CREDS[0].ring


def fresh():
    return DamysusChecker(
        0, CREDS[0].keypair, RING, FREE, TeeCostModel.free(), QUORUM
    )


def prep_cert(h, view):
    d = DamVote.content_digest(h, view, PREPARE)
    return DamCert(h, view, PREPARE, tuple(CREDS[o].keypair.sign(d) for o in (1, 2, 3)))


call = st.one_of(
    st.tuples(st.just("new_view"), st.integers(0, 6)),
    st.tuples(st.just("prepare"), st.integers(0, 3)),
    st.tuples(st.just("vote"), st.integers(0, 3)),
    st.tuples(st.just("store"), st.integers(0, 6)),
)


def drive(checker, calls):
    commitments, proposals, votes = [], [], []
    for kind, arg in calls:
        if kind == "new_view":
            c = checker.new_view(arg)
            if c is not None:
                commitments.append(c)
        elif kind == "prepare":
            p = checker.tee_prepare(digest_of("b", arg))
            if p is not None:
                proposals.append(p)
        elif kind == "vote":
            v = checker.tee_vote_prepare(digest_of("b", arg))
            if v is not None:
                votes.append(v)
        elif kind == "store":
            h = digest_of("b", arg % 4)
            checker.tee_store(prep_cert(h, arg))
    return commitments, proposals, votes


@given(st.lists(call, max_size=25))
def test_commitment_views_strictly_increase(calls):
    commitments, _, _ = drive(fresh(), calls)
    views = [c.view for c in commitments]
    assert views == sorted(set(views))


@given(st.lists(call, max_size=25))
def test_one_proposal_and_one_vote_per_view(calls):
    _, proposals, votes = drive(fresh(), calls)
    assert len({p.view for p in proposals}) == len(proposals)
    assert len({v.view for v in votes}) == len(votes)


@given(st.lists(call, max_size=25))
def test_prepared_pair_only_advances(calls):
    checker = fresh()
    pairs = []
    for c in calls:
        drive(checker, [c])
        pairs.append(checker.prep_view)
    assert pairs == sorted(pairs)


@given(st.lists(call, max_size=25))
def test_all_emitted_certificates_verify(calls):
    commitments, proposals, votes = drive(fresh(), calls)
    assert all(c.verify(RING) for c in commitments)
    assert all(p.verify(RING) for p in proposals)
    assert all(v.verify(RING) for v in votes)


@given(st.lists(call, max_size=25))
def test_store_only_after_vote_in_same_view(calls):
    """A commit vote (tee_store output) exists only for views where a
    prepare vote was issued first — the step machine's discipline."""
    checker = fresh()
    commit_views = []
    vote_views = set()
    for kind, arg in calls:
        if kind == "new_view":
            checker.new_view(arg)
        elif kind == "prepare":
            checker.tee_prepare(digest_of("b", arg))
        elif kind == "vote":
            v = checker.tee_vote_prepare(digest_of("b", arg))
            if v is not None:
                vote_views.add(v.view)
        elif kind == "store":
            h = digest_of("b", arg % 4)
            out = checker.tee_store(prep_cert(h, arg))
            if out is not None:
                commit_views.append(out.view)
    assert all(v in vote_views for v in commit_views)
