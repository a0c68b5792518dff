"""Property tests: CHECKER counter invariants under arbitrary call
sequences — the heart of the hybrid fault model (Lemma 1 relies on
exactly these)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.certificates import GENESIS_PROPOSAL, Proposal
from repro.core.tee_services import Checker
from repro.crypto import FREE, digest_of
from repro.tee import TeeCostModel, provision

N = 4
CREDS = provision(N)
RING = CREDS[0].ring


def leader_of(view):
    return view % N


def fresh_checker(owner=0):
    return Checker(
        owner, CREDS[owner].keypair, RING, FREE, TeeCostModel.free(), leader_of
    )


call = st.one_of(
    st.tuples(st.just("prepare"), st.integers(0, 5)),
    st.tuples(st.just("store_genesis"), st.just(0)),
    st.tuples(st.just("store_signed"), st.integers(0, 8)),
    st.tuples(st.just("vote"), st.integers(0, 5)),
)


def run_calls(checker, calls):
    proposals, stores, votes = [], [], []
    for kind, arg in calls:
        if kind == "prepare":
            p = checker.tee_prepare(digest_of("blk", arg))
            if p is not None:
                proposals.append(p)
        elif kind == "store_genesis":
            s = checker.tee_store(GENESIS_PROPOSAL)
            if s is not None:
                stores.append(s)
        elif kind == "store_signed":
            view = arg
            h = digest_of("signed", arg)
            sig = CREDS[leader_of(view)].keypair.sign(Proposal.content_digest(h, view))
            s = checker.tee_store(Proposal(h, view, sig))
            if s is not None:
                stores.append(s)
        elif kind == "vote":
            votes.append(checker.tee_vote(digest_of("v", arg)))
    return proposals, stores, votes


@given(st.lists(call, max_size=30))
def test_view_monotonic_and_one_store_per_view(calls):
    checker = fresh_checker()
    _, stores, _ = run_calls(checker, calls)
    stored_views = [s.stored_view for s in stores]
    # Strictly increasing: one store certificate per view, ever.
    assert stored_views == sorted(set(stored_views))


@given(st.lists(call, max_size=30))
def test_at_most_one_proposal_per_view(calls):
    checker = fresh_checker()
    proposals, _, _ = run_calls(checker, calls)
    views = [p.view for p in proposals]
    assert len(views) == len(set(views))


@given(st.lists(call, max_size=30))
def test_prepv_monotonic(calls):
    checker = fresh_checker()
    prepvs = []
    for c in calls:
        run_calls(checker, [c])
        prepvs.append(checker.prepv)
    assert prepvs == sorted(prepvs)


@given(st.lists(call, max_size=30))
def test_stored_proposal_view_never_below_prepv(calls):
    checker = fresh_checker()
    _, stores, _ = run_calls(checker, calls)
    best = -1
    for s in stores:
        assert s.prop_view >= best
        best = max(best, s.prop_view)


@given(st.lists(call, max_size=30))
def test_all_emitted_certificates_verify(calls):
    checker = fresh_checker()
    proposals, stores, votes = run_calls(checker, calls)
    assert all(p.verify(RING) for p in proposals)
    assert all(s.verify(RING) for s in stores)
    assert all(v.verify(RING) for v in votes)
