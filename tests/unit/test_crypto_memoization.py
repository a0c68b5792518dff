"""Digest memoization: cached results must be bit-identical to fresh
ones, and repeated digests must not re-enter SHA-256.

``repro.crypto.hashing.digest_of`` memoizes on the field tuple; these
tests stub ``sha256`` with a counting wrapper to prove (a) the cache
actually short-circuits recomputation and (b) for every message-digest
helper in the codebase, the memoized value equals an independently
recomputed one.  ``clear_digest_memos`` (what a run driver calls when
its run ends) empties the memos between tests.
"""

import pytest

from repro.crypto import hashing
from repro.crypto.hashing import (
    clear_digest_memos,
    digest_memo_entries,
    digest_of,
    encode,
    sha256,
)
from repro.smr import TX_OVERHEAD_BYTES, Block, TxBatch


@pytest.fixture
def counting_sha256(monkeypatch):
    """Replace the module's sha256 with a call-counting wrapper."""
    calls = {"n": 0}
    real = hashing.sha256

    def counted(data: bytes) -> bytes:
        calls["n"] += 1
        return real(data)

    monkeypatch.setattr(hashing, "sha256", counted)
    # A clean cache, restored empty afterwards so cached digests
    # produced under the stub cannot leak into other tests.
    clear_digest_memos()
    yield calls
    clear_digest_memos()


def test_repeat_digest_hits_cache(counting_sha256):
    first = digest_of("memo-test", 1, b"xy")
    before = counting_sha256["n"]
    second = digest_of("memo-test", 1, b"xy")
    assert second == first
    assert counting_sha256["n"] == before  # no new SHA-256 invocation


def test_distinct_fields_miss_cache(counting_sha256):
    digest_of("memo-test", 1)
    before = counting_sha256["n"]
    digest_of("memo-test", 2)
    assert counting_sha256["n"] == before + 1


def test_clearing_empties_both_memos(counting_sha256):
    """Bool-free and bool-bearing field tuples live in separate memos;
    ``clear_digest_memos`` empties both, and a cleared digest is
    recomputed to the same bytes."""
    plain, flagged = digest_of("memo-test", 0), digest_of("memo-test", False)
    assert plain != flagged and digest_memo_entries() == 2
    clear_digest_memos()
    assert digest_memo_entries() == 0
    before = counting_sha256["n"]
    assert digest_of("memo-test", 0) == plain
    assert counting_sha256["n"] == before + 1


def test_unhashable_fields_fall_back_uncached(counting_sha256):
    """Lists are unhashable: every call recomputes, same bytes out."""
    a = digest_of("memo-test", [1, 2, 3])
    before = counting_sha256["n"]
    b = digest_of("memo-test", [1, 2, 3])
    assert a == b
    assert counting_sha256["n"] == before + 1


# ----------------------------------------------------------------------
# Memoized == recomputed, for every message-digest helper
# ----------------------------------------------------------------------
_H = sha256(b"some block hash")

#: (label, field tuple) for each digest-producing message helper; the
#: prefixes mirror the ones used by the real helpers.
MESSAGE_FIELDS = [
    ("oneshot-proposal", ("os-prop", _H, 3)),
    ("oneshot-store", ("os-store", 2, _H, 3)),
    ("oneshot-vote", ("os-vote", _H, 3)),
    ("oneshot-accumulator", ("os-acc", True, 4, _H, (0, 1, 2))),
    ("damysus-commitment", ("dam-com", 2, _H, 3)),
    ("damysus-accumulator", ("dam-acc", 3, _H, 2)),
    ("damysus-proposal", ("dam-prop", _H, 3)),
    ("damysus-vote", ("dam-vote", _H, 3, "prepare")),
    ("block", ("block", _H, 5, 1, (("tx", 7, 0, 256),))),
]


@pytest.mark.parametrize(
    "fields", [f for _, f in MESSAGE_FIELDS], ids=[n for n, _ in MESSAGE_FIELDS]
)
def test_memoized_equals_recomputed(fields):
    """The cache is a pure speed memo: for each message type, the
    memoized digest equals a from-scratch ``sha256(encode(...))``."""
    clear_digest_memos()
    memoized = digest_of(*fields)  # populates the cache
    assert digest_memo_entries() == 1
    cached = digest_of(*fields)  # served from the cache
    recomputed = sha256(encode(fields))
    assert memoized == cached == recomputed


def test_real_message_digests_use_memo(counting_sha256):
    """End-to-end: the actual certificate helpers hit the cache."""
    from repro.core.certificates import Proposal, Vote

    Proposal.content_digest(_H, 7)
    Vote.content_digest(_H, 7)
    before = counting_sha256["n"]
    Proposal.content_digest(_H, 7)
    Vote.content_digest(_H, 7)
    assert counting_sha256["n"] == before


def test_block_hash_is_cached_and_stable():
    txs = TxBatch.columns([1] * 5, range(5))
    b = Block(parent=_H, view=3, txs=txs, proposer=0)
    assert b.hash is b.hash  # cached_property: same object
    clone = Block(parent=_H, view=3, txs=txs, proposer=0)
    assert clone.hash == b.hash


def test_block_wire_size_cached_and_consistent():
    txs = TxBatch.columns([1] * 4, range(4), payload_bytes=256)
    b = Block(parent=_H, view=3, txs=txs, proposer=0)
    expected = 8 + 4 * (TX_OVERHEAD_BYTES + 256)
    assert b.wire_size() == expected
    assert b.wire_size() == expected  # second read served from cache
