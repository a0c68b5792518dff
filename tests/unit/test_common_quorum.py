"""Unit tests for the quorum tracker."""

import pytest

from repro.protocols.common import QuorumTracker


def test_fires_exactly_at_threshold():
    t = QuorumTracker(3)
    assert t.add("k", 0, "a") is None
    assert t.add("k", 1, "b") is None
    got = t.add("k", 2, "c")
    assert sorted(got) == ["a", "b", "c"]


def test_fires_only_once_per_key():
    t = QuorumTracker(2)
    t.add("k", 0, "a")
    assert t.add("k", 1, "b") is not None
    assert t.add("k", 2, "c") is None
    assert t.fired("k")


def test_duplicate_signers_ignored():
    t = QuorumTracker(2)
    assert t.add("k", 0, "a") is None
    assert t.add("k", 0, "a2") is None  # same signer, not counted
    assert t.count("k") == 1
    assert t.add("k", 1, "b") is not None


def test_keys_are_independent():
    t = QuorumTracker(2)
    t.add("k1", 0, "a")
    assert t.add("k2", 1, "b") is None
    assert t.count("k1") == 1 and t.count("k2") == 1


def test_items_accessor():
    t = QuorumTracker(5)
    t.add("k", 0, "a")
    t.add("k", 1, "b")
    assert sorted(t.items("k")) == ["a", "b"]
    assert t.items("missing") == []


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        QuorumTracker(0)


def test_clear_below_drops_old_view_keys():
    t = QuorumTracker(2)
    t.add((1, "h"), 0, "old")
    t.add((9, "h"), 0, "new")
    t.clear_below(5)
    assert t.count((1, "h")) == 0
    assert t.count((9, "h")) == 1


def test_clear_below_drops_old_int_view_keys():
    """Trackers keyed by a bare view (new-view collection) prune too."""
    t = QuorumTracker(1)
    assert t.add(1, 0, "old") is not None
    t.add(9, 0, "new")
    t.clear_below(5)
    assert t.count(1) == 0 and not t.fired(1)
    assert t.count(9) == 1


def test_clear_below_ignores_non_view_keys():
    t = QuorumTracker(2)
    t.add("plain", 0, "x")
    t.clear_below(100)
    assert t.count("plain") == 1


def test_clear_below_allows_refire():
    t = QuorumTracker(1)
    assert t.add((1, "h"), 0, "a") is not None
    t.clear_below(5)
    assert t.add((1, "h"), 0, "a") is not None  # state fully dropped
