"""Unit tests for the event queue."""

import pytest

from repro.sim.event import Event, EventQueue


def test_push_pop_orders_by_time():
    q = EventQueue()
    seen = []
    q.push(2.0, seen.append, ("b",))
    q.push(1.0, seen.append, ("a",))
    q.push(3.0, seen.append, ("c",))
    while (ev := q.pop_next()) is not None:
        ev.callback(*ev.args)
    assert seen == ["a", "b", "c"]


def test_equal_times_fire_in_insertion_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, order.append, (i,))
    while (ev := q.pop_next()) is not None:
        ev.callback(*ev.args)
    assert order == list(range(10))


def test_priority_breaks_ties_before_seq():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("low",), priority=1)
    q.push(1.0, order.append, ("high",), priority=0)
    while (ev := q.pop_next()) is not None:
        ev.callback(*ev.args)
    assert order == ["high", "low"]


def test_cancelled_events_are_skipped():
    q = EventQueue()
    fired = []
    ev = q.push(1.0, fired.append, (1,))
    q.push(2.0, fired.append, (2,))
    ev.cancel()
    while (e := q.pop_next()) is not None:
        e.callback(*e.args)
    assert fired == [2]


def test_cancel_is_idempotent():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    assert q.pop_next() is None


def test_bounded_pop_next_looks_past_cancelled_head():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    first.cancel()
    # The cancelled 1.0 head is discarded; the live 5.0 lies beyond.
    assert q.pop_next(until=2.0) is None
    assert q.live_count() == 1
    assert q.pop_next(until=5.0).time == 5.0


def test_pop_next_empty_queue():
    assert EventQueue().pop_next() is None
    assert EventQueue().pop_next(until=1.0) is None


def test_len_counts_queued_events():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert q.pop_next() is None


# ----------------------------------------------------------------------
# Tuple-heap fast path: live counting and bounded pops
# ----------------------------------------------------------------------
def test_live_count_excludes_cancelled():
    q = EventQueue()
    evs = [q.push(float(i), lambda: None) for i in range(5)]
    assert q.live_count() == 5
    evs[1].cancel()
    evs[3].cancel()
    assert q.live_count() == 3
    assert len(q) == 5  # cancelled entries still heaped


def test_live_count_tracks_pops():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.pop_next()
    assert q.live_count() == 1
    q.pop_next()
    assert q.live_count() == 0


def test_cancel_after_pop_does_not_corrupt_live_count():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.pop_next() is ev
    ev.cancel()  # too late — it already fired
    assert q.live_count() == 1


def test_cancel_after_clear_does_not_corrupt_live_count():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.clear()
    ev.cancel()
    assert q.live_count() == 0
    q.push(1.0, lambda: None)
    assert q.live_count() == 1


def test_clear_resets_live_count():
    q = EventQueue()
    for i in range(4):
        q.push(float(i), lambda: None)
    q.clear()
    assert q.live_count() == 0
    assert len(q) == 0


def test_pop_next_respects_bound():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(3.0, lambda: None)
    assert q.pop_next(until=2.0).time == 1.0
    # The 3.0 event lies beyond the bound: not popped, still live.
    assert q.pop_next(until=2.0) is None
    assert q.live_count() == 1
    assert q.pop_next(until=3.0).time == 3.0


def test_pop_next_event_exactly_at_bound_fires():
    q = EventQueue()
    q.push(2.0, lambda: None)
    assert q.pop_next(until=2.0) is not None


def test_pop_next_skips_cancelled_heads():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    second = q.push(2.0, lambda: None)
    first.cancel()
    assert q.pop_next() is second
    assert q.pop_next() is None


def test_pop_next_unbounded_drains():
    q = EventQueue()
    times = [3.0, 1.0, 2.0]
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (ev := q.pop_next()) is not None:
        popped.append(ev.time)
    assert popped == sorted(times)


def test_tuple_heap_never_compares_events():
    """Events scheduled for identical (time, priority) must order by
    seq alone — callbacks are not comparable, so reaching the Event in
    a tuple comparison would raise TypeError."""
    q = EventQueue()
    order = []
    # Many identical keys force deep sift chains through equal tuples.
    for i in range(100):
        q.push(1.0, order.append, (i,), priority=0)
    while (ev := q.pop_next()) is not None:
        ev.callback(*ev.args)
    assert order == list(range(100))


def test_cancelled_event_repr_and_flag():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert not ev.cancelled
    ev.cancel()
    assert ev.cancelled


# -- push_many ---------------------------------------------------------
def test_push_many_matches_sequential_pushes():
    """Bulk insert ≡ a loop of push(): same pop order, same seq."""
    a, b = EventQueue(), EventQueue()
    times = [3.0, 1.0, 2.0, 1.0, 5.0]
    argss = [(i,) for i in range(len(times))]
    cb = lambda i: None
    a.push_many(times, cb, argss)
    for t, args in zip(times, argss):
        b.push(t, cb, args)
    while True:
        ea, eb = a.pop_next(), b.pop_next()
        assert (ea is None) == (eb is None)
        if ea is None:
            break
        assert (ea.time, ea.priority, ea.seq, ea.args) == (
            eb.time,
            eb.priority,
            eb.seq,
            eb.args,
        )


def test_push_many_equal_times_fire_in_batch_order():
    q = EventQueue()
    q.push_many([1.0] * 4, lambda i: None, [(i,) for i in range(4)])
    assert [q.pop_next().args[0] for _ in range(4)] == [0, 1, 2, 3]


def test_push_many_interleaves_with_push_by_seq():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    batch = q.push_many([1.0, 1.0], lambda i: None, [(0,), (1,)])
    last = q.push(1.0, lambda: None)
    seqs = [first.seq] + [ev.seq for ev in batch] + [last.seq]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 4


def test_push_many_empty_batch():
    q = EventQueue()
    assert q.push_many([], lambda: None, []) == []
    assert len(q) == 0
    assert q.live_count() == 0


def test_push_many_heapify_path_orders_against_existing_events():
    """A batch large relative to the heap takes extend+heapify — the
    pre-existing events must still pop in time order."""
    q = EventQueue()
    q.push(2.5, lambda: None)
    q.push_many(
        [float(t) for t in (5, 1, 4, 2, 3, 9, 8, 7, 6, 0)],
        lambda: None,
        [()] * 10,
    )
    times = []
    while (ev := q.pop_next()) is not None:
        times.append(ev.time)
    assert times == sorted(times)
    assert 2.5 in times


def test_push_many_events_are_cancellable():
    q = EventQueue()
    events = q.push_many([1.0, 2.0, 3.0], lambda: None, [()] * 3)
    events[1].cancel()
    assert q.live_count() == 2
    assert [q.pop_next().time for _ in range(2)] == [1.0, 3.0]
    assert q.pop_next() is None


def test_push_many_live_count():
    q = EventQueue()
    q.push_many([1.0, 2.0], lambda: None, [(), ()])
    assert q.live_count() == 2
    assert len(q) == 2
