"""Unit tests for the simulator core."""

import pytest

from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_advances_clock_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5]
    assert sim.now == 1.5


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(3.0, hits.append, 3)
    sim.schedule_at(1.0, hits.append, 1)
    sim.run()
    assert hits == [1, 3]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, 1)
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()  # event is still queued
    assert fired == [1]


def test_run_max_events():
    sim = Simulator()
    hits = []
    for i in range(5):
        sim.schedule(i + 1.0, hits.append, i)
    sim.run(max_events=3)
    assert hits == [0, 1, 2]


def test_stop_when_predicate():
    """A target watched by the model itself (here: two hits) ends the
    run through :meth:`Simulator.stop` from the event that reaches it."""
    sim = Simulator()
    hits = []

    def hit(i):
        hits.append(i)
        if len(hits) >= 2:
            sim.stop()

    for i in range(5):
        sim.schedule(i + 1.0, hit, i)
    sim.run()
    assert hits == [0, 1]


def test_stop_ends_the_run_after_the_requesting_event():
    sim = Simulator()
    hits = []

    def hit(i):
        hits.append(i)
        if i == 1:
            sim.stop()

    for i in range(5):
        sim.schedule(i + 1.0, hit, i)
    sim.run()
    assert hits == [0, 1]
    assert sim.now == 2.0 and sim.events_executed == 2
    assert sim.pending_events() == 3


def test_stop_equals_a_stop_when_predicate_turning_true():
    """A stop requested from inside the event that reaches the target
    ends the run after that very event: the same point as stepping the
    loop one event at a time and checking the target after each."""

    def run(use_stop):
        sim = Simulator()
        log = []

        def work(i):
            log.append(i)
            sim.schedule(0.25, log.append, -i)  # events keep coming
            if use_stop and len(log) >= 7:
                sim.stop()

        for i in range(20):
            sim.schedule(i * 0.1, work, i)
        if use_stop:
            sim.run(until=100.0)
        else:
            while len(log) < 7:
                sim.run(until=100.0, max_events=1)
        return sim.events_executed, sim.now, list(log), sim.pending_events()

    assert run(True) == run(False)


def test_stop_before_run_is_consumed_by_the_next_run():
    sim = Simulator()
    hits = []
    for i in range(3):
        sim.schedule(i + 1.0, hits.append, i)
    sim.stop()
    sim.run()
    assert hits == [] and sim.now == 0.0 and sim.events_executed == 0
    # The request is spent: running again drains the queue.
    sim.run()
    assert hits == [0, 1, 2]


def test_run_resumes_after_a_stop():
    sim = Simulator()
    hits = []

    def hit(i):
        hits.append(i)
        if i in (1, 3):
            sim.stop()

    for i in range(5):
        sim.schedule(i + 1.0, hit, i)
    sim.run()
    assert hits == [0, 1]
    sim.run()
    assert hits == [0, 1, 2, 3]
    sim.run()
    assert hits == [0, 1, 2, 3, 4] and sim.now == 5.0


def test_stop_request_does_not_outlive_a_run_that_raised():
    sim = Simulator()

    def boom():
        sim.stop()
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    assert sim.events_executed == 2


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(k):
        seen.append(k)
        if k < 3:
            sim.schedule(1.0, chain, k + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, 1)
    ev.cancel()
    sim.run()
    assert fired == []


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_loop_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_pending_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events() == 1


def test_pending_events_excludes_cancelled():
    """A cancelled event no longer counts as pending even while it is
    still sitting in the heap (timer re-arms used to inflate this)."""
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.pending_events() == 1


def test_pending_events_stable_under_timer_rearm():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    for i in range(50):  # re-arm: cancel + replace, like view timeouts
        ev.cancel()
        ev = sim.schedule(1.0 + i, lambda: None)
    assert sim.pending_events() == 1


def test_run_until_with_only_cancelled_future_events():
    """If everything beyond the bound is cancelled, the queue is
    effectively drained: the clock must not jump to the bound."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(10.0, lambda: None)
    ev.cancel()
    sim.run(until=5.0)
    assert sim.now == 1.0


def test_run_until_executes_event_exactly_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_cancel_inside_callback_skips_peer():
    """An event may cancel a later event scheduled for the same tick."""
    sim = Simulator()
    fired = []
    ev2 = sim.schedule(1.0, fired.append, 2)

    def first():
        fired.append(1)
        ev2.cancel()

    # Same time, later seq than ev2 — reorder via priority.
    sim.schedule(1.0, first, priority=-1)
    sim.run()
    assert fired == [1]
    assert sim.pending_events() == 0


# -- schedule_many -----------------------------------------------------
def test_schedule_many_fires_all_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_many(
        [3.0, 1.0, 2.0], lambda i: fired.append((sim.now, i)), [(0,), (1,), (2,)]
    )
    sim.run()
    assert fired == [(1.0, 1), (2.0, 2), (3.0, 0)]


def test_schedule_many_past_time_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_many([2.0, 0.5], lambda: None, [(), ()])


def test_schedule_many_empty_is_noop():
    sim = Simulator()
    assert sim.schedule_many([], lambda: None, []) == []
    sim.run()
    assert sim.events_executed == 0


def test_schedule_many_equal_times_fire_in_batch_order():
    sim = Simulator()
    fired = []
    sim.schedule_many([1.0] * 3, fired.append, [(i,) for i in range(3)])
    sim.run()
    assert fired == [0, 1, 2]


def test_close_drops_pending_events_and_keeps_the_clock():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    pending = sim.schedule(5.0, hits.append, 5)
    sim.run(until=2.0)
    sim.close()
    assert hits == [1]
    assert (sim.now, sim.events_executed, sim.pending_events()) == (2.0, 1, 0)
    assert pending.cancelled and pending.args == ()


def test_closed_simulator_raises_on_run_and_schedule():
    sim = Simulator()
    sim.close()
    sim.close()  # idempotent
    for attempt in (
        sim.run,
        lambda: sim.schedule(1.0, print),
        lambda: sim.schedule_at(1.0, print),
        lambda: sim.schedule_many([1.0], print, [()]),
    ):
        with pytest.raises(SimulationError, match="closed"):
            attempt()
    assert not sim._running


def test_close_inside_the_loop_is_refused():
    sim = Simulator()
    sim.schedule(1.0, sim.close)
    with pytest.raises(SimulationError, match="running"):
        sim.run()
