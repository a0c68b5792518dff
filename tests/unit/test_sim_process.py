"""Unit tests for processes and timers."""

import pytest

from repro.sim import Process, Simulator, Timer


class Echo(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.inbox = []

    def on_message(self, sender, payload):
        self.inbox.append((sender, payload))


def test_process_default_name():
    sim = Simulator()
    assert Echo(sim, 3).name == "p3"


def test_on_message_abstract():
    sim = Simulator()
    p = Process(sim, 0)
    with pytest.raises(NotImplementedError):
        p.on_message(1, "x")


def test_timer_fires_after_delay():
    sim = Simulator()
    hits = []
    t = Timer(sim, lambda: hits.append(sim.now))
    t.start(2.0)
    sim.run()
    assert hits == [2.0]
    assert not t.armed


def test_timer_cancel():
    sim = Simulator()
    hits = []
    t = Timer(sim, lambda: hits.append(1))
    t.start(1.0)
    t.cancel()
    sim.run()
    assert hits == []


def test_timer_restart_replaces_pending():
    sim = Simulator()
    hits = []
    t = Timer(sim, lambda: hits.append(sim.now))
    t.start(1.0)
    t.start(5.0)  # re-arm
    sim.run()
    assert hits == [5.0]


def test_timer_armed_flag():
    sim = Simulator()
    t = Timer(sim, lambda: None)
    assert not t.armed
    t.start(1.0)
    assert t.armed
    t.cancel()
    assert not t.armed


def test_process_after_schedules_callback():
    sim = Simulator()
    p = Echo(sim, 0)
    out = []
    p.after(1.0, out.append, "hi")
    sim.run()
    assert out == ["hi"]


def test_make_timer_bound_to_process_sim():
    sim = Simulator()
    p = Echo(sim, 0)
    fired = []
    t = p.make_timer(lambda: fired.append(sim.now))
    t.start(0.5)
    sim.run()
    assert fired == [0.5]


def test_timer_passes_start_args_and_lets_go_of_them():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda owner: fired.append(owner))
    owner = object()
    t.start(1.0, owner)
    sim.run()
    assert fired == [owner] and not t.armed
    t.start(1.0, owner)
    event = t._event
    t.cancel()
    assert event.args == ()
