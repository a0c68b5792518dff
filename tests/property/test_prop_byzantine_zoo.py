"""Zoo-wide windowing properties: every behaviour, every protocol.

Two properties pin the :class:`~repro.faults.byzantine.ByzantineMixin`
window contract the fuzzer's scenario grammar relies on:

* **no-op outside** — a fault whose ``[start, end)`` window never
  overlaps the run leaves the fingerprint bit-identical to a faultless
  run (the mixin may not perturb schedules, RNG draws or messages
  while dormant);
* **fires inside** — with the window open over the run, the behaviour
  observably changes the run (fingerprint drift, or for the
  CHECKER-blocked equivocator, attempt counters).
"""

import pytest

from repro.faults import BEHAVIOURS, FaultPlan

from ..conftest import fingerprint, make_cluster, small_run

PROTOCOLS = ["oneshot", "damysus", "hotstuff"]

#: Attrs making slow-cycle behaviours bite within a short (< 0.1 s
#: sim-time) local run: default restart outages start at 0.75 s, long
#: after an 8-block run already finished.
FIRING_ATTRS = {
    "restart": {"restart_period": 0.02, "outage": 0.01, "seal_interval": 0.01},
    "slow": {"slow_delay": 0.05},
}


def _fingerprint(protocol: str, plan=None):
    factory = plan.factory() if plan is not None else None
    fp, _ = fingerprint(
        small_run(protocol, seed=7, target_blocks=8), replica_factory=factory
    )
    return fp


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_noop_outside_window(protocol, behaviour):
    # Window opens long after the run is over: bit-identical run.
    plan = FaultPlan().add(
        1, behaviour, start=1000.0, **FIRING_ATTRS.get(behaviour, {})
    )
    assert _fingerprint(protocol, plan) == _fingerprint(protocol)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "behaviour", sorted(b for b in BEHAVIOURS if b != "equivocate")
)
def test_fires_inside_window(protocol, behaviour):
    # Window open over the whole run: the behaviour must leave a trace.
    plan = FaultPlan().add(1, behaviour, **FIRING_ATTRS.get(behaviour, {}))
    assert _fingerprint(protocol, plan).digest() != _fingerprint(protocol).digest()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_equivocator_attempts_blocked_or_inert(protocol):
    # The equivocator's split-brain attack targets OneShot's proposal
    # flow: on OneShot it must *attempt* (and be refused by the
    # CHECKER's once-per-view guard); on the other protocols it is
    # inert by construction.  Nowhere does it succeed.
    plan = FaultPlan().add(1, "equivocate")
    _, collector = fingerprint(
        small_run(protocol, seed=7, target_blocks=8), replica_factory=plan.factory()
    )
    sim, net, cluster = make_cluster(protocol, f=1, seed=7, replica_factory=plan.factory())
    cluster.start()
    sim.run(until=2.0)
    cluster.stop()
    byz = cluster.replicas[1]
    assert byz.equivocation_successes == 0
    if protocol == "oneshot":
        assert byz.equivocation_attempts > 0
    else:
        assert byz.equivocation_attempts == 0
        assert _fingerprint(protocol, plan) == _fingerprint(protocol)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_faulty_now_gate_tracks_window(protocol, behaviour):
    # The mixin's window gate itself: closed before start, open in
    # [start, end), closed after — probed live inside a running sim.
    plan = FaultPlan().add(
        1, behaviour, start=0.2, end=0.5, **FIRING_ATTRS.get(behaviour, {})
    )
    sim, net, cluster = make_cluster(
        protocol, f=1, seed=7, replica_factory=plan.factory()
    )
    byz = cluster.replicas[1]
    probes = {}
    for t in (0.1, 0.35, 0.6):
        sim.schedule_at(t, lambda t=t: probes.__setitem__(t, byz._faulty_now()))
    cluster.start()
    sim.run(until=1.0)
    cluster.stop()
    assert probes == {0.1: False, 0.35: True, 0.6: False}
