"""Guard: a broadcast is one event and one sizing walk, not one per copy.

Count-based, no timing.  In a fault-free run every executed event is a
delivery, a deferred transmission or a timer fire, so

    events_executed - messages_sent  <=  transmissions + timer fires

where a transmission is one payload handed to the network by one
sender, however many copies it fans out to.  Each phase of these
protocols is one broadcast and n-1 unicast answers, so about half the
transmissions are unicasts and ``messages_sent`` is about twice the
transmissions.  A change that goes back to scheduling (or sizing) per
destination makes the left side grow to about ``messages_sent`` — twice
the right side — and fails here without a benchmark.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.net import network as network_module
from repro.sim.process import Timer


@pytest.mark.parametrize("protocol", ["hotstuff", "oneshot"])
def test_events_and_sizing_scale_with_transmissions_not_copies(protocol, monkeypatch):
    counts = {"sized": 0, "timer_fires": 0}
    real_size = network_module.payload_size
    real_fire = Timer._fire

    def counting_size(payload):
        counts["sized"] += 1
        return real_size(payload)

    def counting_fire(timer, *args):
        counts["timer_fires"] += 1
        real_fire(timer, *args)

    monkeypatch.setattr(network_module, "payload_size", counting_size)
    monkeypatch.setattr(Timer, "_fire", counting_fire)

    run = run_experiment(
        ExperimentConfig(
            protocol=protocol, f=10, deployment="world", target_blocks=4, seed=5
        ),
        enable_message_log=True,
    )
    assert run.stats.blocks_decided >= 2  # 4 blocks less the warm-up
    log = run.network.message_log
    messages = run.network.messages_sent
    assert messages == len(log)
    # The log keeps every payload alive, so ids are unique.
    transmissions = len({(env.src, id(env.payload)) for env in log})
    assert messages > 1.5 * transmissions  # broadcasts carry about half

    assert counts["sized"] == transmissions
    assert (
        run.sim.events_executed - messages
        <= transmissions + counts["timer_fires"]
    )
