"""Outbound fault mixins see *every* transmission, broadcasts included.

``slow``, ``withhold`` and ``garbage`` act on everything a replica
sends.  A leader's broadcast is one transmission with many copies, so
the behaviours must shift, drop or swap it as a whole with the same
effect on every copy.  Two checks per behaviour and protocol:

* structural — each broadcast the faulty replica issues is matched to
  its envelopes in the message log: all copies delayed by exactly
  ``slow_delay``; all copies present and intact while it leads, none
  (``withhold``) or only garbage (``garbage``) while it does not;
* pinned — message count, decision count, timeline hash and chain hash
  of the run, captured while broadcasts still went out as one
  ``send_at`` per destination.
"""

import pytest

from repro.faults import FaultPlan
from repro.net.message import HEADER_BYTES

from ..conftest import fingerprint, make_cluster, run_blocks, small_run

PROTOCOLS = ["oneshot", "damysus", "hotstuff"]
BYZ = 1
ATTRS = {"slow": {"slow_delay": 0.05}}

#: (protocol, behaviour) -> (messages, decisions, timeline_hash, chain_hash)
#: at seed=7, f=1, target_blocks=8, replica 1 faulty for the whole run.
PINNED = {
    ("oneshot", "slow"): (
        93,
        23,
        "8c461f7cb75d44ec29dd39d0101a0783b78b5a2f1b78fce2367d39b7c860bf86",
        "dd8ca5d1e43d846faa673f4baf4452ddd12037798d78bbb62f69ea7247374253",
    ),
    ("oneshot", "withhold"): (
        84,
        23,
        "98ff8da7b203548abcc3cff2d57dc0027c8136cb22410955bf19273c307790eb",
        "8a9af9a152c40e053ea16354b5db6218a4098f5dad824e35eabfa08811e9e951",
    ),
    ("oneshot", "garbage"): (
        94,
        23,
        "bd2b13d1013d44afaec3c901d0a83eab4092f2f4b4afa528c79a8c54bacfb02e",
        "8a9af9a152c40e053ea16354b5db6218a4098f5dad824e35eabfa08811e9e951",
    ),
    ("damysus", "slow"): (
        144,
        23,
        "38a58a9b5c1a549440d9203ddcf032b417dd46f790c25feeecef6c5ffd6a2ffe",
        "683c3ee06731bde781a0709cf05e6bdaa23e45274421276a51ab0ba40b669a7a",
    ),
    ("damysus", "withhold"): (
        129,
        23,
        "a7acb871adcbef5c1443a9fa75764e2bd7a7cd6db1f04a63c623edd4257a2b07",
        "abf74d33b01f772a279ca5cf09657e141c99acbbf9cd0a560281bf4a0f1b92a3",
    ),
    ("damysus", "garbage"): (
        145,
        23,
        "0879762457f48c9c2a42ae1b4fbec081df54340ca9c438cb7f0b955fa6176e14",
        "abf74d33b01f772a279ca5cf09657e141c99acbbf9cd0a560281bf4a0f1b92a3",
    ),
    ("hotstuff", "slow"): (
        262,
        30,
        "567b5a2e56678c468a39d549adadca5edbd92e9556accf8b39c3afbdd71ffffc",
        "86ac53804cce9bb89e589ffb0d4e998e3a5a4bfde4e69bbf41531e0c5aae2700",
    ),
    ("hotstuff", "withhold"): (
        233,
        30,
        "82c374ab97769a8d6d398a55e142f6abdba99887adfbb130eacf514206531cd8",
        "bdc251b323c334ec53ee20a7d14ab8e5d25fd1834cd55daa842d9601cfb9648c",
    ),
    ("hotstuff", "garbage"): (
        257,
        30,
        "1cb79d6553c836584d849f9a5e23749f7739165888fc6246d2e944a461fc143a",
        "bdc251b323c334ec53ee20a7d14ab8e5d25fd1834cd55daa842d9601cfb9648c",
    ),
}


def _plan(behaviour):
    return FaultPlan().add(BYZ, behaviour, **ATTRS.get(behaviour, {}))


@pytest.mark.parametrize("protocol,behaviour", sorted(PINNED))
def test_faulty_sender_timeline_is_pinned(protocol, behaviour):
    fp, _ = fingerprint(
        small_run(protocol, seed=7, target_blocks=8),
        replica_factory=_plan(behaviour).factory(),
    )
    assert (
        fp.messages, fp.decisions, fp.timeline_hash, fp.chain_hash
    ) == PINNED[(protocol, behaviour)]


def _run_recording_broadcasts(protocol, behaviour):
    """Run 8 blocks; returns (network, byz, broadcasts) where each
    broadcast is ``(requested_send_time, led, payload, copies)``."""
    sim, network, cluster = make_cluster(
        protocol, f=1, seed=7, replica_factory=_plan(behaviour).factory(),
        enable_log=True,
    )
    byz = cluster.replicas[BYZ]
    calls = []
    inner = byz.broadcast_at

    def recording(when, payload, include_self=True):
        copies = len(byz.peers) - (0 if include_self else 1)
        calls.append((max(when, sim.now), byz.is_leader(), payload, copies))
        inner(when, payload, include_self)

    byz.broadcast_at = recording
    run_blocks(sim, cluster, 8)
    return network, byz, calls


def _copies(network, payload):
    return [env for env in network.message_log if env.payload is payload]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_slow_sender_delays_every_broadcast_copy(protocol):
    network, byz, calls = _run_recording_broadcasts(protocol, "slow")
    assert any(led for _, led, _, _ in calls)
    for requested, _, payload, copies in calls:
        envs = _copies(network, payload)
        assert len(envs) == copies
        assert {env.send_time for env in envs} == {requested + byz.slow_delay}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("behaviour", ["withhold", "garbage"])
def test_backup_only_faults_pass_leader_broadcasts_whole(protocol, behaviour):
    network, byz, calls = _run_recording_broadcasts(protocol, behaviour)
    assert any(led for _, led, _, _ in calls)
    for requested, led, payload, copies in calls:
        envs = _copies(network, payload)
        if led:
            assert len(envs) == copies
            assert {env.send_time for env in envs} == {requested}
        else:
            assert envs == []
    garbage = [
        env
        for env in network.message_log
        if type(env.payload).__name__ == "_Garbage"
    ]
    if behaviour == "withhold":
        assert garbage == []
    else:
        assert garbage and {env.src for env in garbage} == {BYZ}
        assert {env.size for env in garbage} == {128 + HEADER_BYTES}
