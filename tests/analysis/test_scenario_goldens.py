"""Scenario goldens: one pinned run per scenario the repo exercises.

Smoke-size fig7/ablation/degraded configurations, pre-GST asynchrony
(batched and draw-consuming) and delay-hook injection each pin their
*behaviour* — message count, decision count, timeline hash, chain hash
— in :data:`BEHAVIOUR` (captured from the per-destination ``send``
loop, before replicas had a ``transmit`` seam; the chained-replica
scenarios from the standalone chained HotStuff/Damysus classes, before
they became overrides of their basic replicas).  A mismatch is a
behaviour change, never something to re-pin.  The executed-event count
is not pinned here: it is kernel bookkeeping (docs/invariants.md).
"""

import pytest

from repro.fuzz.fingerprint import _hash_chain, _hash_timeline
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import FaultPlan, every_kth_view, forced_execution_factory
from repro.net.latency import UniformLatency

from ..conftest import fingerprint, small_run, with_latency

PROTOCOLS = ("oneshot", "damysus", "hotstuff")
CHAINED = tuple(f"{p}-chained" for p in PROTOCOLS)


#: scenario -> (messages, decisions, timeline_hash, chain_hash).
BEHAVIOUR = {
    "fig7-oneshot": (
        71,
        18,
        "17d69b179244ef3275e58044840d2a43d38449dda21bd66af2fd80a94bc77d9e",
        "c020628b7978c2cb4713faa45f56e2813622bf295fed38569c3c8df5a55d5005",
    ),
    "fig7-damysus": (
        110,
        18,
        "d0e7c156070cfe2b56fac798928852f205c480a9bb3503c5ec01e5ff8c429c68",
        "7a01fbd3a5e42d628f563538ec7d4d9326d6bb142fb9a079b0d1a500cf5a962b",
    ),
    "fig7-hotstuff": (
        193,
        23,
        "c30d311faf0be40e99a024d24e4f314f0ff4ea467016feb0980bf7412f5676a1",
        "1c8c466eb2282909e66b64efd44873ce3b7e0c045bb7b11cbc92e3d13f009b07",
    ),
    "ablation": (
        101,
        22,
        "8067bc8ca25566791f034f94a1d81a9ff8148cfa942efcc3435dad601232117f",
        "6f12d636b5c059740674454505e53aa769045867e6dab94bdfd9b64d94386b45",
    ),
    "degraded-oneshot": (
        70,
        17,
        "fe9fe8926c3fbb1a5bd7292450993a784abd9bfe289dd5805d5a59553d7aaf15",
        "18e1d9db232a6d8e5106894411163a1a5f89104149ac2518e724d68f7f628a1e",
    ),
    "degraded-damysus": (
        109,
        17,
        "3132fa6f7fe2748328a54df088d898e24cb81aae736105762b4397a6345eabd8",
        "dbbcc4b5be1f453975e22b592b421e5c35ec91c034ed53ccfe8be14ac5986d76",
    ),
    "degraded-hotstuff": (
        193,
        22,
        "defd1275b15373ccb855d58614f59d24dc9264cb29279ff37c7bba85b1fe05bc",
        "a180825995fcd619f2e34d1a7835df3e23ae9d6db677449eefcb06839da51422",
    ),
    "pre-gst": (
        68,
        17,
        "c9b6643fbd356e03a6f6e6e07945675a877ec18701c9e26acc6b1cf71ea1ae93",
        "863bbad287a83cddfcf601f88c32dd77406745d129a9220995766deb2d585516",
    ),
    "pre-gst-fallback": (
        66,
        17,
        "b931faeae990b682ff4eede6e8acec8768c9505d05c866f0c517590760dab47d",
        "4c0aa0fc8c95a3d12bc597695efe09198fd86e14fe78d92b08ea82b715ec06fd",
    ),
    "delay-hook": (
        70,
        18,
        "04bd782a1cdfbea0217ccab3c8f295b847c0c7249868524d155dba3e88d9577d",
        "e8b681056525683ce9a6227a1a4d4589307f429d35490a06c52c8756aea351e3",
    ),
    "pre-gst-delay-hook": (
        109,
        18,
        "734383237668a4d8c9beb61d1e8ce06878d7a552e17111d2852315832543c703",
        "c12da4ef71635d1aea622136e6369be11a0dc4bd5cd14e4032f111ce47637fde",
    ),
    "steady-oneshot-chained": (
        75,
        34,
        "f3ab72b5fbcaafb78a58844d46ac999a4934c495c6ac504ac97d4ef4c3b646d9",
        "46496f99c06aecbd7111375efb4a9341c462bad0501c8ce05f1c274407e3f11f",
    ),
    "steady-damysus-chained": (
        85,
        35,
        "65e5633edfb9b37c417fc655ae3e40ae8e51c7fa23671a5444e6e69885f54f0c",
        "1da1d9454dcd6ae9db5d830f7047e7a5c67673bb03eebb27e96e1d6dfdb1e434",
    ),
    "steady-hotstuff-chained": (
        121,
        46,
        "26e18f714945b906a1293101802a2ed700f3524661fc66c676a46fa4bb3b390d",
        "4cbde27e8b8acce36d1926e207ce5700bedcd01b368088a737e14776577d1aad",
    ),
    "recovery-oneshot-chained": (
        208,
        89,
        "92a6cc5f79dc4329d4bc39de6fa9e784ffc72ed9ad20278a48e8cab89c33902a",
        "6a0c1486825e06044ff832e964078d0ead1211f39b998cc2332cb8a5a9fe0d3e",
    ),
    "recovery-damysus-chained": (
        220,
        90,
        "8e51d65b87d6dc4f13d0a9d9a187724562147a5da4f47f0ee151f76d5f0f193b",
        "72fc0b07d99dc44b6e397dc1927482b0c65bed0e7dacf52f31d82c88dde9bcd7",
    ),
    "recovery-hotstuff-chained": (
        304,
        118,
        "89f949847e6bfbc9eca175da70c429f363f181200f553efc5d41e49da3b31df4",
        "ab82597e3c511fba0977cfd1702ef4c57b3de5cf041edf5f728c1fe0ed09a182",
    ),
}


def _assert_run(scenario, replica_factory=None, **overrides):
    """Run one ``run_experiment`` scenario and check its pinned
    ``(messages, decisions, timeline_hash, chain_hash)``."""
    run = run_experiment(
        ExperimentConfig(**overrides),
        replica_factory=replica_factory,
        enable_message_log=True,
    )
    assert (
        len(run.network.message_log),
        len(run.collector.decisions),
        _hash_timeline(run.network.message_log),
        _hash_chain(run.collector),
    ) == BEHAVIOUR[scenario]


def _assert_fingerprint(
    scenario, protocol, instrument=None, replica_factory=None, **overrides
):
    fp, _ = fingerprint(
        small_run(protocol, f=1, **overrides),
        instrument=instrument,
        replica_factory=replica_factory,
    )
    assert (
        fp.messages, fp.decisions, fp.timeline_hash, fp.chain_hash
    ) == BEHAVIOUR[scenario]


# ----------------------------------------------------------------------
# Smoke-size experiment configs (fig7 / ablation / degraded)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fig7_smoke_config(protocol):
    """Fig. 7 at smoke size: an ``eu`` topology deployment, whose
    per-link gaussian jitter makes every remote latency a drawn value —
    the batched ``sample_many`` path."""
    _assert_run(
        f"fig7-{protocol}",
        protocol=protocol,
        f=1,
        payload_bytes=0,
        deployment="eu",
        target_blocks=4,
        seed=7,
    )


def test_ablation_smoke_config():
    """Degraded-execution ablation at smoke size: forced catch-up every
    other view exercises the abnormal-path timers and cancellations."""
    _assert_run(
        "ablation",
        replica_factory=forced_execution_factory("catchup", every_kth_view(2)),
        protocol="oneshot",
        f=1,
        deployment="local",
        local_latency_s=0.005,
        timeout_base=0.2,
        target_blocks=6,
        seed=23,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_degraded_smoke_config(protocol):
    """Sec. VIII-d degraded conditions at smoke size: 10 ms links and
    256 B payloads (nonzero NIC serialization per transaction)."""
    _assert_run(
        f"degraded-{protocol}",
        protocol=protocol,
        f=1,
        payload_bytes=256,
        deployment="local",
        local_latency_s=0.010,
        timeout_base=0.2,
        target_blocks=4,
        seed=17,
    )


# ----------------------------------------------------------------------
# Pre-GST asynchrony and delay hooks (the paths the vectorized
# multicast had to reproduce draw-for-draw)
# ----------------------------------------------------------------------
def test_pre_gst_scenario():
    """Draw-free latency + pre-GST extras: the batched-uniform fast
    path.  The extras are real RNG draws, so this pins stream identity
    through schedule_many bulk inserts."""
    _assert_fingerprint(
        "pre-gst", "oneshot", seed=11, gst=0.05, pre_gst_extra=0.01
    )


def test_pre_gst_draw_consuming_fallback():
    """Pre-GST with a draw-consuming latency model takes the scalar
    per-destination fallback (interleaved draws)."""
    _assert_fingerprint(
        "pre-gst-fallback",
        "oneshot",
        seed=11,
        instrument=with_latency(UniformLatency(0.001, 0.004)),
        gst=0.05,
        pre_gst_extra=0.01,
    )


def _install_hook(sim, network, cluster):
    # Deterministic per-link penalty (DelayHook contract: no RNG use).
    network.delay_hooks.append(
        lambda now, src, dst, size: ((src * 7 + dst * 13) % 5) * 1e-4
    )


def test_delay_hook_scenario():
    _assert_fingerprint("delay-hook", "oneshot", seed=13, instrument=_install_hook)


def test_pre_gst_plus_delay_hook_scenario():
    """The combined case: batched pre-GST uniforms *and* hook extras
    accumulated per destination."""
    _assert_fingerprint(
        "pre-gst-delay-hook",
        "damysus",
        seed=13,
        gst=0.05,
        pre_gst_extra=0.01,
        instrument=_install_hook,
    )


# ----------------------------------------------------------------------
# The chained replicas (overrides of their basic replicas): steady
# pipeline, and a crash window whose recovery runs timeouts, view sync,
# new-view collection and block recovery (Fig. 6 pulling)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", CHAINED)
def test_chained_steady_state(protocol):
    _assert_fingerprint(
        f"steady-{protocol}", protocol, seed=7, target_blocks=12
    )


@pytest.mark.parametrize("protocol", CHAINED)
def test_chained_recovery(protocol):
    _assert_fingerprint(
        f"recovery-{protocol}",
        protocol,
        seed=5,
        target_blocks=30,
        instrument=with_latency(UniformLatency(0.001, 0.004)),
        timeout_base=0.1,
        replica_factory=FaultPlan().add(1, "crashed", start=0.02, end=0.3).factory(),
    )
