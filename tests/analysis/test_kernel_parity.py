"""Kernel-parity gate: scalar and columnar substrates are bit-identical.

The columnar kernel is only allowed to be *faster*: for every scenario
the repo exercises — the three protocols' baseline runs, smoke-size
fig7/ablation/degraded configurations, pre-GST asynchrony and
delay-hook injection — both kernels must produce byte-identical message
timelines and decided chains.  Any divergence means the array kernel
changed observable scheduling and must be treated as a correctness
bug, never re-pinned.

Beyond kernel-vs-kernel equality, every scenario's *behaviour* —
message count, decision count, timeline hash, chain hash — is pinned
in :data:`BEHAVIOUR` (captured from the per-destination ``send`` loop,
before replicas had a ``transmit`` seam).  The executed-event count is
compared across kernels but not pinned: it is kernel bookkeeping
(docs/invariants.md).
"""

import pytest

from repro.analysis.sanitizer import _hash_chain, _hash_timeline, fingerprint_run
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import every_kth_view, forced_execution_factory
from repro.net.latency import UniformLatency

PROTOCOLS = ("oneshot", "damysus", "hotstuff")
KERNELS = ("scalar", "columnar")


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
}


def _run_hashes(kernel, replica_factory=None, **overrides):
    """Fingerprint one ``run_experiment`` scenario under ``kernel``:
    ``(events, messages, decisions, timeline_hash, chain_hash)``."""
    cfg = ExperimentConfig(kernel=kernel, **overrides)
    run = run_experiment(cfg, replica_factory=replica_factory, enable_message_log=True)
    return (
        run.sim.events_executed,
        len(run.network.message_log),
        len(run.collector.decisions),
        _hash_timeline(run.network.message_log),
        _hash_chain(run.collector),
    )


def _assert_parity(scenario, results):
    """Both kernels agree on everything, and on the pinned behaviour."""
    assert results[0] == results[1]
    assert results[0][1:] == BEHAVIOUR[scenario]


def _assert_fp_parity(scenario, fps):
    assert fps["columnar"] == fps["scalar"]
    fp = fps["scalar"]
    assert (
        fp.messages, fp.decisions, fp.timeline_hash, fp.chain_hash
    ) == BEHAVIOUR[scenario]


# ----------------------------------------------------------------------
# Baseline goldens (same scenario the pinned fingerprints use)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_baseline_fingerprints_identical_across_kernels(protocol):
    fps = {
        kernel: fingerprint_run(
            protocol, seed=7, f=1, target_blocks=6, kernel=kernel
        )[0]
        for kernel in KERNELS
    }
    assert fps["columnar"] == fps["scalar"]
    assert fps["columnar"].digest() == fps["scalar"].digest()


def test_columnar_matches_pre_fastpath_golden_digest():
    """Transitivity check made explicit: the columnar kernel reproduces
    the digest pinned in test_fastpath_determinism.GOLDEN, so parity
    holds against the *pre-fast-path* behaviour, not just today's."""
    from .test_fastpath_determinism import GOLDEN, assert_golden

    for protocol, golden in GOLDEN.items():
        fp, _ = fingerprint_run(
            protocol, seed=7, f=1, target_blocks=6, kernel="columnar"
        )
        assert_golden(fp, golden)


# ----------------------------------------------------------------------
# Smoke-size experiment configs (fig7 / ablation / degraded)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fig7_smoke_config_identical_across_kernels(protocol):
    """Fig. 7 at smoke size: an ``eu`` topology deployment, whose
    per-link gaussian jitter makes every remote latency a drawn value —
    the batched ``sample_many`` path under both kernels."""
    results = [
        _run_hashes(
            kernel,
            protocol=protocol,
            f=1,
            payload_bytes=0,
            deployment="eu",
            target_blocks=4,
            seed=7,
        )
        for kernel in KERNELS
    ]
    _assert_parity(f"fig7-{protocol}", results)


def test_ablation_smoke_config_identical_across_kernels():
    """Degraded-execution ablation at smoke size: forced catch-up every
    other view exercises the abnormal-path timers and cancellations."""
    factory = forced_execution_factory("catchup", every_kth_view(2))
    results = [
        _run_hashes(
            kernel,
            replica_factory=factory,
            protocol="oneshot",
            f=1,
            deployment="local",
            local_latency_s=0.005,
            timeout_base=0.2,
            target_blocks=6,
            seed=23,
        )
        for kernel in KERNELS
    ]
    _assert_parity("ablation", results)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_degraded_smoke_config_identical_across_kernels(protocol):
    """Sec. VIII-d degraded conditions at smoke size: 10 ms links and
    256 B payloads (nonzero NIC serialization per transaction)."""
    results = [
        _run_hashes(
            kernel,
            protocol=protocol,
            f=1,
            payload_bytes=256,
            deployment="local",
            local_latency_s=0.010,
            timeout_base=0.2,
            target_blocks=4,
            seed=17,
        )
        for kernel in KERNELS
    ]
    _assert_parity(f"degraded-{protocol}", results)


# ----------------------------------------------------------------------
# Pre-GST asynchrony and delay hooks (the paths the vectorized
# multicast had to reproduce draw-for-draw)
# ----------------------------------------------------------------------
def test_pre_gst_scenario_identical_across_kernels():
    """Draw-free latency + pre-GST extras: the batched-uniform fast
    path.  The extras are real RNG draws, so this pins stream identity
    through schedule_many bulk inserts on both kernels."""
    fps = {
        kernel: fingerprint_run(
            "oneshot",
            seed=11,
            f=1,
            target_blocks=6,
            gst=0.05,
            pre_gst_extra=0.01,
            kernel=kernel,
        )[0]
        for kernel in KERNELS
    }
    _assert_fp_parity("pre-gst", fps)


def test_pre_gst_draw_consuming_fallback_identical_across_kernels():
    """Pre-GST with a draw-consuming latency model takes the scalar
    per-destination fallback (interleaved draws); both kernels must
    still replay it identically."""
    fps = {
        kernel: fingerprint_run(
            "oneshot",
            seed=11,
            f=1,
            target_blocks=6,
            latency=UniformLatency(0.001, 0.004),
            gst=0.05,
            pre_gst_extra=0.01,
            kernel=kernel,
        )[0]
        for kernel in KERNELS
    }
    _assert_fp_parity("pre-gst-fallback", fps)


def _install_hook(network):
    # Deterministic per-link penalty (DelayHook contract: no RNG use).
    network.delay_hooks.append(
        lambda now, src, dst, size: ((src * 7 + dst * 13) % 5) * 1e-4
    )


def test_delay_hook_scenario_identical_across_kernels():
    fps = {
        kernel: fingerprint_run(
            "oneshot",
            seed=13,
            f=1,
            target_blocks=6,
            setup=_install_hook,
            kernel=kernel,
        )[0]
        for kernel in KERNELS
    }
    _assert_fp_parity("delay-hook", fps)


def test_pre_gst_plus_delay_hook_scenario_identical_across_kernels():
    """The combined case: batched pre-GST uniforms *and* hook extras
    accumulated per destination, under both kernels."""
    fps = {
        kernel: fingerprint_run(
            "damysus",
            seed=13,
            f=1,
            target_blocks=6,
            gst=0.05,
            pre_gst_extra=0.01,
            setup=_install_hook,
            kernel=kernel,
        )[0]
        for kernel in KERNELS
    }
    _assert_fp_parity("pre-gst-delay-hook", fps)
