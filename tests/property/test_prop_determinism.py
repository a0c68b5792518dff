"""Property tests: the simulator is bit-deterministic per seed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, fingerprint, run_experiment


def run_fingerprint(protocol, seed, sim_time=1.0):
    """The fingerprint (events included) of ``sim_time`` simulated
    seconds on the jittered EU topology, and replica 0's chain length."""
    run = run_experiment(
        ExperimentConfig(
            protocol=protocol,
            f=1,
            deployment="eu",
            seed=seed,
            timeout_base=0.3,
            warmup_blocks=0,
            target_blocks=10**6,
            max_sim_time=sim_time,
        )
    )
    return fingerprint(run), len(run.cluster.replicas[0].log)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["oneshot", "damysus", "hotstuff"]))
def test_same_seed_same_trace(seed, protocol):
    (a, a_len), (b, b_len) = run_fingerprint(protocol, seed), run_fingerprint(protocol, seed)
    assert a.components == b.components
    assert a.events == b.events
    assert a_len == b_len


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**16))
def test_different_seeds_jitter_timing_not_safety(seed):
    _, a_len = run_fingerprint("oneshot", seed)
    _, b_len = run_fingerprint("oneshot", seed + 1)
    # Both made progress; traces may differ, logs stay chains.
    assert a_len > 0 and b_len > 0
