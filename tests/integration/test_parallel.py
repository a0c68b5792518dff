"""Integration tests: parallel (multi-instance) OneShot (E-P)."""

import hashlib

import pytest

from repro.experiments.parallel import (
    render_parallel,
    run_parallel,
    run_parallel_scaling,
)
from repro.smr import prefix_agreement


@pytest.fixture(scope="module")
def scaling():
    return run_parallel_scaling(ks=(1, 2, 4), sim_time=1.5)


def test_each_instance_preserves_agreement(scaling):
    for run in scaling.runs.values():
        for cluster in run.clusters:
            assert prefix_agreement(cluster.logs())


def test_instances_are_independent_chains(scaling):
    run = scaling.runs[2]
    heads = [c.replicas[0].log.blocks[0].hash for c in run.clusters]
    assert len(set(heads)) == 2  # distinct genesis-extending chains


def test_two_instances_nearly_double_throughput(scaling):
    assert (
        scaling.runs[2].aggregate_tps > 1.6 * scaling.runs[1].aggregate_tps
    )


def test_scaling_saturates_at_shared_core(scaling):
    # Speedup is sublinear by k=4 and the busiest core is near full.
    s4 = scaling.runs[4]
    assert s4.aggregate_tps < 4 * scaling.runs[1].aggregate_tps
    assert s4.cpu_utilization > 0.8


def test_leaders_staggered_across_machines(scaling):
    run = scaling.runs[2]
    leaders_at_view0 = {c.replicas[0].leader_of(0) for c in run.clusters}
    assert len(leaders_at_view0) == 2  # offsets spread the leaders


def test_shared_nics_actually_shared(scaling):
    run = scaling.runs[2]
    nets = [c.network for c in run.clusters]
    assert nets[0].nic(0) is nets[1].nic(0)


def test_latency_grows_under_contention(scaling):
    assert scaling.runs[4].mean_latency_s > scaling.runs[1].mean_latency_s


def test_render(scaling):
    out = render_parallel(scaling)
    assert "k=1" in out and "speedup" in out


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        run_parallel(0)


def test_parallel_section_is_pinned():
    """The ``paper`` parallel section, byte for byte: its table and the
    events each run executed."""
    short = run_parallel_scaling(ks=(1, 2, 4), sim_time=0.5)
    table = render_parallel(short).encode()
    assert hashlib.sha256(table).hexdigest() == (
        "9ce65668110ceeba376ff3f8c57554dcfb344342b0d940820ed68b58dc507e74"
    )
    events = {k: run.sim.events_executed for k, run in short.runs.items()}
    assert events == {1: 855, 2: 1617, 4: 2248}
