"""Guard: a finished run frees itself by reference counting alone.

Every case runs with the cyclic garbage collector disabled, drops its
result and then asks the collector what it would have had to reclaim.
A fault-free run leaves nothing: the simulator and the networks are
closed when the run ends, and no replica, timer, CHECKER or
coordinator points back at what owns it (docs/invariants.md, "A
finished run frees itself").  A faulted run may leave exactly the
classes its fault factories built for it (a class is always cyclic),
and nothing else.

A second group pins what ``close`` keeps: every post-run read is the
same after it as before, and a closed simulator refuses to run or
schedule.

A third group pins that no memo outlives its run: the process-global
digest memos are empty once any driver returns or raises, and taking
the run's fingerprint afterwards refills none, so repeated runs in one
process hold a flat amount of memory.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest

from repro.core import OneShotReplica
from repro.crypto import digest_memo_entries, digest_of
from repro.experiments import (
    ExperimentConfig,
    run_experiment,
    fingerprint,
    run_parallel,
    run_sharded,
)
from repro.faults import every_kth_view, forced_execution_factory
from repro.fuzz import generate_scenario, run_scenario
from repro.metrics import compute_stats
from repro.protocols.common import BaseReplica
from repro.protocols.registry import REGISTRY
from repro.sim import SimulationError, Simulator
from repro.smr import ExecutionLog

from ..shard.test_hot_path_2pc import CONFIG as SHARD_CONFIG

#: Fuzz seeds covering no fault, a crash, a restart, equivocation and two
#: faults at once (checked by ``test_fuzz_seeds_cover_faults``).
FUZZ_SEEDS = (0, 1, 3, 16, 27)


def _config(**fields) -> ExperimentConfig:
    base = dict(protocol="oneshot", f=1, target_blocks=20)
    base.update(fields)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def warmed():
    """One run first: lazy imports made during a first run leave
    garbage of their own that is not the run's."""
    run_experiment(_config(target_blocks=3))
    run_sharded(dataclasses.replace(SHARD_CONFIG, max_sim_time=0.2))
    gc.collect()


@pytest.fixture
def no_gc(warmed):
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _garbage() -> list:
    """Everything the cyclic collector finds unreachable now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
    return found


def _assert_only_fault_classes(garbage: list) -> None:
    """The residue of a faulted run: its fault classes and their
    dicts, functions and cells, but no instance of a ``repro`` class."""
    instances = [
        type(o).__qualname__
        for o in garbage
        if not isinstance(o, type) and type(o).__module__.startswith("repro")
    ]
    assert instances == []
    classes = [o for o in garbage if isinstance(o, type)]
    assert all(issubclass(c, BaseReplica) for c in classes), classes


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_protocol_run_frees_itself(protocol, no_gc):
    run = run_experiment(_config(protocol=protocol))
    assert run.stats.blocks_decided > 0
    del run
    assert gc.collect() == 0


def test_open_loop_run_frees_itself(no_gc):
    run = run_experiment(
        _config(
            target_blocks=10,
            workload="open",
            offered_tps=2_000.0,
            virtual_clients=1_000,
        )
    )
    assert run.pump is not None
    del run
    assert gc.collect() == 0


def test_forced_execution_run_leaves_only_its_classes(no_gc):
    run = run_experiment(
        _config(f=2, deployment="local", timeout_base=0.06, target_blocks=10),
        replica_factory=forced_execution_factory("catchup", every_kth_view(3)),
    )
    assert run.stats.blocks_decided > 0
    del run
    _assert_only_fault_classes(_garbage())


def test_cross_shard_run_frees_itself(no_gc):
    run = run_sharded(SHARD_CONFIG)
    assert run.coordinator is not None and run.coordinator.committed > 0
    del run
    assert gc.collect() == 0


def test_fuzz_seeds_cover_faults():
    behaviours = {
        fault.behaviour
        for seed in FUZZ_SEEDS
        for fault in generate_scenario(seed).faults
    }
    assert {"crashed", "restart", "equivocate"} <= behaviours
    assert any(not generate_scenario(seed).faults for seed in FUZZ_SEEDS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_scenario_leaves_only_its_classes(seed, no_gc):
    result = run_scenario(generate_scenario(seed))
    assert result.ok, result.describe()
    del result
    garbage = _garbage()
    _assert_only_fault_classes(garbage)
    if not generate_scenario(seed).faults:
        assert garbage == []


class _CrashingReplica(OneShotReplica):
    """Raises from its message handler once it reaches view 5."""

    def on_message(self, sender, payload):
        if self.view >= 5:
            raise RuntimeError(f"planted failure in r{self.pid}")
        super().on_message(sender, payload)


def test_run_crashed_by_a_handler_frees_itself(no_gc):
    with pytest.raises(RuntimeError, match="^planted failure in r1$"):
        run_experiment(
            _config(),
            replica_factory=lambda pid, cls: _CrashingReplica if pid == 1 else None,
        )
    assert digest_memo_entries() == 0
    assert gc.collect() == 0


def test_crashed_fuzz_run_keeps_its_verdict_and_frees_itself(no_gc, monkeypatch):
    real = ExecutionLog.execute
    calls = [0]

    def execute(log, block, now):
        calls[0] += 1
        if calls[0] > 12:
            raise RuntimeError("planted failure in execute")
        return real(log, block, now)

    monkeypatch.setattr(ExecutionLog, "execute", execute)
    scenario = generate_scenario(3)
    assert not scenario.faults
    result = run_scenario(scenario)
    assert result.report.crashed == "RuntimeError: planted failure in execute"
    assert result.failure is not None and result.fingerprint is None
    assert digest_memo_entries() == 0
    del result
    assert gc.collect() == 0


# -- what close keeps and what it refuses ----------------------------------


def _reads(sim, network, cluster) -> dict:
    """Every post-run read the drivers, ledger and oracles make."""
    return {
        "now": sim.now,
        "events": sim.events_executed,
        "messages": network.messages_sent,
        "bytes": network.bytes_sent,
        "log": [(env.src, env.dst, env.seq) for env in network.message_log],
        "chains": [[b.hash for b in r.log.blocks] for r in cluster.replicas],
        "views": [r.view for r in cluster.replicas],
        "decisions": list(cluster.collector.decisions),
        "stats": compute_stats(cluster.collector),
    }


def test_close_keeps_every_post_run_read(monkeypatch):
    captured = {}
    real_close = Simulator.close

    def close(sim):
        # Read everything just before the run closes.
        captured["before"] = _reads(sim, captured["network"], captured["cluster"])
        real_close(sim)

    def instrument(sim, network, cluster):
        captured.update(network=network, cluster=cluster)

    monkeypatch.setattr(Simulator, "close", close)
    run = run_experiment(
        _config(warmup_blocks=0), enable_message_log=True, instrument=instrument
    )
    after = _reads(run.sim, run.network, run.cluster)
    assert after == captured["before"]
    assert run.stats == after["stats"]
    assert run.sim.pending_events() == 0
    assert run.network.pids == []


def test_closed_simulator_refuses_to_run_or_schedule():
    run = run_experiment(_config(target_blocks=3))
    sim = run.sim
    for attempt in (
        lambda: sim.run(),
        lambda: sim.run(until=sim.now + 1.0),
        lambda: sim.schedule(1.0, print),
        lambda: sim.schedule_at(sim.now + 1.0, print),
        lambda: sim.schedule_many([sim.now + 1.0], print, [()]),
    ):
        with pytest.raises(SimulationError, match="closed"):
            attempt()
    now, executed = sim.now, sim.events_executed
    sim.close()  # idempotent
    assert (sim.now, sim.events_executed) == (now, executed) and executed > 0


# -- no memo outlives its run ------------------------------------------------

DRIVERS = {
    "run_experiment": lambda: run_experiment(_config(target_blocks=5)),
    "run_sharded": lambda: run_sharded(
        dataclasses.replace(SHARD_CONFIG, max_sim_time=0.5)
    ),
    "run_parallel": lambda: run_parallel(2, sim_time=0.3),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_leaves_the_digest_memos_empty(driver):
    digest_of("filled before the run", 1)
    assert digest_memo_entries() > 0
    DRIVERS[driver]()
    assert digest_memo_entries() == 0


@pytest.mark.parametrize("driver", ["run_experiment", "run_sharded"])
def test_fingerprint_refills_no_digest_memo(driver):
    """A fingerprint is taken from the finished run: reading its chain,
    state and routing-table digests puts nothing back in the memos."""
    run = DRIVERS[driver]()
    fp = fingerprint(run)
    assert fp["log_digest[0]"] and fp["state_digest[0]"]
    assert digest_memo_entries() == 0


#: What five runs may add after the second: numpy's small-buffer cache
#: grows by ~4 KB a run.  Digest memos kept across runs added ~110 KB a
#: run here, each seed's certificates, blocks and chains.
FLAT_BYTES = 48 * 1024


def test_repeated_sharded_runs_hold_flat_memory():
    """Five k=2 cross-shard runs on distinct seeds in one process: from
    the second run on the traced total stays flat."""
    totals = []
    tracemalloc.start()
    try:
        for seed in range(100, 105):
            run = run_sharded(
                dataclasses.replace(SHARD_CONFIG, max_sim_time=1.0, seed=seed)
            )
            assert run.coordinator.committed > 0
            del run
            gc.collect()
            totals.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(totals[1:]) - totals[1] < FLAT_BYTES, totals
