"""The four workloads, and what one pass over a workload yields.

A workload is a short script over a :class:`Pass`: it calls
``experiment`` / ``sharded`` / ``fuzz`` once per operation.  The pass
runs the operation through the program's stable entry points, checks its
output, and folds the result into sums, so that no result object outlives
its operation and ``peak_rss_mb`` is the program's, not the harness's.

All link delays are injected simulated delays.  Local deployments have a
constant delay and draw no random numbers, so their simulated results
would not depend on the seed at all; ``link_scale`` stretches the delay
by a seed-derived 0.01-0.5 % so that they do.  It only ever stretches:
at exactly 10 ms ``degraded-fuzz`` sits on a timeout threshold where a
shorter delay changes the number of timeouts.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Callable, Optional

from repro.experiments import ExperimentConfig, run_experiment, run_sharded
from repro.faults import every_kth_view, forced_execution_factory
from repro.fuzz import generate_scenario, run_scenario

#: Kernel the program picks when none is named; the workloads never name one.
DEFAULT_KERNEL = ExperimentConfig().kernel

#: First scenario seed of the fixed fuzz block.  The block is the same
#: for every ``--seed`` (which only shuffles its order): scenario cost
#: varies by 15 % from block to block, and a block drawn from the seed
#: could hold a scenario the fuzzer is right to fail.
FUZZ_BASE = 1000
FUZZ_SCENARIOS = 150


def link_scale(seed: int) -> float:
    return 1.0 + (1 + seed * 7919 % 50) / 10_000


class Pass:
    """One pass over a workload: sums, output checks, a digest."""

    def __init__(self, seed: int, base_seed: int, kernel: Optional[str] = None,
                 counters: bool = False) -> None:
        self.seed = seed
        self.link = link_scale(base_seed)
        self.order = random.Random(base_seed)
        self._kernel = kernel
        self._counters = counters
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tx = 0
        self.sim_s = 0.0
        self.latency_tx_s = 0.0
        self.build_s = 0.0
        self.fuzz_s = 0.0
        self.wall_s = 0.0
        self._digest = hashlib.sha256()
        #: Sums read from result objects; a key whose read failed is None.
        self.counts: dict[str, Any] = {
            "events": 0, "messages": 0, "bytes": 0, "blocks": 0,
        }
        self.probe_errors: list[str] = []

    # -- helpers -----------------------------------------------------------
    def config(self, **fields: Any) -> ExperimentConfig:
        """An ``ExperimentConfig`` at this pass's seed; the kernel field
        is left at the program's default unless an alternate is measured."""
        if self._kernel is not None:
            fields["kernel"] = self._kernel
        return ExperimentConfig(seed=self.seed, **fields)

    def digest(self) -> str:
        return self._digest.hexdigest()

    def _add(self, key: str, read: Callable[[], Any]) -> None:
        """Add a defensively read count: a missing attribute makes the
        metric null and is reported, never raised."""
        if key in self.counts and self.counts[key] is None:
            return
        try:
            self.counts[key] = self.counts.get(key, 0) + read()
        except Exception as exc:  # noqa: BLE001 - optional surface
            self.counts[key] = None
            self.probe_errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def _timed_build(self) -> Callable[..., None]:
        """An ``instrument`` hook that charges call -> hook to build_s."""
        start = time.perf_counter()

        def instrument(*_built: Any) -> None:
            self.build_s += time.perf_counter() - start

        return instrument

    def _fold_cluster(self, network: Any, cluster: Any) -> int:
        """Fold one finished cluster; returns tx committed at the
        reference replica (pid 0, the runners' default)."""
        log = cluster.replicas[0].log
        self._digest.update(
            f"{network.messages_sent}:{network.bytes_sent}:".encode()
            + b"".join(block.hash for block in log.blocks)
        )
        self.counts["messages"] += network.messages_sent
        self.counts["bytes"] += network.bytes_sent
        self.counts["blocks"] += len(log)
        if self._counters:
            self._add("ecalls", lambda: sum(
                part.ecalls
                for replica in cluster.replicas
                for part in vars(replica).values()
                if isinstance(getattr(part, "ecalls", None), int)
            ))
            self._add("views", lambda: sum(r.view for r in cluster.replicas))
            self._add("timeouts", cluster.collector.timeouts)
            for kind in ("normal", "piggyback", "catchup"):
                self._add(f"exec_{kind}", lambda: sum(
                    1 for k in cluster.collector.execution_kinds().values()
                    if k == kind
                ))
        return log.txs_executed

    # -- operations --------------------------------------------------------
    def experiment(self, config: ExperimentConfig,
                   replica_factory: Optional[Callable] = None) -> None:
        self.ops += 1
        try:
            run = run_experiment(
                config, replica_factory=replica_factory,
                instrument=self._timed_build(),
            )
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self._fail(f"{config.describe()}: {type(exc).__name__}: {exc}")
            return
        tx = self._fold_cluster(run.network, run.cluster)
        self._fold_run(run.sim, tx, run.stats.mean_latency_s)
        if run.stats.blocks_decided < config.target_blocks:
            self._fail(f"{config.describe()}: decided "
                       f"{run.stats.blocks_decided}/{config.target_blocks} blocks")
        elif not _prefix_agreement(run.cluster):
            self._fail(f"{config.describe()}: correct replicas disagree on a prefix")

    def sharded(self, config: ExperimentConfig) -> None:
        self.ops += 1
        try:
            run = run_sharded(config, instrument=self._timed_build())
        except Exception as exc:  # noqa: BLE001
            self._fail(f"{config.describe()}: {type(exc).__name__}: {exc}")
            return
        tx = sum(
            self._fold_cluster(network, cluster)
            for network, cluster in zip(run.networks, run.clusters)
        )
        self._fold_run(run.sim, tx, run.mean_latency_s)
        if self._counters:
            self._add("cross_committed", lambda: run.coordinator.committed)
            self._add("cross_aborted", lambda: run.coordinator.aborted)
            self._add("cross_overhead_ratio", lambda: run.cross_overhead_ratio)
            self._add("cross_p99_latency_s", lambda: run.cross_p99_latency_s)
            self._add("offered_tx", lambda: run.pump.txs_offered)
            self._add("open_loop_sim_s", lambda: run.sim.now)
            self._add("open_loop_tx", lambda: tx)
        if not run.atomicity.ok:
            self._fail(f"{config.describe()}: {run.atomicity.describe()}")
        elif tx == 0:
            self._fail(f"{config.describe()}: nothing committed")

    def fuzz(self, scenario_seed: int) -> None:
        """One fuzz scenario under both oracles.  ``FuzzResult`` exposes
        neither the cluster nor the clock, so a scenario adds wall time
        and events but no transactions, messages or simulated seconds."""
        self.ops += 1
        start = time.perf_counter()
        try:
            result = run_scenario(generate_scenario(scenario_seed))
        except Exception as exc:  # noqa: BLE001
            self._fail(f"scenario {scenario_seed}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.fuzz_s += time.perf_counter() - start
        replay = result.fingerprint
        self._digest.update(
            (replay.digest() if replay is not None else result.describe()).encode()
        )
        self._add("events", lambda: replay.events)
        self._add("scenarios", lambda: 1)
        if result.failure is not None:
            self._fail(result.describe())

    def _fold_run(self, sim: Any, tx: int, mean_latency_s: float) -> None:
        self._digest.update(f"{sim.events_executed}:{sim.now!r};".encode())
        self.counts["events"] += sim.events_executed
        self.tx += tx
        self.sim_s += sim.now
        self.latency_tx_s += mean_latency_s * tx


def _prefix_agreement(cluster: Any) -> bool:
    from repro.smr.execution import prefix_agreement

    return prefix_agreement([r.log for r in cluster.correct_replicas()])


# -- the workloads ---------------------------------------------------------

def fig7_world(p: Pass, small: bool) -> None:
    """The paper's headline (Fig. 7, world-wide), saturated closed loop."""
    for protocol in ("hotstuff", "damysus", "oneshot"):
        for f in (1,) if small else (1, 10, 30):
            for payload in (0, 256):
                p.experiment(p.config(
                    protocol=protocol, f=f, payload_bytes=payload,
                    deployment="world", target_blocks=6 if small else 20,
                ))


def smr_local(p: Pass, small: bool) -> None:
    """All six registered protocols at f=1 over 2 ms links, closed loop."""
    for protocol in ("hotstuff", "damysus", "oneshot"):
        for name in (protocol, protocol + "-chained"):
            p.experiment(p.config(
                protocol=name, f=1, payload_bytes=256, deployment="local",
                local_latency_s=0.002 * p.link, timeout_base=0.5,
                target_blocks=20 if small else 300,
            ))


def shard_k8_open(p: Pass, small: bool) -> None:
    """Eight shards fed by one routed open-loop workload with 2PC."""
    p.sharded(p.config(
        protocol="oneshot", f=1, deployment="local",
        local_latency_s=0.002 * p.link, shards=8, workload="open",
        offered_tps=24_000, virtual_clients=1_000_000, streaming_metrics=True,
        cross_shard_permille=150, hot_key_permille=100, shard_slots=64,
        shard_epoch_s=0.1 if small else 0.6,
        max_sim_time=0.3 if small else 1.8,
    ))


def degraded_fuzz(p: Pass, small: bool) -> None:
    """The unhappy paths: Sec. VIII-d forced executions, then a fuzz block."""
    def config(protocol: str) -> ExperimentConfig:
        return p.config(
            protocol=protocol, f=2, payload_bytes=256, deployment="local",
            local_latency_s=0.010 * p.link, timeout_base=0.06,
            target_blocks=10 if small else 60,
        )

    for protocol in ("hotstuff", "damysus", "oneshot"):
        p.experiment(config(protocol))
    for mode in ("catchup", "piggyback"):
        for k in (4, 3, 2):
            p.experiment(
                config("oneshot"),
                replica_factory=forced_execution_factory(mode, every_kth_view(k)),
            )
    block = list(range(FUZZ_BASE, FUZZ_BASE + (10 if small else FUZZ_SCENARIOS)))
    p.order.shuffle(block)
    for scenario_seed in block:
        p.fuzz(scenario_seed)


WORKLOADS: dict[str, Callable[[Pass, bool], None]] = {
    "fig7-world": fig7_world,
    "smr-local": smr_local,
    "shard-k8-open": shard_k8_open,
    "degraded-fuzz": degraded_fuzz,
}
