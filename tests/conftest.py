"""Shared test helpers: compact cluster construction, run loops,
fingerprinted runs, and the run-time RNG stream-purity check."""

from __future__ import annotations

import math
import sys
from typing import Optional

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.fuzz import RunFingerprint, fingerprint_of
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, LatencyModel, Network
from repro.net.network import DelayHook
from repro.protocols.common import Cluster, ProtocolConfig, build_cluster
from repro.protocols.registry import get_protocol
from repro.sim import RngRegistry, Simulator


def make_cluster(
    protocol: str = "oneshot",
    f: int = 1,
    n: Optional[int] = None,
    seed: int = 1,
    latency_s: float = 0.002,
    timeout_base: float = 0.2,
    payload_bytes: int = 0,
    replica_factory=None,
    enable_log: bool = False,
    **config_kw,
) -> tuple[Simulator, Network, Cluster]:
    """Build a small cluster on constant-latency links."""
    info = get_protocol(protocol)
    if n is None:
        n = info.n_for(f)
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(latency_s))
    if enable_log:
        network.enable_log()
    config = ProtocolConfig(n=n, f=f, timeout_base=timeout_base, **config_kw)
    cluster = build_cluster(
        info.replica_cls,
        sim,
        network,
        config,
        payload_bytes=payload_bytes,
        replica_factory=replica_factory,
    )
    return sim, network, cluster


def run_blocks(
    sim: Simulator,
    cluster: Cluster,
    blocks: int,
    max_time: float = 60.0,
    reference: int = 0,
) -> None:
    """Start the cluster and run until a replica decided ``blocks``."""
    cluster.start()
    cluster.replicas[reference].log.when_length(blocks, sim.stop)
    sim.run(until=max_time)
    cluster.stop()


#: The small local run the determinism goldens pin: seed 7, six
#: blocks, 2 ms links, 0.2 s base timeout, no warm-up, a 60 s cap.
SMALL_RUN = dict(
    deployment="local",
    warmup_blocks=0,
    seed=7,
    target_blocks=6,
    local_latency_s=0.002,
    timeout_base=0.2,
    max_sim_time=60.0,
)


def small_run(protocol: str = "oneshot", **overrides) -> ExperimentConfig:
    """:data:`SMALL_RUN` of ``protocol``, with ``overrides``."""
    return ExperimentConfig(**{**SMALL_RUN, "protocol": protocol, **overrides})


def fingerprint(
    config: ExperimentConfig, instrument=None, replica_factory=None
) -> tuple[RunFingerprint, MetricsCollector]:
    """Run ``config`` with the message log on: its fingerprint and its
    metrics collector."""
    run = run_experiment(
        config,
        replica_factory=replica_factory,
        enable_message_log=True,
        instrument=instrument,
    )
    fp = fingerprint_of(config.protocol, config.seed, run.sim, run.network, run.collector)
    return fp, run.collector


def with_latency(model: LatencyModel):
    """An ``instrument`` that puts ``model`` on the run's links."""

    def instrument(sim, network, cluster) -> None:
        network.latency = model

    return instrument


def slow_node(
    network: Network,
    node: int,
    extra_s: float,
    start: float = 0.0,
    end: float = math.inf,
) -> DelayHook:
    """Make every message from ``node`` take ``extra_s`` longer."""

    def hook(now: float, src: int, dst: int, size: int) -> float:
        if src == node and start <= now < end:
            return extra_s
        return 0.0

    network.delay_hooks.append(hook)
    return hook


class UniformLatency:
    """One-way delay drawn uniformly from ``[low, high]``: the cheapest
    draw-consuming :class:`LatencyModel`, for seed-sensitive tests."""

    def __init__(self, low_s: float, high_s: float) -> None:
        if not 0 <= low_s <= high_s:
            raise ValueError("need 0 <= low <= high")
        self.low_s = low_s
        self.high_s = high_s

    def sample(self, src: int, dst: int, rng) -> float:
        return float(rng.uniform(self.low_s, self.high_s))

    def sample_many(self, src: int, dsts, rng) -> list[float]:
        return rng.uniform(self.low_s, self.high_s, size=len(dsts)).tolist()


@pytest.fixture
def small_oneshot():
    """A started-but-not-run 3-replica OneShot cluster (f=1)."""
    sim, network, cluster = make_cluster("oneshot", f=1)
    return sim, network, cluster


# -- RNG stream purity at run time (docs/invariants.md) -----------------
#: Stream category -> the packages that may draw from its streams, one
#: row per ``stream(`` call site in ``src/``.  A category without a row
#: has no home: any draw on it from ``repro.*`` fails.
STREAM_HOMES: dict[str, tuple[str, ...]] = {
    "net": ("repro.net",),
    "workload": ("repro.workload",),
    "generate": ("repro.fuzz",),
}


class StreamPurityError(AssertionError):
    """A module under ``repro.`` drew from a stream outside its home."""


def stream_category(name: str) -> str:
    """``workload.shard-region3.arrivals`` -> ``workload``, ``net2`` -> ``net``."""
    return name.split(".")[0].rstrip("0123456789")


class HomeCheckedStream:
    """A stream that judges the calling module of every draw.

    Looking up a public attribute other than ``bit_generator`` (every
    draw method) from a module under ``repro.`` outside the stream's
    home raises; test modules are not judged.
    """

    __slots__ = ("_gen", "_name", "_home")

    def __init__(self, gen, name: str) -> None:
        self._gen = gen
        self._name = name
        self._home = STREAM_HOMES.get(stream_category(name), ())

    def __getattr__(self, attr: str):
        if not attr.startswith("_") and attr != "bit_generator":
            module = sys._getframe(1).f_globals.get("__name__", "")
            if module.startswith("repro.") and not any(
                module == h or module.startswith(f"{h}.") for h in self._home
            ):
                raise StreamPurityError(
                    f"{module} draws {attr}() from RNG stream {self._name!r}, "
                    f"whose home is {self._home or 'nowhere'}"
                )
        return getattr(self._gen, attr)


@pytest.fixture(autouse=True, scope="session")
def stream_purity():
    """Every stream derived during the session is a HomeCheckedStream."""
    real = RngRegistry.stream

    def stream(self, name, purpose=None):
        gen = real(self, name, purpose)
        if not isinstance(gen, HomeCheckedStream):
            # Cached in place, so a name keeps one identity per registry.
            gen = self._streams[name] = HomeCheckedStream(gen, name)
        return gen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngRegistry, "stream", stream)
        yield
