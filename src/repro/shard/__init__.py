"""Sharded multi-instance consensus.

Promotes the multi-group machinery of :mod:`repro.experiments.parallel`
into a real sharding layer: a deterministic epoch-versioned transaction
router (:mod:`~repro.shard.router`), a 2PC coordinator for cross-shard
commits layered on consensus decisions (:mod:`~repro.shard.coordinator`),
hot-key rebalancing at epoch boundaries (:mod:`~repro.shard.rebalance`),
a sharded open-loop workload pump (:mod:`~repro.shard.workload`) and
the cross-shard atomicity oracle (:mod:`~repro.shard.oracle`).

The run *driver* (building simulators, clusters and calling
``sim.run``) lives in :mod:`repro.experiments.shard` — this package is
protocol-layer code and stays inside the substrate API boundary.
"""

from .coordinator import (
    COORDINATOR_PID,
    DEFAULT_PREPARE_TIMEOUT,
    Coordinator,
    ShardPort,
)
from .oracle import AtomicityReport, check_atomicity
from .rebalance import (
    DEFAULT_IMBALANCE_THRESHOLD,
    LoadMonitor,
    Migration,
    Rebalancer,
)
from .router import (
    DEFAULT_SLOTS,
    HOT_ROUTING_KEY,
    Router,
    RoutingTable,
    initial_table,
    mix64,
)
from .workload import SHARD_WORKLOAD_PID, ShardedWorkload

__all__ = [
    "AtomicityReport",
    "COORDINATOR_PID",
    "Coordinator",
    "DEFAULT_IMBALANCE_THRESHOLD",
    "DEFAULT_PREPARE_TIMEOUT",
    "DEFAULT_SLOTS",
    "HOT_ROUTING_KEY",
    "LoadMonitor",
    "Migration",
    "Rebalancer",
    "Router",
    "RoutingTable",
    "SHARD_WORKLOAD_PID",
    "ShardPort",
    "ShardedWorkload",
    "check_atomicity",
    "initial_table",
    "mix64",
]
