"""Substrate-boundary pass: protocol code uses only the manifest API.

A shared protocol skeleton, replica crash-recovery (a process swapped
under in-flight messages) and any rework of the event kernel are only
safe if protocol-layer code — everything under ``repro/protocols``,
``repro/core``, ``repro/smr`` and ``repro/shard`` — touches the
simulator substrate through a *declared* narrow surface.  This pass
makes that surface machine-checked: :data:`SUBSTRATE_API` maps each
substrate class to the attribute names the protocol layer may use, the
project index types every attribute access in the protocol layer, and
an access that reaches past the manifest (``sim._queue``,
``network._rng``, ``sim.run``) is a finding.

The manifest is intentionally the *narrow* API, not the public one:
``Simulator.run``/``stop`` and the queue/metrics introspection
properties are public for experiment drivers, but a protocol that calls
them is driving its own simulation — exactly the coupling a kernel
change or a recovering replica would break.  Subclassing
:class:`~repro.sim.process.Process` is the supported extension
mechanism, so ``Process`` itself is not in the manifest and ``self.*``
access on protocol classes is unrestricted.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from .base import ProjectRule

if TYPE_CHECKING:
    from ..callgraph import ProjectIndex

#: Path prefixes that make up the protocol layer.  The sharding layer
#: (router, 2PC coordinator, rebalancer, pump) is protocol code too:
#: its run *driver* lives in repro/experiments/shard.py, so everything
#: under repro/shard must stay inside the declared substrate surface.
PROTOCOL_PATHS: tuple[str, ...] = (
    "repro/protocols/",
    "repro/core/",
    "repro/smr/",
    "repro/shard/",
)

#: Substrate class qualname -> attribute names the protocol layer may
#: touch.  Inheritance composes: an access on ``Cpu`` may use anything
#: allowed on ``Cpu`` or ``Resource``.  Dunders are always permitted.
SUBSTRATE_API: dict[str, frozenset[str]] = {
    "repro.sim.simulator.Simulator": frozenset(
        {"now", "schedule", "schedule_at", "schedule_many", "rng"}
    ),
    "repro.sim.event.EventQueue": frozenset(
        {"push", "push_many", "pop_next", "live_count"}
    ),
    "repro.sim.event.Event": frozenset({"cancel", "cancelled", "time"}),
    # ``total_busy`` and ``jobs`` are here for one caller:
    # ``BaseReplica.charge`` is ``Resource.occupy`` written out (several
    # charges per message, one frame each instead of two), so it keeps
    # the same three fields ``occupy`` does.
    "repro.sim.cpu.Resource": frozenset(
        {"occupy", "occupy_many", "busy_until", "total_busy", "jobs",
         "queueing_delay", "utilization", "name"}
    ),
    "repro.sim.cpu.Cpu": frozenset(),
    "repro.sim.cpu.Nic": frozenset(
        {"serialize", "serialize_many", "bandwidth_bps"}
    ),
    "repro.sim.process.Timer": frozenset({"start", "cancel", "armed"}),
    "repro.sim.rng.RngRegistry": frozenset(
        {"stream", "spawn", "fork", "derive_seed", "root_seed"}
    ),
    "repro.net.network.Network": frozenset(
        {"send", "multicast", "register", "attach_nic", "process", "nic",
         "pids", "enable_log"}
    ),
    "repro.net.latency.LatencyModel": frozenset({"sample", "sample_many"}),
    "repro.net.latency.ConstantLatency": frozenset(),
    "repro.net.latency.UniformLatency": frozenset(),
    "repro.net.latency.TopologyLatency": frozenset(),
}


def in_protocol_layer(module: str) -> bool:
    return any(module.startswith(p) for p in PROTOCOL_PATHS)


class SubstrateBoundaryRule(ProjectRule):
    """Protocol layer touches the substrate only through the manifest."""

    name = "substrate-boundary"
    description = (
        "protocol-layer code may touch substrate objects only through the "
        "declared narrow API (SUBSTRATE_API manifest)"
    )
    paper_ref = "ROADMAP: protocol skeleton and crash-recovery; repro.sim"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for fn in index.functions.values():
            if not in_protocol_layer(fn.module):
                continue
            env = index.local_types(fn)
            stack: list[ast.AST] = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    # Nested defs are indexed (and checked) separately.
                    continue
                stack.extend(ast.iter_child_nodes(node))
                if not isinstance(node, ast.Attribute):
                    continue
                recv = index.infer_type(node.value, env, fn)
                if recv is None:
                    continue
                manifest_classes = [
                    c for c in index.mro(recv) if c in SUBSTRATE_API
                ]
                if not manifest_classes:
                    continue
                allowed: set[str] = set()
                for c in manifest_classes:
                    allowed |= SUBSTRATE_API[c]
                if node.attr in allowed or (
                    node.attr.startswith("__") and node.attr.endswith("__")
                ):
                    continue
                surface = manifest_classes[0].rsplit(".", 1)[-1]
                yield self.finding_at(
                    fn.module,
                    node,
                    f"protocol-layer access to {surface}.{node.attr} is "
                    f"outside the substrate manifest (allowed on "
                    f"{surface}: {', '.join(sorted(allowed)) or 'nothing'})"
                    f" — extend SUBSTRATE_API deliberately or go through "
                    f"the narrow API",
                )


__all__ = [
    "PROTOCOL_PATHS",
    "SUBSTRATE_API",
    "SubstrateBoundaryRule",
    "in_protocol_layer",
]
