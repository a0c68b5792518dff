"""RNG stream-purity pass: each stream's draws stay in its home layer.

:class:`~repro.sim.rng.RngRegistry` hands out *named* seeded streams —
``"net"`` for link-latency jitter, ``"workload.region<k>.arrivals"`` for
open-loop workload generation — and the golden fingerprints are bit-identical only
while each component keeps drawing from its own stream in a
schedule-independent order.  The
fingerprints catch a stream mix-up *after* a run; this pass catches it
statically: every statically named ``registry.stream(...)`` call is a
taint source labelled with the stream's category, the interprocedural engine
(:mod:`repro.analysis.dataflow`) follows the handle and every value drawn
from it across calls, attribute stores and containers, and a use outside
the category's home layer is a finding.  A category with no entry in
:data:`HOME_LAYERS` has no home: only observer layers may read it.

Example of the bug class this exists for: a protocol handler computing a
timeout from ``network._rng.uniform(...)`` — the run still *works*, but
every protocol decision now perturbs the net stream's draw order, so two
runs that differ only in message timing diverge bit-wise.  The per-file
TEE/determinism rules cannot see this because the draw, the handle and
the consumer live in three different modules.

Observer layers (metrics, experiments, this analyzer) are
exempt: they may *read* values derived from any stream — that is what
measurement is — as long as they do not feed them back into protocol
state, which their own home-layer checks would catch.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from ..dataflow import FlowSpec, analyze
from ..findings import Finding
from .base import ProjectRule

if TYPE_CHECKING:
    from ..callgraph import FunctionInfo, ProjectIndex

#: Stream-name category -> path prefixes where its values may be used.
#: The category is the first dotted/slashed segment of the stream name
#: with any trailing digits stripped (``net3`` -> ``net``).
HOME_LAYERS: dict[str, tuple[str, ...]] = {
    "net": ("repro/net/", "repro/sim/"),
    "faults": ("repro/faults/", "repro/sim/"),
    # Aggregated open-loop load engine: arrival times and client marks
    # drawn from "workload.region<k>.arrivals" feed slab construction
    # (repro/workload) and ride into the smr/net layers as payloads.
    # The sharded pump (repro/shard) draws its own
    # "workload.shard-region<k>.arrivals" streams and routes the slabs.
    "workload": (
        "repro/workload/",
        "repro/smr/",
        "repro/net/",
        "repro/sim/",
        "repro/shard/",
    ),
    # Fuzz scenario generation: ``RngRegistry(seed, namespace="fuzz")
    # .stream("generate")`` draws become scenario fields in repro/fuzz,
    # and the CLI's ``fuzz run`` loop hands those scenarios on.
    "generate": ("repro/fuzz/", "repro/cli.py"),
}

#: Layers that observe runs rather than participate in them; they may
#: consume values from any stream (latency samples in a histogram are
#: the product, not a protocol input).
OBSERVER_PATHS: tuple[str, ...] = (
    "repro/metrics/",
    "repro/experiments/",
    "repro/analysis/",
)

#: The one true stream factory.
_STREAM_FACTORY = "repro.sim.rng.RngRegistry.stream"

_LABEL_PREFIX = "stream:"


def stream_category(arg: Optional[ast.expr]) -> Optional[str]:
    """Category of a stream name expression, if statically knowable.

    ``"net"`` -> ``net``; ``f"workload.region{k}.arrivals"`` -> ``workload``
    (the leading literal part decides); a fully dynamic name yields
    ``None`` and the draw is not tracked.
    """
    text: Optional[str] = None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        text = arg.value
    elif isinstance(arg, ast.JoinedStr) and arg.values:
        first = arg.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            text = first.value
    if not text:
        return None
    head = text.replace("/", ".").split(".")[0]
    head = head.rstrip("0123456789")
    return head or None


class _StreamFlowSpec(FlowSpec):
    name = "stream-purity"

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    def _is_stream_call(self, node: ast.Call) -> bool:
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "stream"
        ):
            return False
        site = self.index.call_of.get(id(node))
        if site is not None and site.callee == _STREAM_FACTORY:
            return True
        # Untyped receiver fallback: conventional registry names.
        recv = node.func.value
        tail = recv.attr if isinstance(recv, ast.Attribute) else (
            recv.id if isinstance(recv, ast.Name) else ""
        )
        return tail == "rng" or tail.endswith("_rng") or tail == "registry"

    def source_label(
        self, node: ast.expr, fn: FunctionInfo, index: ProjectIndex
    ) -> Optional[str]:
        if isinstance(node, ast.Call) and self._is_stream_call(node):
            arg = node.args[0] if node.args else None
            if arg is None:
                for kw in node.keywords:
                    if kw.arg == "name":
                        arg = kw.value
                        break
            cat = stream_category(arg)
            if cat is not None:
                return f"{_LABEL_PREFIX}{cat}"
        return None

    @staticmethod
    def _out_of_home(module: str, label: str) -> Optional[str]:
        """The offending category if ``module`` is not a home for it."""
        cat = label[len(_LABEL_PREFIX):]
        homes = HOME_LAYERS.get(cat, ())
        if any(module.startswith(p) for p in homes):
            return None
        if any(module.startswith(p) for p in OBSERVER_PATHS):
            return None
        return cat

    def check_use(self, fn, stmt, taints) -> Iterator[tuple[ast.AST, str]]:
        for t in sorted(taints, key=lambda t: (t.label, t.origin)):
            cat = self._out_of_home(fn.module, t.label)
            if cat is not None:
                homes = HOME_LAYERS.get(cat)
                where = (
                    f"its home layer {homes}" if homes
                    else "the observer layers (it has no home layer)"
                )
                yield (
                    stmt,
                    f"value drawn from the {cat!r} RNG stream "
                    f"(created at {t.origin}) is consumed outside {where} "
                    f"— cross-purpose stream use couples unrelated draw "
                    f"orders and breaks fingerprint bit-identity",
                )


class StreamPurityRule(ProjectRule):
    """Interprocedural: RNG stream draws stay within the stream's layer."""

    name = "stream-purity"
    description = (
        "values drawn from a named RngRegistry stream must stay in the "
        "stream's home layer (interprocedural taint)"
    )
    paper_ref = "Sec. VIII (deterministic replay); repro.sim.rng"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for hit in analyze(index, _StreamFlowSpec(index)):
            yield self.finding_at(hit.fn.module, hit.node, hit.message)


__all__ = [
    "HOME_LAYERS",
    "OBSERVER_PATHS",
    "StreamPurityRule",
    "stream_category",
]
