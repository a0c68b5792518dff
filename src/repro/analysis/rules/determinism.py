"""Determinism rule: all randomness and time flows through the simulator.

The reproduction's regression traces (and the paper's evaluation
methodology) depend on runs being bit-deterministic per root seed:
every stochastic model component draws from a named
:class:`~repro.sim.rng.RngRegistry` stream and the only clock is
:attr:`Simulator.now <repro.sim.simulator.Simulator.now>`.  A single
``time.time()`` or module-level ``random`` call silently breaks both.

This rule bans, outside an allow-listed set of modules:

* wall-clock reads (``time.time``/``monotonic``/``perf_counter``/...,
  ``datetime.now``/``utcnow``/``today``);
* the stdlib ``random`` module entirely (import or call);
* entropy sources (``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets``);
* constructing generators outside the registry
  (``numpy.random.default_rng``, the legacy ``numpy.random.*`` global
  functions, ``numpy.random.seed``/``RandomState``).

``numpy.random.Generator`` *annotations* are fine — only calls and
imports are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..findings import Finding
from .base import ImportMap, ModuleInfo, Rule, dotted_name

#: Fully-qualified callables that read wall-clock time or entropy.
BANNED_CALLS: tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: Prefixes banned as a whole (any attribute under them).
BANNED_PREFIXES: tuple[str, ...] = (
    "random.",
    "secrets.",
    "numpy.random.",
)

#: Modules whose *import* alone is a violation.
BANNED_MODULES: tuple[str, ...] = ("random", "secrets")

#: Modules allowed to construct generators: the registry itself.
DEFAULT_ALLOWED: tuple[str, ...] = ("repro/sim/rng.py",)

class DeterminismRule(Rule):
    """No ambient randomness or wall-clock outside the RNG registry."""

    name = "determinism"
    description = (
        "randomness/time must flow through RngRegistry streams and the "
        "simulated clock"
    )
    paper_ref = "Sec. VIII (evaluation methodology); repro.sim.rng"

    def __init__(self, allowed: Sequence[str] = DEFAULT_ALLOWED) -> None:
        self.allowed = tuple(allowed)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.matches_any(self.allowed):
            return
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    root = a.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module, node, f"import of nondeterministic module {a.name!r}"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"import from nondeterministic module {node.module!r}",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if not name:
                    continue
                resolved = imports.resolve(name)
                if resolved in BANNED_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"call to {resolved}() — use the simulated clock / "
                        f"RngRegistry stream instead",
                    )
                elif any(resolved.startswith(p) for p in BANNED_PREFIXES):
                    yield self.finding(
                        module,
                        node,
                        f"call to {resolved}() — derive a named stream from "
                        f"RngRegistry instead",
                    )


__all__ = [
    "DeterminismRule",
    "BANNED_CALLS",
    "BANNED_PREFIXES",
    "BANNED_MODULES",
    "DEFAULT_ALLOWED",
]
