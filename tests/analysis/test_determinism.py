"""No wall clock and no ambient randomness in ``src/repro``.

Every run, trace and paper figure replays from one root seed (Sec.
VIII): randomness flows only through the ``RngRegistry`` streams and
the only clock is ``Simulator.now``.  Outside ``repro/sim/rng.py`` this
bans wall-clock reads, entropy sources, the ``random`` and ``secrets``
modules and any ``numpy.random.*`` call; ``numpy.random.Generator``
annotations are fine (docs/invariants.md, ``determinism``).
"""

from __future__ import annotations

import ast

import pytest

from .astwalk import dotted, import_aliases, resolve, tree_violations

pytestmark = pytest.mark.lint

#: Fully-qualified callables that read wall-clock time or entropy.
BANNED_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})

#: Call prefixes banned as a whole, and modules whose import alone is.
BANNED_PREFIXES = ("random.", "secrets.", "numpy.random.")
BANNED_MODULES = frozenset({"random", "secrets"})

#: The RNG registry, the one module allowed to construct generators.
REGISTRY = "repro/sim/rng.py"

#: ``(module, call)`` pairs the tree may hold: the paper driver times
#: its sections around whole simulations, and that time never reaches
#: simulated state.
ALLOWED = {("repro/experiments/paper.py", "time.perf_counter")}


def violations(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each banned import or call in one module."""
    if path == REGISTRY:
        return []
    aliases = import_aliases(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [
                (node.lineno, a.name)
                for a in node.names
                if a.name.split(".")[0] in BANNED_MODULES
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in BANNED_MODULES:
                out.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and dotted(node.func):
            name = resolve(dotted(node.func), aliases)
            if name in BANNED_CALLS or name.startswith(BANNED_PREFIXES):
                out.append((node.lineno, name))
    return out


def names(source: str, path: str = "repro/example.py") -> list[str]:
    return [name for _, name in violations(ast.parse(source), path)]


# -- positives ---------------------------------------------------------
def test_flags_time_time():
    assert names("import time\n\nt = time.time()\n") == ["time.time"]


def test_flags_time_alias():
    found = names("import time as clock\n\nt = clock.monotonic()\n")
    assert "time.monotonic" in found


def test_flags_datetime_now():
    found = names("from datetime import datetime\n\nstamp = datetime.now()\n")
    assert "datetime.datetime.now" in found


def test_flags_random_import():
    assert names("import random\n")
    assert names("from random import choice\n")


def test_flags_secrets_and_urandom():
    assert names("import secrets\n")
    assert names("import os\n\nblob = os.urandom(8)\n")


def test_flags_uuid4():
    assert names("import uuid\n\nx = uuid.uuid4()\n")


def test_flags_unseeded_default_rng_outside_registry():
    found = names(
        "import numpy as np\n\ngen = np.random.default_rng()\n",
        path="repro/net/latency.py",
    )
    assert "numpy.random.default_rng" in found


def test_flags_legacy_numpy_global_functions():
    found = names("import numpy as np\n\nx = np.random.normal()\n")
    assert "numpy.random.normal" in found


# -- negatives ---------------------------------------------------------
def test_registry_module_is_allowed():
    src = "import numpy as np\n\ngen = np.random.default_rng(7)\n"
    assert names(src, path=REGISTRY) == []


def test_generator_annotation_is_fine():
    src = (
        "import numpy as np\n\n"
        "def sample(rng: np.random.Generator) -> float:\n"
        "    return float(rng.uniform(0.0, 1.0))\n"
    )
    assert names(src) == []


def test_simulated_clock_is_fine():
    assert names("def now(sim):\n    return sim.now\n") == []


def test_local_name_shadowing_is_not_flagged():
    # A method named .time() on a non-module object is fine.
    assert names("def f(w):\n    return w.clock.tick()\n") == []


# -- the real tree -----------------------------------------------------
def test_source_tree_is_deterministic():
    found = tree_violations(violations)
    stray = [v for v in found if (v[0], v[2]) not in ALLOWED]
    assert stray == [], "wall clock or ambient randomness in src/repro"
    # An allowance that matches nothing is stale.
    dead = ALLOWED - {(path, name) for path, _, name in found}
    assert dead == set(), "ALLOWED entries that match nothing"
