"""Determinism rule: one positive and one negative case per ban class."""

import pytest

from repro.analysis import LintEngine
from repro.analysis.rules import DeterminismRule


def lint(source: str, path: str = "repro/example.py"):
    return LintEngine(rules=[DeterminismRule()]).check_source(source, path=path)


# -- positives ---------------------------------------------------------
def test_flags_time_time():
    findings = lint("import time\n\nt = time.time()\n")
    assert len(findings) == 1
    assert findings[0].rule == "determinism"
    assert "time.time" in findings[0].message


def test_flags_time_alias():
    findings = lint("import time as clock\n\nt = clock.monotonic()\n")
    assert any("time.monotonic" in f.message for f in findings)


def test_flags_datetime_now():
    findings = lint(
        "from datetime import datetime\n\nstamp = datetime.now()\n"
    )
    assert any("datetime.datetime.now" in f.message for f in findings)


def test_flags_random_import():
    assert lint("import random\n")
    assert lint("from random import choice\n")


def test_flags_secrets_and_urandom():
    assert lint("import secrets\n")
    assert lint("import os\n\nblob = os.urandom(8)\n")


def test_flags_uuid4():
    assert lint("import uuid\n\nx = uuid.uuid4()\n")


def test_flags_unseeded_default_rng_outside_registry():
    findings = lint(
        "import numpy as np\n\ngen = np.random.default_rng()\n",
        path="repro/net/latency.py",
    )
    assert any("numpy.random.default_rng" in f.message for f in findings)


def test_flags_legacy_numpy_global_functions():
    findings = lint("import numpy as np\n\nx = np.random.normal()\n")
    assert any("numpy.random.normal" in f.message for f in findings)


# -- negatives ---------------------------------------------------------
def test_registry_module_is_allowed():
    findings = lint(
        "import numpy as np\n\ngen = np.random.default_rng(7)\n",
        path="repro/sim/rng.py",
    )
    assert findings == []


def test_generator_annotation_is_fine():
    findings = lint(
        "import numpy as np\n\n"
        "def sample(rng: np.random.Generator) -> float:\n"
        "    return float(rng.uniform(0.0, 1.0))\n"
    )
    assert findings == []


def test_simulated_clock_is_fine():
    assert lint("def now(sim):\n    return sim.now\n") == []


def test_local_name_shadowing_is_not_flagged():
    # A method named .time() on a non-module object is fine.
    assert lint("def f(w):\n    return w.clock.tick()\n") == []


def test_custom_allowlist():
    rule = DeterminismRule(allowed=("repro/tools/",))
    engine = LintEngine(rules=[rule])
    src = "import time\n\nt = time.time()\n"
    assert engine.check_source(src, path="repro/tools/bench.py") == []
    assert engine.check_source(src, path="repro/core/replica.py")
