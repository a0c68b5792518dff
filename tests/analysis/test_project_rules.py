"""The four whole-program passes on multi-module fixtures.

Each test lays out a synthetic package with a known violation and
asserts the exact finding location, plus a clean twin proving the
pass does not fire on the sanctioned pattern.
"""

import pytest

from repro.analysis.engine import LintEngine
from repro.analysis.rules import (
    DeepFreezeRule,
    SecretFlowRule,
    StreamPurityRule,
    SubstrateBoundaryRule,
)


def run_rule(rule, files: dict):
    report = LintEngine(rules=[rule], suppressions=()).run_sources(files)
    assert report.parse_errors == []
    return report.findings


def locs(findings):
    return sorted((f.path, f.line) for f in findings)


# -- stream purity -----------------------------------------------------
STREAM_NET = {
    "repro/net/jitter.py": (
        "class Jitter:\n"
        "    def __init__(self, sim):\n"
        "        self._rng = sim.rng.stream('net')\n"
        "    def draw(self):\n"
        "        return self._rng.uniform(0.0, 1.0)\n"
    ),
}


def test_stream_purity_flags_net_draw_in_protocol_logic():
    files = dict(STREAM_NET)
    files["repro/protocols/pbft/timers.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def pick_timeout(j: 'Jitter'):\n"
        "    base = j.draw()\n"
        "    return base * 2\n"
    )
    findings = run_rule(StreamPurityRule(), files)
    assert locs(findings) == [
        ("repro/protocols/pbft/timers.py", 3),
        ("repro/protocols/pbft/timers.py", 4),
    ]
    assert all(f.rule == "stream-purity" for f in findings)
    assert "'net' RNG stream" in findings[0].message


def test_stream_purity_allows_home_layer_and_observers():
    files = dict(STREAM_NET)
    # Consumption inside repro/net (home) and repro/metrics (observer).
    files["repro/net/consumer.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def delay(j: 'Jitter'):\n"
        "    return j.draw()\n"
    )
    files["repro/metrics/hist.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def record(j: 'Jitter'):\n"
        "    return j.draw()\n"
    )
    assert run_rule(StreamPurityRule(), files) == []


def test_stream_purity_tracks_fstring_stream_names():
    files = {
        "repro/workload/engine.py": (
            "class Engine:\n"
            "    def __init__(self, sim, k):\n"
            "        self._rng = sim.rng.stream(f'workload.region{k}.arrivals')\n"
            "    def next_gap(self):\n"
            "        return self._rng.exponential(1.0)\n"
        ),
        "repro/protocols/pbft/replica.py": (
            "from repro.workload.engine import Engine\n"
            "def misuse(e: 'Engine'):\n"
            "    return e.next_gap()\n"
        ),
    }
    findings = run_rule(StreamPurityRule(), files)
    assert locs(findings) == [("repro/protocols/pbft/replica.py", 3)]
    assert "'workload' RNG stream" in findings[0].message


# -- secret flow -------------------------------------------------------
def test_secret_flow_flags_public_return_of_secret():
    findings = run_rule(
        SecretFlowRule(),
        {
            "repro/crypto/keys.py": (
                "class KeyPair:\n"
                "    def __init__(self, owner, secret):\n"
                "        self._secret = secret\n"
                "    def export(self):\n"
                "        return self._secret\n"
            ),
        },
    )
    assert locs(findings) == [("repro/crypto/keys.py", 5)]
    assert "returns secret key material" in findings[0].message


def test_secret_flow_allows_hmac_tags():
    findings = run_rule(
        SecretFlowRule(),
        {
            "repro/crypto/keys.py": (
                "import hmac\n"
                "import hashlib\n"
                "class KeyPair:\n"
                "    def __init__(self, owner, secret):\n"
                "        self._secret = secret\n"
                "    def sign(self, data):\n"
                "        return hmac.new(self._secret, data, hashlib.sha256).digest()\n"
            ),
        },
    )
    assert findings == []


def test_secret_flow_flags_escape_to_untrusted_module():
    findings = run_rule(
        SecretFlowRule(),
        {
            "repro/crypto/keys.py": (
                "class KeyPair:\n"
                "    def __init__(self, owner, secret):\n"
                "        self._secret = secret\n"
            ),
            "repro/protocols/pbft/replica.py": (
                "from repro.crypto.keys import KeyPair\n"
                "def peek(kp: 'KeyPair'):\n"
                "    raw = kp._secret\n"
                "    return raw\n"
            ),
        },
    )
    assert ("repro/protocols/pbft/replica.py", 3) in locs(findings)
    assert any("untrusted module" in f.message for f in findings)


def test_secret_flow_flags_secret_stored_on_public_attribute():
    findings = run_rule(
        SecretFlowRule(),
        {
            "repro/crypto/keys.py": (
                "class KeyPair:\n"
                "    def __init__(self, owner, secret):\n"
                "        self.material = secret\n"
            ),
        },
    )
    assert locs(findings) == [("repro/crypto/keys.py", 3)]
    assert "public attribute" in findings[0].message


KEY_SCHEDULE = (
    "import hashlib\n"
    "class KeyPair:\n"
    "    def __init__(self, owner, secret):\n"
    "        self._inner = hashlib.sha256(secret)\n"
    "        self._outer = hashlib.sha256(secret)\n"
    "    def sign(self, data):\n"
    "        inner = self._inner.copy()\n"
    "        inner.update(data)\n"
    "        outer = self._outer.copy()\n"
    "        outer.update(inner.digest())\n"
    "        return outer.digest()\n"
)


def test_secret_flow_allows_tags_finished_from_the_key_schedule():
    findings = run_rule(SecretFlowRule(), {"repro/crypto/keys.py": KEY_SCHEDULE})
    assert findings == []


@pytest.mark.parametrize("attr", ["_inner", "_outer"])
def test_secret_flow_flags_key_schedule_read_outside_the_key_module(attr):
    findings = run_rule(
        SecretFlowRule(),
        {
            "repro/crypto/keys.py": KEY_SCHEDULE
            + f"    def export(self):\n        return self.{attr}.copy()\n",
            "repro/protocols/pbft/replica.py": (
                "from repro.crypto.keys import KeyPair\n"
                "def peek(kp: 'KeyPair'):\n"
                f"    state = kp.{attr}.copy()\n"
                "    return state\n"
            ),
        },
    )
    # The schedule is secret even though hashlib.sha256 produced it: a
    # copied state escaping a public method or an untrusted module both
    # flag.
    assert ("repro/crypto/keys.py", 13) in locs(findings)
    assert ("repro/protocols/pbft/replica.py", 3) in locs(findings)


# -- substrate boundary ------------------------------------------------
SIMULATOR = {
    "repro/sim/simulator.py": (
        "class Simulator:\n"
        "    def __init__(self):\n"
        "        self._queue = []\n"
        "    @property\n"
        "    def now(self):\n"
        "        return 0.0\n"
        "    def schedule(self, delay, fn):\n"
        "        pass\n"
        "    def step(self):\n"
        "        pass\n"
    ),
}


def test_substrate_boundary_flags_internal_reach():
    files = dict(SIMULATOR)
    files["repro/protocols/pbft/replica.py"] = (
        "from repro.sim.simulator import Simulator\n"
        "def hurry(sim: Simulator):\n"
        "    sim.step()\n"
        "    return sim._queue\n"
    )
    findings = run_rule(SubstrateBoundaryRule(), files)
    assert locs(findings) == [
        ("repro/protocols/pbft/replica.py", 3),
        ("repro/protocols/pbft/replica.py", 4),
    ]
    assert "Simulator.step" in findings[0].message
    assert "Simulator._queue" in findings[1].message


def test_substrate_boundary_allows_the_manifest_surface():
    files = dict(SIMULATOR)
    files["repro/protocols/pbft/replica.py"] = (
        "from repro.sim.simulator import Simulator\n"
        "def ok(sim: Simulator):\n"
        "    sim.schedule(1.0, ok)\n"
        "    return sim.now\n"
    )
    assert run_rule(SubstrateBoundaryRule(), files) == []


def test_substrate_boundary_ignores_non_protocol_layers():
    files = dict(SIMULATOR)
    files["repro/experiments/driver.py"] = (
        "from repro.sim.simulator import Simulator\n"
        "def drive(sim: Simulator):\n"
        "    sim.step()\n"
    )
    assert run_rule(SubstrateBoundaryRule(), files) == []


# -- deep freeze -------------------------------------------------------
def test_deep_freeze_flags_nested_mutable_containers():
    findings = run_rule(
        DeepFreezeRule(),
        {
            "repro/core/messages.py": (
                "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Inner:\n"
                "    items: tuple[list, ...]\n"
                "@dataclass(frozen=True)\n"
                "class Outer:\n"
                "    inner: Inner\n"
            ),
        },
    )
    assert locs(findings) == [
        ("repro/core/messages.py", 4),
        ("repro/core/messages.py", 7),
    ]
    assert "Inner -> list" in findings[0].message
    assert "Outer -> Inner.items -> list" in findings[1].message


def test_deep_freeze_flags_unfrozen_dataclass_fields():
    findings = run_rule(
        DeepFreezeRule(),
        {
            "repro/core/messages.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Loose:\n"
                "    n: int\n"
                "@dataclass(frozen=True)\n"
                "class Msg:\n"
                "    body: Loose\n"
            ),
        },
    )
    assert locs(findings) == [("repro/core/messages.py", 7)]
    assert "unfrozen dataclass" in findings[0].message


def test_deep_freeze_expands_union_aliases_across_modules():
    findings = run_rule(
        DeepFreezeRule(),
        {
            "repro/core/certificates.py": (
                "from typing import Union\n"
                "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Good:\n"
                "    n: int\n"
                "@dataclass(frozen=True)\n"
                "class Bad:\n"
                "    sigs: dict\n"
                "AnyCert = Union[Good, Bad]\n"
            ),
            "repro/core/messages.py": (
                "from dataclasses import dataclass\n"
                "from repro.core.certificates import AnyCert\n"
                "@dataclass(frozen=True)\n"
                "class Vote:\n"
                "    cert: AnyCert\n"
            ),
        },
    )
    assert ("repro/core/certificates.py", 8) in locs(findings)
    assert ("repro/core/messages.py", 5) in locs(findings)


def test_deep_freeze_accepts_immutable_payloads():
    findings = run_rule(
        DeepFreezeRule(),
        {
            "repro/core/messages.py": (
                "from dataclasses import dataclass\n"
                "from typing import Optional\n"
                "Digest = bytes\n"
                "@dataclass(frozen=True)\n"
                "class Tx:\n"
                "    payload: bytes\n"
                "@dataclass(frozen=True)\n"
                "class Block:\n"
                "    parent: Digest\n"
                "    txs: tuple[Tx, ...]\n"
                "    maybe: Optional[int]\n"
            ),
        },
    )
    assert findings == []


def test_deep_freeze_allows_ndarray_only_in_read_only_array_owners():
    """``_Columns`` freezes its arrays at run time (pinned by
    tests/unit/test_smr_txbatch.py::TestFrozenSlab); the same field
    type anywhere else, or a list in ``_Columns`` itself, is a finding."""
    columns = (
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class _Columns:\n"
        "    client_ids: np.ndarray\n"
        "    payload_bytes: int\n"
        "@dataclass(frozen=True)\n"
        "class Other:\n"
        "    client_ids: np.ndarray\n"
    )
    block = (
        "from dataclasses import dataclass\n"
        "from repro.smr.transaction import Other, _Columns\n"
        "@dataclass(frozen=True)\n"
        "class Block:\n"
        "    txs: _Columns\n"
        "    other: Other\n"
    )
    files = {"repro/smr/transaction.py": columns, "repro/smr/block.py": block}
    assert locs(run_rule(DeepFreezeRule(), files)) == [("repro/smr/block.py", 6)]
    files["repro/smr/transaction.py"] = columns.replace(
        "payload_bytes: int", "payload_bytes: list"
    )
    assert locs(run_rule(DeepFreezeRule(), files)) == [
        ("repro/smr/block.py", 5), ("repro/smr/block.py", 6),
    ]


def test_deep_freeze_walks_the_op_column():
    """``_Columns.ops`` holds objects, not arrays: the ndarray allowance
    does not cover it, so a tuple passes and a list is a finding."""
    columns = (
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "from typing import Any, Optional\n"
        "@dataclass(frozen=True)\n"
        "class _Columns:\n"
        "    client_ids: np.ndarray\n"
        "    ops: Optional[tuple[Any, ...]] = None\n"
    )
    block = (
        "from dataclasses import dataclass\n"
        "from repro.smr.transaction import _Columns\n"
        "@dataclass(frozen=True)\n"
        "class Block:\n"
        "    txs: _Columns\n"
    )
    files = {"repro/smr/transaction.py": columns, "repro/smr/block.py": block}
    assert run_rule(DeepFreezeRule(), files) == []
    files["repro/smr/transaction.py"] = columns.replace(
        "tuple[Any, ...]", "list[Any]"
    )
    findings = run_rule(DeepFreezeRule(), files)
    assert locs(findings) == [("repro/smr/block.py", 5)]
    assert "_Columns.ops -> list" in findings[0].message


def test_deep_freeze_handles_recursive_payload_types():
    findings = run_rule(
        DeepFreezeRule(),
        {
            "repro/core/messages.py": (
                "from dataclasses import dataclass\n"
                "from typing import Optional\n"
                "@dataclass(frozen=True)\n"
                "class Node:\n"
                "    parent: 'Optional[Node]'\n"
                "    label: str\n"
            ),
        },
    )
    assert findings == []
