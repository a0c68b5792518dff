"""The two whole-program passes on multi-module fixtures.

Each test lays out a synthetic package with a known violation and
asserts the exact finding location, plus a clean twin proving the
pass does not fire on the sanctioned pattern.
"""

import pytest

from repro.analysis.engine import LintEngine
from repro.analysis.rules import SecretFlowRule, StreamPurityRule


def run_rule(rule, files: dict):
    report = LintEngine(rules=[rule]).run_sources(files)
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


def test_stream_purity_flags_a_homeless_stream_read_by_the_cli():
    # A category with no home layer may be read only by observers, and
    # the CLI is not one.
    files = {
        "repro/metrics/sampler.py": (
            "class Sampler:\n"
            "    def __init__(self, sim):\n"
            "        self._rng = sim.rng.stream('metrics.sample')\n"
            "    def draw(self):\n"
            "        return self._rng.random()\n"
        ),
        "repro/cli.py": (
            "from repro.metrics.sampler import Sampler\n"
            "def report(s: 'Sampler'):\n"
            "    return s.draw()\n"
        ),
    }
    findings = run_rule(StreamPurityRule(), files)
    assert locs(findings) == [("repro/cli.py", 3)]
    assert "'metrics' RNG stream" in findings[0].message
    assert "no home layer" in findings[0].message


def test_stream_purity_sees_a_draw_inside_a_closure():
    # A closure (a nested def or a lambda) runs in its enclosing
    # function's context: the handle comes from the enclosing
    # parameter, the finding is the draw's line.
    files = dict(STREAM_NET)
    files["repro/smr/x.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def arm(j: 'Jitter', timers):\n"
        "    def fire():\n"
        "        timers.append(j.draw())\n"
        "    return fire\n"
    )
    files["repro/smr/y.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def arm_later(j: 'Jitter', timers):\n"
        "    timers.append(lambda: j.draw())\n"
    )
    findings = run_rule(StreamPurityRule(), files)
    assert locs(findings) == [("repro/smr/x.py", 4), ("repro/smr/y.py", 3)]
    assert "'net' RNG stream" in findings[0].message


# -- secret flow -------------------------------------------------------
def test_secret_flow_sees_a_leak_inside_a_closure():
    leak = "def leak(kp):\n    print(kp._secret)\n"
    nested = (
        "def leak(kp):\n"
        "    def inner():\n"
        "        print(kp._secret)\n"
        "    return inner\n"
    )
    in_lambda = "def leak(kp, hooks):\n    hooks.append(lambda: print(kp._secret))\n"
    for src, line in ((leak, 2), (nested, 3), (in_lambda, 2)):
        findings = run_rule(SecretFlowRule(), {"repro/protocols/x.py": src})
        assert set(locs(findings)) == {("repro/protocols/x.py", line)}


def test_secret_flow_judges_a_closure_return_by_the_closure():
    # Inside the trusted base a private nested helper may return the
    # key (the enclosing ``sign`` only returns a tag); a public one is
    # reported under its own name.
    key_pair = (
        "import hmac\n"
        "import hashlib\n"
        "class KeyPair:\n"
        "    def __init__(self, owner, secret):\n"
        "        self._secret = secret\n"
        "    def sign(self, data):\n"
        "        def _key():\n"
        "            return self._secret\n"
        "        return hmac.new(_key(), data, hashlib.sha256).digest()\n"
        "    def export(self):\n"
        "        def get():\n"
        "            return self._secret\n"
        "        return get\n"
    )
    findings = run_rule(SecretFlowRule(), {"repro/crypto/keys.py": key_pair})
    assert locs(findings) == [("repro/crypto/keys.py", 12)]
    assert "export.<locals>.get returns secret key material" in findings[0].message


def test_closure_defaults_and_decorators_run_in_the_enclosing_statement():
    # A nested def's default values and decorators are evaluated where
    # the def stands, so they are reported at the def line, and a
    # tainted default taints its parameter inside the closure.
    default = (
        "def leak(kp, hooks):\n"
        "    def inner(k=kp._secret):\n"
        "        hooks.append(k)\n"
        "    return inner\n"
    )
    findings = run_rule(SecretFlowRule(), {"repro/protocols/x.py": default})
    assert locs(findings) == [("repro/protocols/x.py", 2), ("repro/protocols/x.py", 3)]
    files = dict(STREAM_NET)
    files["repro/smr/x.py"] = (
        "from repro.net.jitter import Jitter\n"
        "def arm(j: 'Jitter', timers):\n"
        "    @timers.after(j.draw())\n"
        "    def fire():\n"
        "        pass\n"
        "    return fire\n"
    )
    findings = run_rule(StreamPurityRule(), files)
    assert locs(findings) == [("repro/smr/x.py", 4)]


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
