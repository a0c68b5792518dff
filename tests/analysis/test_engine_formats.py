"""Engine satellites: inline ignores and the aliased scalar-sample
determinism fix."""

from repro.analysis.engine import LintEngine, parse_inline_ignores
from repro.analysis.rules import DeterminismRule


def run_sources(files: dict, rules=None):
    return LintEngine(rules=rules).run_sources(files)


# -- inline ignores ----------------------------------------------------
def test_inline_ignore_parsing():
    src = (
        "x = 1  # repro: lint-ignore[determinism]\n"
        "y = 2\n"
        "z = 3  # repro: lint-ignore[tee-encapsulation, secret-flow]\n"
    )
    ignores = parse_inline_ignores(src, "repro/a.py")
    assert [(i.line, i.rules) for i in ignores] == [
        (1, ("determinism",)),
        (3, ("tee-encapsulation", "secret-flow")),
    ]


def test_inline_ignore_suppresses_exact_line():
    src = (
        "import time\n"
        "\n"
        "def bad():\n"
        "    return time.time()  # repro: lint-ignore[determinism]\n"
        "\n"
        "__all__ = ['bad']\n"
    )
    report = run_sources({"repro/a.py": src})
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["determinism"]
    assert report.unused_ignores == []


def test_unused_inline_ignore_is_reported_but_not_fatal():
    src = "x = 1  # repro: lint-ignore[determinism]\n__all__ = []\n"
    report = run_sources({"repro/a.py": src})
    assert report.clean
    assert len(report.unused_ignores) == 1
    assert "repro/a.py:1" in report.unused_ignores[0]
    assert "determinism" in report.unused_ignores[0]


def test_inline_ignore_for_wrong_rule_does_not_suppress():
    src = (
        "import time\n"
        "\n"
        "def bad():\n"
        "    return time.time()  # repro: lint-ignore[secret-flow]\n"
        "\n"
        "__all__ = ['bad']\n"
    )
    report = run_sources({"repro/a.py": src})
    assert [f.rule for f in report.findings] == ["determinism"]
    assert len(report.unused_ignores) == 1


# -- determinism: aliased scalar sample (satellite fix) ----------------
def _determinism(src: str, path: str):
    return [
        f
        for f in LintEngine(rules=[DeterminismRule()]).check_source(
            src, path=path
        )
        if "sample" in f.message
    ]


def test_aliased_sample_in_loop_is_flagged():
    src = (
        "def multicast(model, dests):\n"
        "    draw = model.sample\n"
        "    return [draw(0, d) for d in dests]\n"
    )
    findings = _determinism(src, "repro/net/network.py")
    assert [f.line for f in findings] == [3]
    assert "alias 'draw'" in findings[0].message


def test_direct_scalar_sample_in_loop_still_flagged():
    src = (
        "def multicast(model, dests):\n"
        "    return [model.sample(0, d) for d in dests]\n"
    )
    findings = _determinism(src, "repro/net/network.py")
    assert [f.line for f in findings] == [2]


def test_sample_alias_outside_loop_is_fine():
    src = "def one(model):\n    draw = model.sample\n    return draw(0, 1)\n"
    assert _determinism(src, "repro/net/network.py") == []


def test_latency_module_keeps_its_scalar_fallback():
    src = (
        "def sample_per_link(model, dests):\n"
        "    draw = model.sample\n"
        "    return [draw(0, d) for d in dests]\n"
    )
    assert _determinism(src, "repro/net/latency.py") == []

