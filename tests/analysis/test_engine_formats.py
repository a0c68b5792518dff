"""Engine satellites: inline ignores."""

from repro.analysis.engine import LintEngine, parse_inline_ignores


def run_sources(files: dict, rules=None):
    return LintEngine(rules=rules).run_sources(files)


# -- inline ignores ----------------------------------------------------
def test_inline_ignore_parsing():
    src = (
        "x = 1  # repro: lint-ignore[determinism]\n"
        "y = 2\n"
        "z = 3  # repro: lint-ignore[tee-encapsulation, all-exports]\n"
    )
    ignores = parse_inline_ignores(src, "repro/a.py")
    assert [(i.line, i.rules) for i in ignores] == [
        (1, ("determinism",)),
        (3, ("tee-encapsulation", "all-exports")),
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
        "    return time.time()  # repro: lint-ignore[tee-encapsulation]\n"
        "\n"
        "__all__ = ['bad']\n"
    )
    report = run_sources({"repro/a.py": src})
    assert [f.rule for f in report.findings] == ["determinism"]
    assert len(report.unused_ignores) == 1
