"""Engine satellites: inline ignores, SARIF/GitHub output, changed-only,
and the aliased scalar-sample determinism fix."""

import json

from repro.analysis.engine import LintEngine, parse_inline_ignores
from repro.analysis.rules import DeterminismRule

DIRTY = "import time\n\ndef bad():\n    return time.time()\n\n__all__ = ['bad']\n"


def run_sources(files: dict, rules=None):
    return LintEngine(rules=rules, suppressions=()).run_sources(files)


# -- inline ignores ----------------------------------------------------
def test_inline_ignore_parsing():
    src = (
        "x = 1  # repro: lint-ignore[determinism]\n"
        "y = 2\n"
        "z = 3  # repro: lint-ignore[tee-encapsulation, deep-freeze]\n"
    )
    ignores = parse_inline_ignores(src, "repro/a.py")
    assert [(i.line, i.rules) for i in ignores] == [
        (1, ("determinism",)),
        (3, ("tee-encapsulation", "deep-freeze")),
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
        "    return time.time()  # repro: lint-ignore[deep-freeze]\n"
        "\n"
        "__all__ = ['bad']\n"
    )
    report = run_sources({"repro/a.py": src})
    assert [f.rule for f in report.findings] == ["determinism"]
    assert len(report.unused_ignores) == 1


# -- output formats ----------------------------------------------------
def test_sarif_output_shape():
    report = run_sources({"repro/a.py": DIRTY})
    doc = json.loads(report.to_sarif())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "determinism" in rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "determinism"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/a.py"
    assert loc["region"]["startLine"] == 4
    assert loc["region"]["startColumn"] >= 1  # SARIF columns are 1-based


def test_github_annotations_format_and_escaping():
    report = run_sources({"repro/a.py": DIRTY})
    line = report.render_github().splitlines()[0]
    assert line.startswith("::error file=repro/a.py,line=4,")
    assert "title=determinism::" in line
    assert "\n" not in line


def test_github_annotations_empty_when_clean():
    report = run_sources({"repro/a.py": "x = 1\n__all__ = []\n"})
    assert report.render_github() == ""


# -- changed-only filtering -------------------------------------------
def test_only_paths_filters_reporting_not_analysis():
    files = {"repro/a.py": DIRTY, "repro/b.py": DIRTY.replace("bad", "worse")}
    full = run_sources(files)
    assert sorted({f.path for f in full.findings}) == [
        "repro/a.py",
        "repro/b.py",
    ]
    partial = LintEngine(suppressions=()).run_sources(
        files, only_paths={"repro/b.py"}
    )
    assert {f.path for f in partial.findings} == {"repro/b.py"}
    # Partial views skip staleness accounting entirely.
    assert partial.unused_suppressions == []
    assert partial.unused_ignores == []


# -- determinism: aliased scalar sample (satellite fix) ----------------
def _determinism(src: str, path: str):
    return [
        f
        for f in LintEngine(
            rules=[DeterminismRule()], suppressions=()
        ).check_source(src, path=path)
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

