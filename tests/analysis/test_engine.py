"""Engine plumbing: inline ignores, tree walks, reports, CLI contract."""

import json
import re
from pathlib import Path

from repro.analysis import LintEngine
from repro.cli import main as cli_main

CLEAN = 'def ok():\n    return 1\n\n__all__ = ["ok"]\n'
DIRTY = 'import time\n\ndef bad():\n    return time.time()\n\n__all__ = ["bad"]\n'


def make_tree(tmp_path, files: dict):
    """Lay out ``{relpath: source}`` under ``tmp_path/repro``."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    return root


# -- Tree walk + report ------------------------------------------------
def test_run_reports_findings_with_relative_paths(tmp_path):
    root = make_tree(tmp_path, {"good.py": CLEAN, "sub/bad.py": DIRTY})
    report = LintEngine().run(root)
    assert report.modules_checked == 2
    assert not report.clean
    assert [f.path for f in report.findings] == ["repro/sub/bad.py"]
    assert "time.time" in report.findings[0].message


def test_suppressed_findings_do_not_fail_the_run(tmp_path):
    ignored = DIRTY.replace(
        "time.time()", "time.time()  # repro: lint-ignore[determinism]"
    )
    report = LintEngine().run(make_tree(tmp_path, {"bad.py": ignored}))
    assert report.clean
    assert len(report.suppressed) == 1
    assert report.unused_ignores == []


def test_unused_suppressions_are_reported(tmp_path):
    stale = CLEAN.replace("return 1", "return 1  # repro: lint-ignore[determinism]")
    report = LintEngine().run(make_tree(tmp_path, {"good.py": stale}))
    assert report.clean  # unused ignores warn, they don't fail
    assert report.unused_ignores == ["repro/good.py:2: lint-ignore[determinism]"]
    assert "unused inline ignore" in report.render_text()


def test_parse_errors_fail_the_run(tmp_path):
    root = make_tree(tmp_path, {"broken.py": "def f(:\n"})
    report = LintEngine().run(root)
    assert not report.clean
    assert report.parse_errors and "repro/broken.py" in report.parse_errors[0]


def test_report_render_and_json(tmp_path):
    root = make_tree(tmp_path, {"bad.py": DIRTY})
    report = LintEngine().run(root)
    text = report.render_text()
    assert "repro/bad.py:4" in text
    assert "[determinism]" in text
    data = json.loads(report.to_json())
    assert data["clean"] is False
    assert data["findings"][0]["rule"] == "determinism"
    assert data["findings"][0]["path"] == "repro/bad.py"


# -- CLI exit-code / JSON contract ------------------------------------
def test_cli_lint_json_contract(tmp_path, capsys):
    dirty_root = make_tree(tmp_path, {"bad.py": DIRTY})
    rc = cli_main(["lint", "--root", str(dirty_root), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["clean"] is False
    assert data["findings"][0]["rule"] == "determinism"
    assert set(data) == {
        "root", "clean", "modules_checked", "findings", "suppressed",
        "unused_ignores", "parse_errors",
    }

    clean_root = make_tree(tmp_path / "ok", {"good.py": CLEAN})
    rc = cli_main(["lint", "--root", str(clean_root), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["clean"] is True and data["findings"] == []


#: The rule catalogue: each rule fired on a real commit or guards what
#: the paper rests on (docs/invariants.md, "Adding a rule").
RULES = [
    "determinism", "tee-encapsulation", "all-exports", "stream-purity", "secret-flow",
]


def test_cli_lint_rules_listing(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == RULES
    doc = (Path(__file__).resolve().parents[2] / "docs" / "invariants.md").read_text()
    sections = re.findall(r"^### `([a-z-]+)`", doc, flags=re.M)
    assert sorted(sections) == sorted(RULES)
