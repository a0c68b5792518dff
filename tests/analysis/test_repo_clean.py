"""CI gate: the real source tree satisfies every invariant rule.

``python -m pytest tests/analysis -x -q`` doubles as the lint gate;
``oneshot-repro lint`` is the interactive equivalent with the same
exit-code contract (0 clean, 1 violations).
"""

import pytest

from repro.analysis import lint_package

pytestmark = pytest.mark.lint


@pytest.fixture(scope="module")
def report():
    """One lint run of the installed tree, shared by the checks below."""
    return lint_package()


def test_source_tree_is_lint_clean(report):
    assert report.parse_errors == []
    assert report.findings == [], "\n" + report.render_text()


def test_suppression_list_has_no_dead_entries(report):
    """The inline ``lint-ignore`` comments are the only suppressions;
    one that no longer matches a finding fails here."""
    assert report.unused_ignores == []


def test_every_default_rule_ran_over_a_nontrivial_tree(report):
    assert report.modules_checked > 50


def test_suppressed_findings_are_exactly_the_pinned_set(report):
    """Every inline ignore in ``src/`` is pinned here, so a new one
    shows up as a test diff: the one left is the paper driver's
    wall-clock timing of its sections."""
    assert sorted((f.rule, f.path) for f in report.suppressed) == [
        ("determinism", "repro/experiments/paper.py"),
    ]
