"""CI gate: the real source tree satisfies every invariant rule.

``python -m pytest tests/analysis -x -q`` is the invariant gate.  Each
rule lives in its own test module (``test_determinism``,
``test_tee_encapsulation``, ``test_all_exports``) as a
``violations(tree, path)`` function; this module runs all three over
one walk of ``src/repro`` and pins the one allowance.
"""

import pytest

from . import test_all_exports, test_determinism, test_tee_encapsulation
from .astwalk import modules

pytestmark = pytest.mark.lint

#: Every invariant rule, by the name docs/invariants.md gives it.
RULES = {
    "determinism": test_determinism.violations,
    "tee-encapsulation": test_tee_encapsulation.violations,
    "all-exports": test_all_exports.violations,
}


@pytest.fixture(scope="module")
def report():
    """One walk of the installed tree: ``(modules checked, findings)``,
    each finding ``(rule, path, line, what)``, shared by the checks below."""
    checked = 0
    findings = []
    for path, tree in modules():
        checked += 1
        for rule, violations in RULES.items():
            findings += [(rule, path, *v) for v in violations(tree, path)]
    return checked, findings


def allowed(finding) -> bool:
    rule, path, _, what = finding
    return rule == "determinism" and (path, what) in test_determinism.ALLOWED


def test_source_tree_is_lint_clean(report):
    _, findings = report
    assert [f for f in findings if not allowed(f)] == []


def test_suppression_list_has_no_dead_entries(report):
    """``test_determinism.ALLOWED`` is the only allowance; an entry that
    no longer matches a finding fails here."""
    _, findings = report
    matched = {(path, what) for _, path, _, what in filter(allowed, findings)}
    assert test_determinism.ALLOWED - matched == set()


def test_every_default_rule_ran_over_a_nontrivial_tree(report):
    checked, _ = report
    assert checked > 50
    assert set(RULES) == {"determinism", "tee-encapsulation", "all-exports"}


def test_suppressed_findings_are_exactly_the_pinned_set(report):
    """The allowance is pinned here, so a new one shows up as a test
    diff: the one left is the paper driver's wall-clock timing of its
    sections."""
    _, findings = report
    assert sorted({(rule, path) for rule, path, _, _ in filter(allowed, findings)}) == [
        ("determinism", "repro/experiments/paper.py"),
    ]
