"""Hygiene rule: ``__all__`` discipline."""

from repro.analysis import LintEngine
from repro.analysis.rules import AllExportsRule


def lint_all(source: str, path: str = "repro/util.py"):
    return LintEngine(rules=[AllExportsRule()]).check_source(source, path=path)


# -- __all__: positives ------------------------------------------------
def test_flags_missing_all():
    findings = lint_all("def helper():\n    return 1\n")
    assert len(findings) == 1
    assert "no __all__" in findings[0].message


def test_flags_unresolvable_export():
    findings = lint_all('__all__ = ["ghost"]\n')
    assert any("ghost" in f.message for f in findings)


def test_flags_public_def_missing_from_all():
    findings = lint_all(
        "def shown():\n    return 1\n\n"
        "def hidden():\n    return 2\n\n"
        '__all__ = ["shown"]\n'
    )
    assert len(findings) == 1
    assert "hidden" in findings[0].message


def test_flags_computed_all():
    findings = lint_all("__all__ = sorted(globals())\n")
    assert any("literal list" in f.message for f in findings)


# -- __all__: negatives ------------------------------------------------
def test_exhaustive_all_is_fine():
    src = (
        "CONST = 3\n\n"
        "def public():\n    return CONST\n\n"
        "def _private():\n    return 0\n\n"
        "class Thing:\n    pass\n\n"
        '__all__ = ["public", "Thing", "CONST"]\n'
    )
    assert lint_all(src) == []


def test_reexport_of_import_is_fine():
    src = "from os.path import join\n\n" '__all__ = ["join"]\n'
    assert lint_all(src) == []


def test_constants_need_not_be_exported():
    src = "LIMIT = 5\n\n__all__ = []\n"
    assert lint_all(src) == []
