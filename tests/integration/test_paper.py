"""``oneshot-repro paper``: every paper table and check in one command."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.experiments.paper import sections

TIMING = "=== wall time (s) ==="


def _report(out: str) -> str:
    """Stdout without the timing block (wall times differ run to run)."""
    assert TIMING in out
    return out[: out.index(TIMING)]


@pytest.fixture(scope="module")
def sequential():
    """``paper --workers 1``, run once for the tests below."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["paper", "--workers", "1"])
    return code, buf.getvalue()


def test_paper_exits_zero(sequential):
    code, out = sequential
    assert code == 0
    for section in sections():
        assert f"=== {section} ===" in out
        assert f"{section}: ok" in out
    assert "VIOLATION" not in out


@pytest.mark.parametrize(
    "markers",
    [
        ("Fig.7 [eu]",),
        ("Throughput gains", "Latency decreases"),
        ("degraded network",),
        ("msgs/block/node",),
        ("speedup",),
    ],
    ids=["fig7", "gains", "degraded", "complexity", "parallel"],
)
def test_paper_prints_table(sequential, markers):
    _, out = sequential
    for marker in markers:
        assert marker in out


def test_paper_prints_steps_table(sequential):
    """Sec. V: the piggyback row's last column says it needs no pull."""
    _, out = sequential
    rows = [line.split() for line in out.splitlines()]
    assert any(r and r[0] == "piggyback" and r[-1] == "yes" for r in rows)


def test_paper_output_independent_of_workers(sequential, capsys):
    _, out = sequential
    assert main(["paper", "--workers", "2"]) == 0
    assert _report(capsys.readouterr().out) == _report(out)


def test_paper_reports_a_violation(monkeypatch, capsys):
    import repro.experiments.paper as paper

    monkeypatch.setattr(paper, "check_parallel", lambda scaling: ["planted"])
    assert main(["paper", "--workers", "1", "--f", "1"]) == 1
    out = capsys.readouterr().out
    assert "parallel: 1 violation(s)" in out
    assert "VIOLATION planted" in out
