"""Repro files: serialized counterexamples that replay byte-identically.

A repro file is a small JSON document:

.. code-block:: json

    {
      "format": "repro.fuzz/2",
      "note": "free-form provenance",
      "config": { ...repro.experiments.to_dict(ExperimentConfig)... },
      "expect": {
        "failure": "safety" | "crash" | "liveness" | null,
        "digest": "<RunFingerprint.digest()> or null (crashed runs)",
        "timeline_hash": "<RunFingerprint.timeline_hash>  (optional)",
        "chain_hash": "<RunFingerprint.chain_hash>  (optional)",
        "blocks_decided": 3
      }
    }

``expect`` records what the run did when the file was written; replay
re-runs the config and verifies both the failure kind and — when the
run completed — the exact fingerprint digest.  The committed regression
corpus under ``tests/fuzz/corpus/`` is replayed in CI, so any drift in
protocol, fault or network code that changes these runs is caught.

``digest`` folds the executed-event count, which is kernel bookkeeping
(docs/invariants.md): a scheduling change can move it without moving
behaviour.  ``timeline_hash`` (every envelope, in order) and
``chain_hash`` (every decision) are the behavioural components; they
are written for every run that yields a
:class:`~repro.fuzz.fingerprint.RunFingerprint` (sharded runs have a joint
fingerprint with no such components), checked before the digest when
present, and a mismatch names the component that drifted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..experiments.config import ExperimentConfig, from_dict, to_dict
from .harness import FuzzResult, run_scenario

#: The one format written and read; ``repro.fuzz/1`` files (a separate
#: scenario description) no longer load.
FORMAT = "repro.fuzz/2"


class ReplayMismatch(AssertionError):
    """A repro file no longer reproduces its recorded outcome."""


@dataclass(frozen=True)
class ReproFile:
    """One parsed repro document."""

    config: ExperimentConfig
    expect_failure: Optional[str]
    expect_digest: Optional[str]
    expect_blocks: int
    note: str = ""
    #: Behavioural components of the fingerprint (None = not recorded).
    expect_timeline_hash: Optional[str] = None
    expect_chain_hash: Optional[str] = None


#: ``expect`` keys pinning one behavioural fingerprint component each.
_COMPONENTS = ("timeline_hash", "chain_hash")


def make_repro(result: FuzzResult, note: str = "") -> dict:
    """The JSON document describing ``result``."""
    fp = result.fingerprint
    expect = {
        "failure": result.failure,
        "digest": fp.digest() if fp is not None else None,
    }
    for name in _COMPONENTS:
        if hasattr(fp, name):
            expect[name] = getattr(fp, name)
    expect["blocks_decided"] = result.report.blocks_decided
    return {
        "format": FORMAT,
        "note": note,
        "config": to_dict(result.config),
        "expect": expect,
    }


def save_repro(path: Union[str, Path], result: FuzzResult, note: str = "") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(make_repro(result, note=note), indent=2) + "\n")
    return path


def load_repro(path: Union[str, Path]) -> ReproFile:
    data = json.loads(Path(path).read_text())
    fmt = data.get("format")
    if fmt != FORMAT:
        raise ValueError(f"{path}: unknown repro format {fmt!r}")
    expect = data.get("expect", {})
    return ReproFile(
        config=from_dict(ExperimentConfig, data["config"]),
        expect_failure=expect.get("failure"),
        expect_digest=expect.get("digest"),
        expect_blocks=int(expect.get("blocks_decided", 0)),
        note=data.get("note", ""),
        expect_timeline_hash=expect.get("timeline_hash"),
        expect_chain_hash=expect.get("chain_hash"),
    )


def replay_repro(path: Union[str, Path]) -> FuzzResult:
    """Re-run a repro file and verify it reproduces exactly."""
    repro = load_repro(path)
    result = run_scenario(repro.config)
    if result.failure != repro.expect_failure:
        raise ReplayMismatch(
            f"{path}: expected failure {repro.expect_failure!r}, "
            f"got {result.failure!r} ({result.report.describe()})"
        )
    fp = result.fingerprint
    for name in _COMPONENTS:
        want = getattr(repro, f"expect_{name}")
        if want is not None and getattr(fp, name, None) != want:
            raise ReplayMismatch(
                f"{path}: {name} drift — expected {want[:16]}…, "
                f"got {str(getattr(fp, name, None))[:16]}…"
            )
    if repro.expect_digest is not None:
        got = fp.digest() if fp is not None else None
        if got != repro.expect_digest:
            held = [n for n in _COMPONENTS if getattr(repro, f"expect_{n}")]
            raise ReplayMismatch(
                f"{path}: fingerprint drift — expected {repro.expect_digest[:16]}…, "
                f"got {str(got)[:16]}…"
                + (f" ({' and '.join(held)} unchanged)" if held else "")
            )
    return result


def corpus_paths(directory: Union[str, Path]) -> list[Path]:
    """All repro files in a corpus directory, sorted for determinism."""
    return sorted(Path(directory).glob("*.json"))


__all__ = [
    "FORMAT",
    "ReplayMismatch",
    "ReproFile",
    "make_repro",
    "save_repro",
    "load_repro",
    "replay_repro",
    "corpus_paths",
]
