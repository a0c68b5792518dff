"""Repro files: serialized counterexamples that replay byte-identically.

A repro file is a small JSON document:

.. code-block:: json

    {
      "format": "repro.fuzz/2",
      "note": "free-form provenance",
      "config": { ...repro.experiments.to_dict(ExperimentConfig)... },
      "expect": {
        "failure": "safety" | "crash" | "liveness" | null,
        "digest": "<Fingerprint.digest()> or null (crashed runs)",
        "components": { "<name>": <value>, ... } or null (crashed runs),
        "blocks_decided": 3
      }
    }

``expect`` records what the run did when the file was written; replay
re-runs the config and verifies the failure kind and, when the run
completed, its :func:`~repro.experiments.fingerprint`: every recorded
component by name (a mismatch names the component that drifted), then
the digest over them.  The digest folds behaviour only, never the
executed-event count (docs/invariants.md), so it moves only with a
component.  The committed regression corpus under ``tests/fuzz/corpus/``
is replayed in CI, so any drift in protocol, fault or network code that
changes these runs is caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..experiments.config import ExperimentConfig, from_dict, to_dict
from ..experiments.fingerprint import Component
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
    #: The fingerprint's components by name (None = not recorded).
    expect_components: Optional[dict[str, Component]] = None


def _show(value: object) -> str:
    text = str(value)
    return text if len(text) <= 16 else text[:16] + "…"


def make_repro(result: FuzzResult, note: str = "") -> dict:
    """The JSON document describing ``result``."""
    fp = result.fingerprint
    expect = {
        "failure": result.failure,
        "digest": fp.digest() if fp is not None else None,
        "components": fp.components if fp is not None else None,
        "blocks_decided": result.report.blocks_decided,
    }
    return {
        "format": FORMAT,
        "note": note,
        "config": to_dict(result.config),
        "expect": expect,
    }


def save_repro(path: Union[str, Path], result: FuzzResult, note: str = "") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(make_repro(result, note=note), indent=2, allow_nan=False)
    path.write_text(text + "\n")
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
        expect_components=expect.get("components"),
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
    got = fp.components if fp is not None else {}
    recorded = repro.expect_components or {}
    for name, want in recorded.items():
        if got.get(name) != want:
            raise ReplayMismatch(
                f"{path}: {name} drift — expected {_show(want)}, "
                f"got {_show(got.get(name))}"
            )
    if repro.expect_digest is not None:
        digest = fp.digest() if fp is not None else None
        if digest != repro.expect_digest:
            held = ""
            if recorded:
                extra = ", ".join(sorted(set(got) - set(recorded))) or "none"
                held = f" (recorded components unchanged; not recorded: {extra})"
            raise ReplayMismatch(
                f"{path}: fingerprint drift — expected "
                f"{_show(repro.expect_digest)}, got {_show(digest)}{held}"
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
