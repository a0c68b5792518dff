"""Committed regression corpus: every repro file must replay exactly,
plus the repro-file format contract."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.fuzz import (
    FORMAT,
    ReplayMismatch,
    corpus_paths,
    generate_scenario,
    load_repro,
    make_repro,
    replay_repro,
    run_scenario,
    save_repro,
)
from repro.faults import Fault

CORPUS_DIR = Path(__file__).parent / "corpus"


def test_corpus_is_committed():
    assert len(corpus_paths(CORPUS_DIR)) >= 5


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
)
def test_corpus_replays_exactly(path, tmp_path):
    result = replay_repro(path)
    repro = load_repro(path)
    assert result.failure == repro.expect_failure
    assert result.report.blocks_decided == repro.expect_blocks
    # Load -> save -> load: the one format written is the one committed.
    copy = save_repro(tmp_path / path.name, result, note=repro.note)
    assert copy.read_text() == path.read_text()
    assert load_repro(copy) == repro


def test_corpus_pins_behavioural_components():
    """Every entry that replays to a ``RunFingerprint`` carries its
    timeline and chain hashes, so a digest re-pin (the digest folds the
    event count) can be shown to leave behaviour untouched.  The
    sharded entry's joint fingerprint has no such components."""
    for path in corpus_paths(CORPUS_DIR):
        repro = load_repro(path)
        pinned = (repro.expect_timeline_hash, repro.expect_chain_hash)
        if repro.config.shards > 1:
            assert pinned == (None, None)
        else:
            assert all(pinned), path.stem


def test_corpus_covers_all_protocols_and_the_fixed_livelock():
    repros = {p.stem: load_repro(p) for p in corpus_paths(CORPUS_DIR)}
    assert {r.config.protocol for r in repros.values()} == {
        "oneshot",
        "damysus",
        "hotstuff",
    }
    # The genuine finding is fixed: the view synchronizer recovers the
    # split cluster, so the livelock entry now pins the recovery
    # (docs/fuzzing.md).  The historical failure stays reachable via
    # view_sync=False — see test_livelock_reproduces_without_view_sync.
    fixed = repros["hotstuff-view-split-liveness"]
    assert fixed.expect_failure is None
    assert fixed.config.view_sync


def test_livelock_reproduces_without_view_sync():
    """Regression pin for the historical pacemaker: the same scenario
    with the synchronizer off still livelocks (the gossip is what
    fixed it, not an unrelated timing change)."""
    import dataclasses

    repro = load_repro(CORPUS_DIR / "hotstuff-view-split-liveness.json")
    legacy = dataclasses.replace(repro.config, view_sync=False)
    result = run_scenario(legacy)
    assert result.failure == "liveness"


def test_round_trip_and_format_check(tmp_path):
    result = run_scenario(generate_scenario(203))
    path = save_repro(tmp_path / "x.json", result, note="round trip")
    repro = load_repro(path)
    assert repro.config == result.config
    assert repro.expect_failure is None
    assert repro.expect_digest == result.fingerprint.digest()
    assert repro.expect_timeline_hash == result.fingerprint.timeline_hash
    assert repro.expect_chain_hash == result.fingerprint.chain_hash
    assert repro.note == "round trip"

    data = json.loads(path.read_text())
    assert data["format"] == FORMAT
    data["format"] = "repro.fuzz/999"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unknown repro format"):
        load_repro(path)


def _strict(text: str):
    """``json.loads`` that rejects ``Infinity`` / ``NaN``, as strict
    JSON parsers do."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_corpus_is_strict_json():
    for path in corpus_paths(CORPUS_DIR):
        _strict(path.read_text())


def test_open_ended_fault_round_trips_as_strict_json(tmp_path):
    config = dataclasses.replace(
        generate_scenario(203), faults=(Fault(1, "crashed"),)
    )
    assert config.faults[0].end == math.inf
    path = save_repro(tmp_path / "x.json", run_scenario(config))
    assert _strict(path.read_text())["config"]["faults"][0]["end"] == "inf"
    assert load_repro(path).config == config


def test_replay_mismatch_on_drift(tmp_path):
    result = run_scenario(generate_scenario(203))
    path = save_repro(tmp_path / "x.json", result)
    data = json.loads(path.read_text())
    data["expect"]["digest"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(ReplayMismatch, match="fingerprint drift"):
        replay_repro(path)

    data["expect"]["digest"] = result.fingerprint.digest()
    data["expect"]["failure"] = "safety"
    path.write_text(json.dumps(data))
    with pytest.raises(ReplayMismatch, match="expected failure"):
        replay_repro(path)


def test_replay_mismatch_names_the_drifting_component(tmp_path):
    """Behavioural components are checked before the composite digest,
    and a digest-only drift says that they held."""
    result = run_scenario(generate_scenario(203))
    path = save_repro(tmp_path / "x.json", result)
    good = json.loads(path.read_text())

    for name in ("timeline_hash", "chain_hash"):
        data = json.loads(json.dumps(good))
        data["expect"][name] = "0" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(ReplayMismatch, match=f"{name} drift"):
            replay_repro(path)

    data = json.loads(json.dumps(good))
    data["expect"]["digest"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(
        ReplayMismatch,
        match="fingerprint drift.*timeline_hash and chain_hash unchanged",
    ):
        replay_repro(path)

    # The keys are optional: a file without them still replays.
    for name in ("timeline_hash", "chain_hash"):
        del good["expect"][name]
    path.write_text(json.dumps(good))
    assert replay_repro(path).failure is None
