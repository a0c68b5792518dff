"""Committed regression corpus: every repro file must replay exactly,
plus the repro-file format contract."""

import dataclasses
import json
import math
import re
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
    """Every entry records its fingerprint's components by name, so a
    drift names the component that moved: each group's chain and state,
    the decided chain, and the timeline for one-group runs (sharded
    fuzz runs keep no message log), the routing table and the 2PC
    decision log for the sharded entry."""
    for path in corpus_paths(CORPUS_DIR):
        repro = load_repro(path)
        names = set(repro.expect_components)
        k = repro.config.shards
        for g in range(k):
            assert {f"log_digest[{g}]", f"state_digest[{g}]"} <= names, path.stem
        assert {"chain_hash", "decisions", "sim_now"} <= names, path.stem
        if k > 1:
            assert {"table_digest[0]", "coordinator_log"} <= names, path.stem
        else:
            assert "timeline_hash" in names, path.stem


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
    assert repro.expect_components == result.fingerprint.components
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
    """Recorded components are checked by name before the digest, and a
    digest-only drift says that they held and which were not recorded."""
    result = run_scenario(generate_scenario(203))
    path = save_repro(tmp_path / "x.json", result)
    good = json.loads(path.read_text())

    for name, wrong in (
        ("timeline_hash", "0" * 64),
        ("chain_hash", "0" * 64),
        ("log_digest[0]", "0" * 64),
        ("messages_sent[0]", -1),
    ):
        data = json.loads(json.dumps(good))
        data["expect"]["components"][name] = wrong
        path.write_text(json.dumps(data))
        with pytest.raises(ReplayMismatch, match=re.escape(f"{name} drift")):
            replay_repro(path)

    data = json.loads(json.dumps(good))
    data["expect"]["digest"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(
        ReplayMismatch,
        match="fingerprint drift.*recorded components unchanged; not recorded: none",
    ):
        replay_repro(path)
    del data["expect"]["components"]["sim_now"]
    path.write_text(json.dumps(data))
    with pytest.raises(ReplayMismatch, match="not recorded: sim_now"):
        replay_repro(path)

    # The components are optional: a file without them still replays.
    del good["expect"]["components"]
    path.write_text(json.dumps(good))
    assert replay_repro(path).failure is None
