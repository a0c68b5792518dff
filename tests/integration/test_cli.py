"""Integration tests: the command-line interface."""

import argparse
import hashlib

import pytest

from repro.cli import build_parser, main
from repro.protocols.registry import REGISTRY


def _choices(parser: argparse.ArgumentParser) -> dict:
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_subcommand_set_is_pinned():
    """One way in per job: the paper's tables come only from ``paper``."""
    commands = _choices(build_parser())
    assert sorted(commands) == ["fuzz", "paper", "run", "shard", "timeline"]
    assert sorted(_choices(commands["shard"])) == ["run", "sweep"]
    assert sorted(_choices(commands["fuzz"])) == ["replay", "run", "shrink"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--blocks", "0"], "target_blocks"),
        (["run", "--blocks", "-2"], "target_blocks"),
        (["run", "--workload", "open", "--clients", "0"], "virtual_clients"),
        (["timeline", "--views", "4", "2"], "--views"),
        (["timeline", "--views", "-1", "2"], "--views"),
        (["shard", "run", "--k", "0"], "shards"),
        (["shard", "run", "--cross", "1500"], "cross_shard_permille"),
        (["shard", "run", "--slots", "0"], "shard_slots"),
        (["run", "--f", "-1"], "ExperimentConfig.f = -1"),
        (["shard", "run", "--latency", "-1"], "local_latency_s"),
        (["run", "--workload", "open", "--regions", "0"], "workload_regions"),
        (["shard", "run", "--epoch", "-1"], "shard_epoch_s"),
        (["fuzz", "run", "--protocols", "nope"], "--protocols"),
        (["fuzz", "run", "--max-f", "0"], "FuzzConfig.max_f = 0"),
    ],
)
def test_bad_input_exits_two_with_an_error_line(argv, field, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


def test_run_command(capsys):
    assert main(["run", "--protocol", "oneshot", "--f", "1", "--blocks", "5"]) == 0
    out = capsys.readouterr().out
    assert "oneshot f=1" in out
    assert "throughput" in out


def test_run_command_each_protocol(capsys):
    for protocol in ("oneshot", "damysus", "hotstuff"):
        assert main(["run", "--protocol", protocol, "--blocks", "4"]) == 0


def test_invalid_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "pbft"])


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
@pytest.mark.parametrize(
    "command", [["run"], ["shard", "run"], ["shard", "sweep"], ["timeline"]]
)
def test_every_registered_protocol_parses(command, protocol):
    args = build_parser().parse_args([*command, "--protocol", protocol])
    assert args.protocol == protocol


def test_invalid_payload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--payload", "128"])


def test_timeline_command(capsys):
    assert main(["timeline", "--protocol", "oneshot", "--views", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "proposal" in out and "view 2" in out


@pytest.mark.parametrize(
    "protocol, views, sha256",
    [
        ("oneshot", ("2", "4"),
         "a80f37b032926edc75ea76abb1c9b10fa242a880804aa7dcab806cc0b3591d2e"),
        ("hotstuff-chained", ("3", "3"),
         "7fb79061d1da4fb5dd1b10db2ad7cfcfc5fe938211b0a90f15057182b4e428eb"),
    ],
)
def test_timeline_output_is_pinned(protocol, views, sha256, capsys):
    assert main(["timeline", "--protocol", protocol, "--views", *views]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_timeline_command_chained(capsys):
    assert main(["timeline", "--protocol", "hotstuff-chained", "--views", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "vote-prepare" in out


def test_fuzz_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fuzz"])


def test_fuzz_run_command(capsys, tmp_path):
    assert (
        main(
            [
                "fuzz",
                "run",
                "--seeds",
                "3",
                "--start-seed",
                "200",
                "--out",
                str(tmp_path),
                "--verbose",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "3 scenario(s) from seed 200: 0 finding(s)" in out
    assert "seed 200: ok" in out
    assert not list(tmp_path.glob("*.json"))


def test_fuzz_run_writes_minimized_repro_on_finding(capsys, tmp_path):
    # Seed 10 is the historical HotStuff view-split livelock.  With the
    # view synchronizer disabled (--no-view-sync) the run must exit 1,
    # shrink the counterexample and serialize it.
    assert (
        main(
            [
                "fuzz",
                "run",
                "--seeds",
                "1",
                "--start-seed",
                "10",
                "--no-view-sync",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "seed 10: LIVENESS" in out
    assert "minimized" in out
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1 and files[0].name == "seed10-liveness.json"


def test_fuzz_run_seed10_clean_with_view_sync(capsys, tmp_path):
    # The same seed passes with the synchronizer on (the default): the
    # highest-view gossip reunites the split cohorts.
    assert (
        main(
            ["fuzz", "run", "--seeds", "1", "--start-seed", "10", "--out", str(tmp_path)]
        )
        == 0
    )
    assert not list(tmp_path.glob("*.json"))


def test_fuzz_replay_command(capsys):
    from pathlib import Path

    corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
    target = corpus / "fault-free-clean.json"
    assert main(["fuzz", "replay", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"ok {target}" in out


def test_fuzz_replay_flags_drift(capsys, tmp_path):
    import json
    from pathlib import Path

    corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
    data = json.loads((corpus / "fault-free-clean.json").read_text())
    data["expect"]["digest"] = "0" * 64
    bad = tmp_path / "drifted.json"
    bad.write_text(json.dumps(data))
    assert main(["fuzz", "replay", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


def test_fuzz_shrink_command(capsys, tmp_path):
    import json
    from pathlib import Path

    # The committed livelock entry now passes (view synchronizer); turn
    # the synchronizer off in a copy to get a genuinely failing repro.
    corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
    data = json.loads((corpus / "hotstuff-view-split-liveness.json").read_text())
    data["config"]["view_sync"] = False
    src = tmp_path / "livelock.json"
    src.write_text(json.dumps(data))
    out_file = tmp_path / "minimized.json"
    assert (
        main(
            [
                "fuzz",
                "shrink",
                str(src),
                "--out-file",
                str(out_file),
                "--shrink-runs",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "minimized" in out
    assert out_file.exists()


def test_shard_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["shard"])


def test_shard_run_command(capsys):
    assert (
        main(
            [
                "shard",
                "run",
                "--k",
                "2",
                "--cross",
                "150",
                "--time",
                "1.5",
                "--offered-tps",
                "1200",
                "--clients",
                "2000",
                "--slots",
                "16",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "k=2" in out
    assert "2PC" in out
    assert "atomicity ok" in out
    assert "fingerprint: " in out


def test_shard_sweep_command(capsys):
    assert (
        main(
            [
                "shard",
                "sweep",
                "--k",
                "1",
                "2",
                "--cross",
                "0",
                "--time",
                "1.5",
                "--offered-tps",
                "1200",
                "--clients",
                "2000",
                "--slots",
                "16",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "weak scaling" in out
    assert "scaling k=1 -> k=2" in out
    assert "VIOLATION" not in out
