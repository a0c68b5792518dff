"""Command-line entry points.

Examples::

    oneshot-repro run --protocol oneshot --f 4 --deployment eu
    oneshot-repro shard run --k 4 --cross 100
    oneshot-repro timeline --protocol damysus --views 3 5
    oneshot-repro paper --workers 2
    oneshot-repro paper --f 1 2 4 10 20 30
    oneshot-repro fuzz run --seeds 200
    oneshot-repro fuzz replay tests/fuzz/corpus/*.json
    oneshot-repro fuzz shrink fuzz-findings/seed10-liveness.json
    oneshot-repro lint --format json

Every paper table comes from ``paper``; for custom seeds and block
counts call its Python functions (``run_fig7``, ``run_degraded``, ...).
A configuration no run can honour exits 2 with ``error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .experiments import DEPLOYMENTS, ConfigError, ExperimentConfig, run_experiment
from .experiments.config import WORKLOADS
from .experiments.paper import REDUCED_F, render_report, render_timing, run_paper
from .protocols.registry import REGISTRY


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        protocol=args.protocol,
        f=args.f,
        payload_bytes=args.payload,
        deployment=args.deployment,
        target_blocks=args.blocks,
        seed=args.seed,
        workload=args.workload,
        offered_tps=args.offered_tps,
        virtual_clients=args.clients,
        workload_regions=args.regions,
    )
    result = run_experiment(cfg)
    print(cfg.describe())
    print(result.stats)
    if result.engine is not None:
        print(
            f"offered load: {result.engine.txs_offered:,} txs from "
            f"{result.engine.virtual_clients:,} virtual clients "
            f"({result.engine.observed_rate_tps():,.0f} tx/s)"
        )
    return 0


def _shard_config(args: argparse.Namespace, k: int) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=args.protocol,
        f=args.f,
        deployment=args.deployment,
        local_latency_s=args.latency,
        max_sim_time=args.time,
        seed=args.seed,
        workload="open",
        offered_tps=args.offered_tps,
        virtual_clients=args.clients,
        shards=k,
        cross_shard_permille=args.cross,
        hot_key_permille=args.hot,
        shard_epoch_s=args.epoch,
        shard_slots=args.slots,
    )


def _cmd_shard(args: argparse.Namespace) -> int:
    from .experiments import render_shard, run_shard_scaling, run_sharded

    if args.shard_command == "run":
        run = run_sharded(_shard_config(args, args.k))
        print(run.describe())
        for m in run.pump.migrations:
            print(
                f"  epoch {m.epoch} @ {m.at_time:.2f}s: moved "
                f"{len(m.moved_slots)} slots, imbalance "
                f"{m.imbalance_before:.2f} -> {m.imbalance_after:.2f}"
            )
        print(f"fingerprint: {run.fingerprint.digest()}")
        return 0 if run.atomicity.ok else 1
    # sweep
    scaling = run_shard_scaling(
        ks=tuple(args.k), config=_shard_config(args, 1)
    )
    print(render_shard(scaling))
    print(f"scaling k={min(scaling.runs)} -> k={max(scaling.runs)}: "
          f"{scaling.scaling_x():.2f}x")
    bad = [k for k, r in scaling.runs.items() if not r.atomicity.ok]
    return 0 if not bad else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .metrics import CLASSIFIERS, extract_waves, render_timeline

    first, last = args.views
    if not 0 <= first <= last:
        raise ConfigError(f"--views needs 0 <= FIRST <= LAST, got {first} {last}")
    # No protocol executes its (LAST+2)-th block before the event that
    # takes it into view LAST+2: every wave of the window has been sent.
    run = run_experiment(
        ExperimentConfig(
            protocol=args.protocol,
            f=1,
            deployment="local",
            local_latency_s=0.005,
            target_blocks=last + 2,
            warmup_blocks=0,
            max_sim_time=60.0,
            seed=args.seed,
        ),
        enable_message_log=True,
    )
    waves = extract_waves(
        run.network.message_log,
        CLASSIFIERS[args.protocol],
        first_view=first,
        last_view=last,
    )
    print(render_timeline(waves, title=f"{args.protocol} views {first}-{last}:"))
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    """Every paper table, its checks, then seconds per section.

    Everything above the timing block is byte-identical for any
    ``--workers`` value; exit 1 if any section's check fails.
    """
    results, total_s = run_paper(tuple(args.f), workers=args.workers)
    print(render_report(results))
    print()
    print(render_timing(results, total_s))
    return 1 if any(r.violations for r in results) else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Adversarial scenario fuzzing (docs/fuzzing.md).

    ``fuzz run`` — generate and execute ``--seeds`` scenarios from
    ``--start-seed``, judging each with the safety and liveness
    oracles; failing seeds are shrunk to minimized counterexamples and
    written as repro files into ``--out``.  Exit 0 = all clean,
    1 = findings written.

    ``fuzz replay FILE...`` — re-run saved repro files and verify each
    reproduces its recorded failure kind and fingerprint digest
    byte-identically.  Exit 0 = all reproduce, 1 = drift.

    ``fuzz shrink FILE`` — re-minimize a repro file in place (or to
    ``--out-file``).
    """
    from pathlib import Path

    from .fuzz import (
        FuzzConfig,
        generate_scenario,
        load_repro,
        replay_repro,
        run_scenario,
        save_repro,
        shrink,
        ReplayMismatch,
    )

    if args.fuzz_command == "run":
        cfg = FuzzConfig(
            protocols=tuple(args.protocols),
            max_f=args.max_f,
        )
        out_dir = Path(args.out)
        findings = 0
        for seed in range(args.start_seed, args.start_seed + args.seeds):
            config = generate_scenario(seed, cfg)
            if args.no_view_sync:
                config = dataclasses.replace(config, view_sync=False)
            result = run_scenario(config)
            if result.ok:
                if args.verbose:
                    print(f"seed {seed}: ok ({config.describe()})")
                continue
            findings += 1
            print(f"seed {seed}: {result.report.describe()}")
            print(f"  scenario: {config.describe()}")
            outcome = shrink(config, failing=result, max_runs=args.shrink_runs)
            path = save_repro(
                out_dir / f"seed{seed}-{outcome.result.failure}.json",
                outcome.result,
                note=(
                    f"found by `fuzz run` seed {seed}; shrunk in "
                    f"{outcome.runs} runs"
                ),
            )
            print(
                f"  minimized ({outcome.runs} shrink runs): "
                f"{outcome.config.describe()}"
            )
            print(f"  repro written: {path}")
        print(
            f"{args.seeds} scenario(s) from seed {args.start_seed}: "
            f"{findings} finding(s)"
        )
        return 1 if findings else 0

    if args.fuzz_command == "replay":
        failed = 0
        for name in args.files:
            try:
                result = replay_repro(name)
            except ReplayMismatch as exc:
                failed += 1
                print(f"MISMATCH {exc}")
                continue
            print(f"ok {name}: {result.report.describe()}")
        return 1 if failed else 0

    # shrink
    repro = load_repro(args.file)
    outcome = shrink(repro.config, max_runs=args.shrink_runs)
    out_path = Path(args.out_file) if args.out_file else Path(args.file)
    save_repro(
        out_path,
        outcome.result,
        note=f"re-minimized from {args.file} in {outcome.runs} runs",
    )
    print(f"minimized ({outcome.runs} runs): {outcome.config.describe()}")
    print(f"written: {out_path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static invariant gate (docs/invariants.md).

    Exit code contract: 0 = clean (a finding counts only without an
    inline ``lint-ignore`` on its line), 1 = violations found, 2 = the
    ``--root`` given is not a directory.
    """
    from pathlib import Path

    from .analysis import default_rules, lint_package

    if args.rules:
        for rule in default_rules():
            print(f"{rule.name:20s} {rule.description}  [{rule.paper_ref}]")
        return 0
    if args.root and not Path(args.root).is_dir():
        print(f"error: --root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    report = lint_package(root=Path(args.root) if args.root else None)
    print(report.to_json() if args.format == "json" else report.render_text())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    # ``exit_on_error=False`` along the ``fuzz run`` path: a bad option
    # value there (``--protocols nope``) reaches ``main`` as an
    # ArgumentError and exits 2 with one ``error:`` line.
    parser = argparse.ArgumentParser(
        prog="oneshot-repro",
        description="OneShot (IPPS 2024) reproduction harness",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single protocol run")
    p.add_argument("--protocol", default="oneshot", choices=list(REGISTRY))
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--payload", type=int, default=0, choices=[0, 256])
    p.add_argument(
        "--workload",
        default="saturated",
        choices=list(WORKLOADS),
        help="load model: closed-loop saturated sources (paper default) "
        "or the aggregated open-loop engine (repro.workload)",
    )
    p.add_argument(
        "--offered-tps",
        type=float,
        default=10_000.0,
        help="aggregate offered load in open mode (tx/s)",
    )
    p.add_argument(
        "--clients",
        type=int,
        default=100_000,
        help="virtual open-loop client population in open mode",
    )
    p.add_argument(
        "--regions",
        type=int,
        default=1,
        help="regions the open-mode population is split across",
    )
    p.add_argument("--deployment", default="eu", choices=list(DEPLOYMENTS))
    p.add_argument("--blocks", type=int, default=20, help="decided blocks per run")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "shard", help="sharded consensus: routed keyspace, 2PC, rebalancing"
    )
    shard_sub = p.add_subparsers(dest="shard_command", required=True)

    def _shard_args(ps: argparse.ArgumentParser) -> None:
        ps.add_argument("--protocol", default="oneshot", choices=list(REGISTRY))
        ps.add_argument("--f", type=int, default=1)
        ps.add_argument("--deployment", default="local", choices=list(DEPLOYMENTS))
        ps.add_argument(
            "--latency",
            type=float,
            default=0.002,
            help="per-hop latency in the local deployment (s)",
        )
        ps.add_argument(
            "--time", type=float, default=4.0, help="simulated seconds"
        )
        ps.add_argument("--seed", type=int, default=7)
        ps.add_argument(
            "--offered-tps",
            type=float,
            default=2_000.0,
            help="offered load per shard-sweep base (tx/s)",
        )
        ps.add_argument("--clients", type=int, default=10_000)
        ps.add_argument(
            "--cross",
            type=int,
            default=100,
            help="cross-shard transactions, permille",
        )
        ps.add_argument(
            "--hot",
            type=int,
            default=0,
            help="clients collapsed onto one hot key, permille",
        )
        ps.add_argument(
            "--epoch",
            type=float,
            default=0.0,
            help="routing epoch length (s); 0 disables rebalancing",
        )
        ps.add_argument("--slots", type=int, default=64)

    ps = shard_sub.add_parser("run", help="one sharded run")
    _shard_args(ps)
    ps.add_argument("--k", type=int, default=2, help="shard count")
    ps.set_defaults(func=_cmd_shard)

    ps = shard_sub.add_parser("sweep", help="weak-scaling shard sweep")
    _shard_args(ps)
    ps.add_argument("--k", type=int, nargs="+", default=[1, 2, 4, 8])
    ps.set_defaults(func=_cmd_shard)

    p = sub.add_parser("timeline", help="message-flow timeline of a run")
    p.add_argument("--protocol", default="oneshot", choices=list(REGISTRY))
    p.add_argument("--views", type=int, nargs=2, default=[2, 4], metavar=("FIRST", "LAST"))
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "paper", help="every paper table and its checks, on a worker pool"
    )
    p.add_argument(
        "--f",
        type=int,
        nargs="+",
        default=list(REDUCED_F),
        help="Fig. 7 fault thresholds (the paper's: 1 2 4 10 20 30)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool size (0 = one per CPU, 1 = sequential)",
    )
    p.set_defaults(func=_cmd_paper)

    p = sub.add_parser(
        "fuzz",
        help="adversarial scenario fuzzing with safety/liveness oracles",
        exit_on_error=False,
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    pf = fuzz_sub.add_parser(
        "run", help="generate + run N seeded scenarios", exit_on_error=False
    )
    pf.add_argument("--seeds", type=int, default=100, help="scenario count")
    pf.add_argument("--start-seed", type=int, default=0, help="first seed")
    pf.add_argument(
        "--protocols",
        nargs="+",
        default=["oneshot", "damysus", "hotstuff"],
        choices=list(REGISTRY),
        help="protocols to draw scenarios from",
    )
    pf.add_argument("--max-f", type=int, default=2, help="largest f to draw")
    pf.add_argument(
        "--out",
        default="fuzz-findings",
        help="directory for minimized repro files of failing seeds",
    )
    pf.add_argument(
        "--shrink-runs",
        type=int,
        default=200,
        help="shrinking budget (scenario executions) per finding",
    )
    pf.add_argument("--verbose", action="store_true", help="print passing seeds too")
    pf.add_argument(
        "--no-view-sync",
        action="store_true",
        help="run scenarios with the historical pacemaker (no view "
        "synchronizer) — reproduces the HotStuff view-split livelock",
    )
    pf.set_defaults(func=_cmd_fuzz)

    pf = fuzz_sub.add_parser(
        "replay", help="re-run repro files, verify recorded outcome + digest"
    )
    pf.add_argument("files", nargs="+", help="repro JSON files")
    pf.set_defaults(func=_cmd_fuzz)

    pf = fuzz_sub.add_parser("shrink", help="re-minimize a repro file")
    pf.add_argument("file", help="repro JSON file")
    pf.add_argument(
        "--out-file", default=None, help="write minimized repro here (default: in place)"
    )
    pf.add_argument(
        "--shrink-runs", type=int, default=200, help="shrinking budget"
    )
    pf.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("lint", help="static invariant checks (docs/invariants.md)")
    p.add_argument("--root", default=None, help="package dir to lint (default: repro)")
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output style: human text or JSON",
    )
    p.add_argument("--rules", action="store_true", help="list rules and exit")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["build_parser", "main"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
