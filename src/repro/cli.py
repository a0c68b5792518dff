"""Command-line entry points.

Examples::

    oneshot-repro run --protocol oneshot --f 4 --deployment eu
    oneshot-repro fig7 --deployment eu --f 1 2 4 --blocks 20
    oneshot-repro gains --deployment us
    oneshot-repro steps
    oneshot-repro degraded
    oneshot-repro complexity
    oneshot-repro ablations
    oneshot-repro parallel --k 1 2 4
    oneshot-repro timeline --protocol damysus --views 3 5
    oneshot-repro paper --workers 2
    oneshot-repro fuzz run --seeds 200
    oneshot-repro fuzz replay tests/fuzz/corpus/*.json
    oneshot-repro fuzz shrink fuzz-findings/seed10-liveness.json
    oneshot-repro lint --format json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .experiments import (
    ExperimentConfig,
    compute_gains,
    render_ablations,
    render_complexity,
    render_degraded,
    render_fig7,
    render_gains,
    render_parallel,
    render_steps_table,
    run_all_ablations,
    run_complexity,
    run_degraded,
    run_experiment,
    run_fig7,
    run_parallel_scaling,
    steps_table,
)
from .experiments.complexity import check_complexity
from .experiments.fig7 import PAPER_F_VALUES
from .experiments.paper import REDUCED_F, render_report, render_timing, run_paper
from .protocols.registry import REGISTRY


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deployment", default="eu", choices=["eu", "us", "world", "local"])
    p.add_argument("--blocks", type=int, default=20, help="decided blocks per run")
    p.add_argument("--seed", type=int, default=7)


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
        streaming_metrics=args.streaming_metrics,
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


def _cmd_fig7(args: argparse.Namespace) -> int:
    """``fig7`` prints the panel, ``gains`` its Sec. VIII gain tables."""
    res = run_fig7(
        args.deployment,
        f_values=tuple(args.f),
        target_blocks=args.blocks,
        seed=args.seed,
    )
    if args.command == "fig7":
        print(render_fig7(res))
    else:
        print(render_gains(compute_gains(res)))
    return 0


def _cmd_steps(args: argparse.Namespace) -> int:
    print(render_steps_table(steps_table(seed=args.seed)))
    return 0


def _cmd_degraded(args: argparse.Namespace) -> int:
    print(render_degraded(run_degraded(target_blocks=args.blocks, seed=args.seed)))
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    result = run_complexity(f_values=tuple(args.f), seed=args.seed)
    print(render_complexity(result))
    problems = check_complexity(result)
    print(f"complexity violations: {problems or 'none'}")
    return 0 if not problems else 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    print(render_ablations(run_all_ablations(target_blocks=args.blocks)))
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    scaling = run_parallel_scaling(ks=tuple(args.k), seed=args.seed)
    print(render_parallel(scaling))
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
    from .net import Network
    from .protocols.common import ProtocolConfig, build_cluster
    from .protocols.registry import get_protocol
    from .experiments.deployments import latency_model_for
    from .sim import Simulator

    info = get_protocol(args.protocol)
    sim = Simulator(seed=args.seed)
    network = Network(sim, latency=latency_model_for("local", 0.005))
    network.enable_log()
    cluster = build_cluster(
        info.replica_cls, sim, network, ProtocolConfig(n=info.n_for(1), f=1)
    )
    cluster.start()
    # No protocol executes its (LAST+2)-th block before the event that
    # takes it into view LAST+2: every wave of the window has been sent.
    cluster.replicas[0].log.when_length(args.views[1] + 2, sim.stop)
    sim.run(until=60.0)
    cluster.stop()
    waves = extract_waves(
        network.message_log,
        CLASSIFIERS[args.protocol],
        first_view=args.views[0],
        last_view=args.views[1],
    )
    print(
        render_timeline(
            waves, title=f"{args.protocol} views {args.views[0]}-{args.views[1]}:"
        )
    )
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
            scenario = generate_scenario(seed, cfg)
            if args.no_view_sync:
                scenario = dataclasses.replace(scenario, view_sync=False)
            result = run_scenario(scenario)
            if result.ok:
                if args.verbose:
                    print(f"seed {seed}: ok ({scenario.describe()})")
                continue
            findings += 1
            print(f"seed {seed}: {result.report.describe()}")
            print(f"  scenario: {scenario.describe()}")
            outcome = shrink(scenario, failing=result, max_runs=args.shrink_runs)
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
                f"{outcome.scenario.describe()}"
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
    outcome = shrink(repro.scenario, max_runs=args.shrink_runs)
    out_path = Path(args.out_file) if args.out_file else Path(args.file)
    save_repro(
        out_path,
        outcome.result,
        note=f"re-minimized from {args.file} in {outcome.runs} runs",
    )
    print(f"minimized ({outcome.runs} runs): {outcome.scenario.describe()}")
    print(f"written: {out_path}")
    return 0


def _changed_module_paths(ref: str, root: "Path") -> Optional[set[str]]:
    """Module paths (``repro/...`` form) differing from git ``ref``.

    Combines ``git diff --name-only <ref>`` with untracked files, maps
    repo-relative paths onto the lint root's coordinate system, and
    returns None (with a message) if git is unavailable or ``ref`` does
    not resolve.
    """
    import subprocess
    from pathlib import Path

    def _git(*argv: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *argv],
                capture_output=True,
                text=True,
                cwd=str(root),
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    toplevel = _git("rev-parse", "--show-toplevel")
    if toplevel is None:
        print("error: --changed-only requires a git checkout", file=sys.stderr)
        return None
    repo = Path(toplevel.strip())
    diff = _git("diff", "--name-only", ref, "--", "*.py")
    if diff is None:
        print(
            f"error: --changed-only ref {ref!r} did not resolve", file=sys.stderr
        )
        return None
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", "*.py")
    names = set(diff.split()) | set((untracked or "").split())
    # Lint paths are relative to the lint root's *parent* (e.g.
    # ``src/repro/sim/rng.py`` reports as ``repro/sim/rng.py``).
    base = root.resolve().parent
    out: set[str] = set()
    for name in names:
        p = (repo / name).resolve()
        try:
            out.add(p.relative_to(base).as_posix())
        except ValueError:
            continue  # changed file outside the lint root
    return out


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static invariant gate (docs/invariants.md).

    Exit code contract: 0 = clean (no findings outside the curated
    suppression list in pyproject.toml), 1 = violations found,
    2 = bad invocation (nonexistent --root / --pyproject, or a
    --changed-only ref that does not resolve).
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
    if args.pyproject and not Path(args.pyproject).is_file():
        print(
            f"error: --pyproject {args.pyproject!r} does not exist", file=sys.stderr
        )
        return 2
    if args.root:
        root = Path(args.root)
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    only_paths: Optional[set[str]] = None
    if args.changed_only is not None:
        only_paths = _changed_module_paths(args.changed_only, root)
        if only_paths is None:
            return 2
        if not only_paths:
            print("0 finding(s): no modules changed vs "
                  f"{args.changed_only}")
            return 0
    report = lint_package(
        root=root,
        pyproject=Path(args.pyproject) if args.pyproject else None,
        ignore_suppressions=args.no_suppressions,
        only_paths=only_paths,
    )
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    elif args.format == "github":
        out = report.render_github()
        if out:
            print(out)
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshot-repro",
        description="OneShot (IPPS 2024) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single protocol run")
    p.add_argument("--protocol", default="oneshot", choices=list(REGISTRY))
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--payload", type=int, default=0, choices=[0, 256])
    p.add_argument(
        "--workload",
        default="saturated",
        choices=["saturated", "open"],
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
    p.add_argument(
        "--streaming-metrics",
        action="store_true",
        help="O(1)-memory streaming collector (P² quantile estimates)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    for name, text in (
        ("fig7", "Fig. 7 panel for one deployment"),
        ("gains", "Sec. VIII gain tables"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--f", type=int, nargs="+", default=list(PAPER_F_VALUES))
        _add_common(p)
        p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("steps", help="Sec. V execution-type table")
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_steps)

    p = sub.add_parser("degraded", help="Sec. VIII-d degraded network")
    p.add_argument("--blocks", type=int, default=30)
    p.add_argument("--seed", type=int, default=17)
    p.set_defaults(func=_cmd_degraded)

    p = sub.add_parser("complexity", help="message complexity vs cluster size")
    p.add_argument("--f", type=int, nargs="+", default=[1, 2, 4, 10])
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("ablations", help="Sec. VI-F optimization ablations")
    p.add_argument("--blocks", type=int, default=24)
    p.set_defaults(func=_cmd_ablations)

    p = sub.add_parser("parallel", help="multi-instance scaling")
    p.add_argument("--k", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--seed", type=int, default=9)
    p.set_defaults(func=_cmd_parallel)

    p = sub.add_parser(
        "shard", help="sharded consensus: routed keyspace, 2PC, rebalancing"
    )
    shard_sub = p.add_subparsers(dest="shard_command", required=True)

    def _shard_args(ps: argparse.ArgumentParser) -> None:
        ps.add_argument("--protocol", default="oneshot", choices=list(REGISTRY))
        ps.add_argument("--f", type=int, default=1)
        ps.add_argument(
            "--deployment",
            default="local",
            choices=["eu", "us", "world", "local"],
        )
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
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    pf = fuzz_sub.add_parser("run", help="generate + run N seeded scenarios")
    pf.add_argument("--seeds", type=int, default=100, help="scenario count")
    pf.add_argument("--start-seed", type=int, default=0, help="first seed")
    pf.add_argument(
        "--protocols",
        nargs="+",
        default=["oneshot", "damysus", "hotstuff"],
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
    p.add_argument("--pyproject", default=None, help="pyproject.toml with suppressions")
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif", "github"],
        help="output style: human text, JSON, SARIF 2.1.0, or "
        "GitHub-Actions ::error annotations",
    )
    p.add_argument(
        "--no-suppressions",
        action="store_true",
        help="ignore the curated suppression list",
    )
    p.add_argument(
        "--changed-only",
        metavar="REF",
        default=None,
        help="report findings only for modules differing from git REF "
        "(analysis still covers the whole tree)",
    )
    p.add_argument("--rules", action="store_true", help="list rules and exit")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


__all__ = ["build_parser", "main"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
