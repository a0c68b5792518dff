#!/usr/bin/env python3
"""The performance ledger: every workload, every metric, one command.

    python ledger/run.py --seed S [--workload W] [--passes N]
        Run every workload (or W), print each metric by name with its
        unit, bound and sample count, check outputs, append one record to
        ledger/history.jsonl and print that record as the last line.
        Exits non-zero if any operation failed a check.

    python ledger/run.py --check-repeat [--seed S]
        Run everything twice and fail unless the two agree within the
        benchmark's own bounds.

    python ledger/run.py --workload W --seed S --seconds T --trace 0|1
        One workload for the benchmark driver: the last line is one JSON
        object with the end-to-end metrics (--trace 0) or the per-layer
        metrics (--trace 1).

Workloads run one at a time, each in fresh processes (``worker.py``).
Metric names, units, directions and bounds are declared once, in
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"

#: Fresh processes that each measure set-up; ``setup_s`` is their median.
SETUPS = 3
#: What one timed pass takes on the machine the sizes were chosen on;
#: ``--seconds`` buys one pass per this many seconds.
NOMINAL_PASS_S = 3
MIN_PASSES = 3
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170

#: End-to-end metrics that are wall-clock or memory measurements; the
#: others are simulated results and repeat exactly for a given seed.
TIMED = ("wall_s", "committed_tx_per_wall_s", "setup_s", "peak_rss_mb")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


# -- processes ---------------------------------------------------------------

def spawn(mode: str, workload: str, seed: int, *, passes: int = 0,
          small: bool = False) -> dict:
    """Run one worker to completion and return what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # No bytecode cache: every set-up compiles the sources, whatever an
    # earlier run left behind, and the checkout stays as it was.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--spawned", repr(time.time())]
    if small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload}: {mode} worker exceeded "
                           f"{WORKER_TIMEOUT_S} s and was killed") from None
    if done.returncode != 0:
        raise HarnessError(f"{workload}: {mode} worker exited "
                           f"{done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def calibrate() -> float:
    """``host.calibration``: a fixed pure-Python + hashlib spin loop, in
    loops/s, median of five.  Divides machine speed out of a trajectory."""
    def spin() -> float:
        start = time.perf_counter()
        acc = b"ledger"
        total = 0
        for i in range(60_000):
            acc = hashlib.sha256(acc).digest()
            total += acc[0] * i % 7
        return 60_000 / (time.perf_counter() - start)

    return statistics.median(spin() for _ in range(5))


# -- statistics ---------------------------------------------------------------

def stat(values: list) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def ratio(a, b):
    """``a / b``; None when either is unknown, 0 when there is no ``b``
    (a workload with no blocks, views, scenarios or open-loop source)."""
    if a is None or b is None:
        return None
    return a / b if b else 0.0


# -- one workload ---------------------------------------------------------------

def measure_workload(workload: str, seed: int, *, passes: int,
                     small: bool) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    main = spawn("measure", workload, seed, passes=passes, small=small)
    setups = [main] + [spawn("setup", workload, seed, small=small)
                       for _ in range(SETUPS - 1)]
    runs = main["passes"]
    first = runs[0]
    ops = sum(p["ops"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    # The cold pass and timed pass 0 share a seed, in this process and in
    # every fresh set-up process: anything but an identical replay marks
    # every operation of the workload failed.
    if not main["replay_ok"] or any(s["cold_digest"] != first["digest"]
                                    for s in setups):
        failed = ops
        failures.insert(0, "non-deterministic replay: cold pass and timed "
                           "pass 0 differ at the same seed")
    return {
        "metrics": {
            "wall_s": stat([p["wall_s"] for p in runs]),
            "committed_tx_per_wall_s": stat([p["tx"] / p["wall_s"] for p in runs]),
            "setup_s": stat([s["setup_s"] for s in setups]),
            "peak_rss_mb": stat([main["peak_rss_mb"]]),
            "sim_tps": stat([first["tx"] / first["sim_s"]]),
            "sim_latency_ms": stat([first["latency_tx_s"] / first["tx"] * 1e3]),
        },
        "attempted": ops,
        "failed": failed,
        "failures": failures[:10],
        "sim_digest": first["digest"],
    }


def trace_workload(workload: str, seed: int, calibration: float, *,
                   small: bool) -> dict:
    """The per-layer metrics of one workload, from a traced pass in its
    own process; also writes ``out/<workload>.trace.json``."""
    t = spawn("trace", workload, seed, small=small)
    ref = t["reference"]
    counts = ref["counts"]
    wall = ref["wall_s"]
    probe_errors = t["probe_errors"] + ref["probe_errors"]

    def count(key):
        """A sum that is 0 where the workload has no such thing and None
        where reading it failed."""
        return counts.get(key, 0)

    m: dict = {}
    for layer in LAYERS:
        for field, value in t["layers"][layer].items():
            m[f"{layer}.{field}"] = value

    blocks = count("blocks")
    m["sim.events"] = count("events")
    m["sim.us_per_event"] = ratio(wall * 1e6, count("events"))
    m["sim.sim_s_per_wall_s"] = ratio(ref["sim_s"], wall - ref["fuzz_s"])
    alternates = t["alternates"]
    if alternates and all(a["same_digest"] for a in alternates.values()):
        m["sim.alt_kernel_wall_ratio"] = min(
            a["wall_s"] for a in alternates.values()
        ) / ((wall + t["bracket_wall_s"]) / 2)
    else:
        m["sim.alt_kernel_wall_ratio"] = None
        probe_errors += [f"sim.alt_kernel_wall_ratio: kernel {name} changed "
                         "sim_digest" for name, a in alternates.items()
                         if not a["same_digest"]]
    m["net.messages"] = count("messages")
    m["net.bytes"] = count("bytes")
    m["net.msgs_per_block"] = ratio(count("messages"), blocks)
    m["net.bytes_per_block"] = ratio(count("bytes"), blocks)
    verify, memo = t["watched"].get("verify"), t["watched"].get("memo")
    m["crypto.verifies"] = verify[0] if verify else None
    m["crypto.memo_hit_ratio"] = ratio(memo[1], memo[0]) if memo else None
    m["tee.ecalls_per_block"] = ratio(count("ecalls"), blocks)
    m["smr.blocks"] = blocks
    m["smr.txs"] = ref["tx"]
    m["smr.tx_per_block"] = ratio(ref["tx"], blocks)
    m["protocols.views"] = count("views")
    m["protocols.timeouts"] = count("timeouts")
    m["protocols.timeout_ratio"] = ratio(count("timeouts"), count("views"))
    kinds = [count(f"exec_{k}") for k in ("normal", "piggyback", "catchup")]
    decided = None if None in kinds else sum(kinds)
    for kind, n in zip(("normal", "piggyback", "catchup"), kinds):
        m[f"core.exec_{kind}_share"] = ratio(n, decided)
    m["shard.cross_committed"] = count("cross_committed")
    m["shard.cross_aborted"] = count("cross_aborted")
    m["shard.cross_overhead_ratio"] = count("cross_overhead_ratio")
    p99 = count("cross_p99_latency_s")
    m["shard.cross_p99_latency_ms"] = None if p99 is None else p99 * 1e3
    m["workload.offered_tps"] = ratio(count("offered_tx"), count("open_loop_sim_s"))
    m["workload.observed_tps"] = ratio(count("open_loop_tx"), count("open_loop_sim_s"))
    m["fuzz.scenarios"] = count("scenarios")
    m["fuzz.scenarios_per_s"] = ratio(count("scenarios"), ref["fuzz_s"])
    m["experiments.import_s"] = t["import_s"]
    m["experiments.build_s"] = ref["build_s"]
    m["trace.overhead_ratio"] = t["traced_wall_s"] / wall
    m["host.calibration"] = calibration

    failed = ref["failed"]
    failures = list(ref["failures"])
    if not t["replay_ok"]:
        failed = ref["ops"]
        failures.insert(0, "non-deterministic replay: cold, reference and "
                           "traced pass differ at the same seed")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}.trace.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "small": small,
        "reference_wall_s": wall, "traced_wall_s": t["traced_wall_s"],
        "traced_total_s": t["traced_total_s"], "metrics": m,
        "layers": t["layers"], "spans": t["spans"], "counts": counts,
        "alternates": alternates, "bracket_wall_s": t["bracket_wall_s"],
        "probe_errors": probe_errors,
    }, indent=1))
    return {"metrics": m, "attempted": ref["ops"], "failed": failed,
            "failures": failures, "sim_digest": ref["digest"],
            "probe_errors": probe_errors}


# -- reporting ---------------------------------------------------------------

def spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def print_workload(name: str, seed: int, e2e: dict, layers: dict, spec: dict) -> None:
    print(f"== {name} (seed {seed}) ==")
    for d in spec["end_to_end"]:
        s = e2e["metrics"][d["name"]]
        print(f"  {d['name']:<26}{s['median']:>16.6g} {d['unit']:<6} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']} "
              f"spread {spread(s):.1%}  bound {d['bound']:.0%} {d['better']}")
    print(f"  {'failed_share':<26}{e2e['failed'] / e2e['attempted']:>16.6g} "
          f"share  {e2e['failed']}/{e2e['attempted']} ops  any increase is "
          "a regression")
    print(f"  {'sim_digest':<26}{e2e['sim_digest'][:16]:>16}")
    for failure in e2e["failures"] + layers["failures"]:
        print(f"  FAILED {failure}")
    print("  -- per layer (reference and traced pass, own process) --")
    for d in spec["per_layer"]:
        value = layers["metrics"][d["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {d['name']:<30}{shown:>14} {d['unit']}")
    if layers["probe_errors"]:
        print(f"  probe_errors: {layers['probe_errors']}")


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_ledger(names: list, seed: int, *, passes: int, small: bool,
               spec: dict) -> dict:
    """Run ``names`` one after another, print the report, return the record."""
    calibration = calibrate()
    record = {
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "small": small,
        "host.calibration": calibration,
        "workloads": {},
    }
    for name in names:
        e2e = measure_workload(name, seed, passes=passes, small=small)
        layers = trace_workload(name, seed, calibration, small=small)
        if layers["sim_digest"] != e2e["sim_digest"]:
            layers["failed"] = layers["attempted"]
            layers["failures"].insert(0, "traced process replayed a different "
                                         "sim_digest than the measured one")
        print_workload(name, seed, e2e, layers, spec)
        record["workloads"][name] = {
            "end_to_end": e2e["metrics"],
            "failed_share": e2e["failed"] / e2e["attempted"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "sim_digest": e2e["sim_digest"],
            "per_layer": layers["metrics"],
        }
    return record


def check_repeat(first: dict, second: dict, spec: dict) -> list:
    """Where two runs of the same code disagree by more than the
    benchmark's own bounds allow."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for d in spec["end_to_end"]:
            x = a["end_to_end"][d["name"]]["median"]
            y = b["end_to_end"][d["name"]]["median"]
            if d["name"] in TIMED:
                if abs(x - y) / x >= d["bound"]:
                    problems.append(f"{name} {d['name']}: {x:.6g} vs {y:.6g} "
                                    f"differ by {abs(x - y) / x:.1%}, bound "
                                    f"{d['bound']:.0%}")
            elif x != y:
                problems.append(f"{name} {d['name']}: {x!r} vs {y!r} must be equal")
        for key in ("failed_share", "sim_digest"):
            if a[key] != b[key]:
                problems.append(f"{name} {key}: {a[key]!r} vs {b[key]!r} must be equal")
        for d in spec["per_layer"]:
            x, y = a["per_layer"][d["name"]], b["per_layer"][d["name"]]
            if d["unit"] in ("count", "B") and x != y:
                problems.append(f"{name} {d['name']}: {x!r} vs {y!r} must be equal")
        print(f"{name}: wall_s quartile spread "
              f"{spread(a['end_to_end']['wall_s']):.1%} and "
              f"{spread(b['end_to_end']['wall_s']):.1%}")
    return problems


# -- entry ---------------------------------------------------------------

def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long to measure: one timed pass per "
                         f"{NOMINAL_PASS_S} s, at least {MIN_PASSES}")
    ap.add_argument("--passes", type=int, default=0,
                    help="exactly this many timed passes, whatever --seconds says")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--small", action="store_true",
                    help="reduced-size workloads (the smoke test)")
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()
    # The number of passes follows from --seconds alone, never from how
    # fast this machine is: pass i must mean the same work on both sides
    # of a comparison, and memos that fill across passes make later
    # passes slower than earlier ones.
    passes = args.passes or max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S))
    options = dict(passes=passes, small=args.small)

    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        if args.trace:
            got = trace_workload(args.workload, args.seed, calibrate(),
                                 small=args.small)
            values = got["metrics"]
            declared = spec["per_layer"]
        else:
            got = measure_workload(args.workload, args.seed, **options)
            values = {k: s["median"] for k, s in got["metrics"].items()}
            declared = spec["end_to_end"]
        for failure in got["failures"]:
            print(f"FAILED {failure}")
        # The driver wants a number for every metric: a per-layer value
        # that could not be read is written as 0 here and named in
        # probe_errors (and is null in out/<workload>.trace.json).
        if got.get("probe_errors"):
            print(f"probe_errors: {got['probe_errors']}")
        print(json.dumps({
            "correct": got["failed"] == 0,
            "attempted": got["attempted"],
            "failed": got["failed"],
            "metrics": {d["name"]: {"value": values[d["name"]] or 0,
                                    "unit": d["unit"]} for d in declared},
        }))
        return 0

    chosen = [args.workload] if args.workload else names
    record = run_ledger(chosen, args.seed, spec=spec, **options)
    ok = all(w["failed"] == 0 for w in record["workloads"].values())
    if args.check_repeat:
        again = run_ledger(chosen, args.seed, spec=spec, **options)
        problems = check_repeat(record, again, spec)
        for problem in problems:
            print(f"REPEAT {problem}")
        ok = ok and not problems
    if not args.small:
        with HISTORY.open("a") as history:
            history.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        sys.exit(3)
