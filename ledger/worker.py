"""One workload in one fresh process.  Started by ``run.py``, never by hand.

Three modes, all beginning imports -> input generation -> one untimed
cold pass, which is what ``setup_s`` covers:

``setup``    stop there (repeats the set-up measurement in a fresh process);
``measure``  then timed passes with tracing off;
``trace``    then one untraced reference pass with the per-layer counters
             on; on the workloads where the kernel matters, one pass per
             alternate kernel and a second default pass; last, one pass
             under the profile hook.

Pass ``i`` runs at seed ``S + i``; the cold pass and timed pass 0 share
seed ``S`` and must replay identically.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import time

#: Workloads on which each alternate kernel gets a pass: the two where
#: the event kernel's share of wall time is largest.
ALT_KERNEL_WORKLOADS = ("fig7-world", "shard-k8-open")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() in the parent just before it started us")
    args = ap.parse_args()

    importing = time.perf_counter()
    from workloads import DEFAULT_KERNEL, WORKLOADS, Pass  # imports repro
    import_s = time.perf_counter() - importing

    script = WORKLOADS[args.workload]

    def run_pass(index: int = 0, **options) -> Pass:
        p = Pass(args.seed + index, args.seed, **options)
        gc.collect()
        start = time.perf_counter()
        script(p, args.small)
        p.wall_s = time.perf_counter() - start
        return p

    cold = run_pass()
    out = {
        "setup_s": time.time() - args.spawned,
        "import_s": import_s,
        "cold_digest": cold.digest(),
    }
    if args.mode == "measure":
        out.update(measure(run_pass, cold, args))
    elif args.mode == "trace":
        out.update(trace(run_pass, cold, args, DEFAULT_KERNEL))
    print(json.dumps(out))


def summary(p) -> dict:
    """What the parent needs from one pass."""
    return {
        "wall_s": p.wall_s,
        "ops": p.ops,
        "failed": p.failed,
        "failures": p.failures[:5],
        "tx": p.tx,
        "sim_s": p.sim_s,
        "latency_tx_s": p.latency_tx_s,
        "build_s": p.build_s,
        "fuzz_s": p.fuzz_s,
        "digest": p.digest(),
        "counts": p.counts,
        "probe_errors": p.probe_errors,
    }


def replays(cold, first) -> bool:
    """Same seed, same process: digest, event, message and tx counts must match."""
    return (cold.digest(), cold.tx) == (first.digest(), first.tx) and all(
        first.counts.get(key) == value for key, value in cold.counts.items()
    )


def measure(run_pass, cold, args) -> dict:
    passes = [run_pass(index) for index in range(args.passes)]
    return {
        "passes": [summary(p) for p in passes],
        "replay_ok": replays(cold, passes[0]),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(run_pass, cold, args, default_kernel) -> dict:
    from layertrace import LayerTracer

    probe_errors = []
    reference = run_pass(counters=True)

    # Alternate kernels run between two default-kernel passes, because
    # passes get slower as the process ages; the ratio is taken against
    # the mean of the two.
    alternates = {}
    if args.workload in ALT_KERNEL_WORKLOADS:
        try:
            from repro.sim.substrate import available_kernels
            names = [k for k in available_kernels() if k != default_kernel]
        except Exception as exc:  # noqa: BLE001
            names = []
            probe_errors.append(
                f"sim.alt_kernel_wall_ratio: {type(exc).__name__}: {exc}")
        for name in names:
            alt = run_pass(kernel=name)
            alternates[name] = {
                "wall_s": alt.wall_s,
                "same_digest": alt.digest() == reference.digest(),
            }
    bracket_wall_s = run_pass().wall_s if alternates else None

    watch = {}
    try:
        from repro.crypto.keys import KeyRing
        watch[KeyRing.verify.__code__] = "verify"
    except Exception as exc:  # noqa: BLE001 - optional surface
        probe_errors.append(f"crypto.verifies: {type(exc).__name__}: {exc}")
    try:
        from repro.crypto.memo import seen_valid
        watch[seen_valid.__code__] = "memo"
    except Exception as exc:  # noqa: BLE001
        probe_errors.append(f"crypto.memo_hit_ratio: {type(exc).__name__}: {exc}")

    here = os.path.dirname(os.path.abspath(__file__))
    src_root = os.path.join(os.path.dirname(here), "src")
    tracer = LayerTracer(src_root, here, watch)
    traced = tracer.run(run_pass)

    return {
        "reference": summary(reference),
        "replay_ok": replays(cold, reference) and traced.digest() == reference.digest(),
        "traced_wall_s": traced.wall_s,
        "traced_total_s": tracer.total_s,
        "layers": tracer.layer_table(),
        "spans": tracer.span_table(),
        "watched": tracer.watched,
        "alternates": alternates,
        "bracket_wall_s": bracket_wall_s,
        "probe_errors": probe_errors,
    }


if __name__ == "__main__":
    main()
