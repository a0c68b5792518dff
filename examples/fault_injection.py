#!/usr/bin/env python
"""Byzantine behaviour under OneShot: faults happen, safety holds.

Runs a 7-replica OneShot cluster (f=3) with three simultaneously
faulty replicas — one crashed, one silent-when-leading, one that keeps
*attempting* to equivocate (and is stopped by its CHECKER every time) —
and shows that the correct replicas keep agreeing and keep deciding.
The faults are part of the run's description, the config.

Run:  python examples/fault_injection.py
"""

from collections import Counter

from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import Fault
from repro.smr import prefix_agreement


def main() -> None:
    config = ExperimentConfig(
        protocol="oneshot",
        f=3,
        deployment="local",
        local_latency_s=0.005,
        timeout_base=0.25,
        seed=13,
        # Run the full 8 simulated seconds: no block target ends it.
        target_blocks=10**6,
        max_sim_time=8.0,
        warmup_blocks=0,
        faults=(
            Fault(1, "crashed", start=0.5),
            Fault(3, "silent-leader"),
            Fault(5, "equivocate"),
        ),
    )
    run = run_experiment(config)
    cluster, stats = run.cluster, run.stats

    correct = cluster.correct_replicas()
    print("OneShot N=7 (f=3) with 3 faulty replicas:")
    print("  r1 crashes at t=0.5s, r3 is silent whenever it leads,")
    print("  r5 attempts a second proposal in every view it leads\n")
    print(f"  {stats}")
    print(f"  correct replicas: {[r.pid for r in correct]}")
    print(
        "  common-prefix agreement among correct replicas: "
        f"{prefix_agreement([r.log for r in correct])}"
    )
    equivocator = cluster.replicas[5]
    print(
        f"  r5 equivocation attempts: {equivocator.equivocation_attempts}, "
        f"successes: {equivocator.equivocation_successes} "
        "(the CHECKER allows one proposal per view)"
    )
    by_kind = Counter(run.collector.execution_kinds().values())
    by_kind = dict(sorted(by_kind.items()))
    print(f"  execution kinds observed: {by_kind}")
    print(f"  timed-out views: {stats.timeouts // max(1, len(correct))}")


if __name__ == "__main__":
    main()
