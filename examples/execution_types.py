#!/usr/bin/env python
"""The three OneShot execution types, traced message by message.

Forces a normal, a piggyback and a catch-up execution (Figs. 2-4) and
prints each one's communication steps as measured from the network's
message log — reproducing the Sec. V table:

    normal      1 block  / 4 steps
    piggyback   2 blocks / 6 steps
    catch-up    2 blocks / 8 steps

Run:  python examples/execution_types.py   (exits 1 unless every row
matches the paper)
"""

import sys

from repro.experiments.steps_table import (
    PAPER_STEPS,
    measure_execution,
    render_steps_table,
    steps_table,
)
from repro.metrics import CATCHUP, NORMAL, PIGGYBACK

DESCRIPTIONS = {
    NORMAL: "the leader knows the previous view's prepare certificate",
    PIGGYBACK: (
        "the previous leader crashed after f+1 replicas stored its block; "
        "the new leader reconstructs the certificate and piggybacks"
    ),
    CATCHUP: (
        "the previous leader reached fewer than f+1 replicas; the new "
        "leader runs the deliver phase before proposing"
    ),
}


def main() -> int:
    rows = steps_table()
    print(render_steps_table(rows))
    print()
    for row in rows:
        print(f"{row.kind}: {DESCRIPTIONS[row.kind]}")
        for step, view in row.waves:
            print(f"    view {view}: {step}")
        blocks, steps = PAPER_STEPS[row.kind]
        status = "matches" if row.matches_paper else "DIFFERS FROM"
        print(
            f"    -> {row.blocks} block(s) in {row.steps} steps "
            f"({status} the paper's {blocks}/{steps})\n"
        )
    return 0 if all(row.matches_paper for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
