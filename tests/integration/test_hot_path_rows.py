"""Guard: the saturated hot path never materialises per-row objects.

Count-based, no timing: a change that goes back to building one
``Transaction`` per block row anywhere between source and commit —
mempool, block hashing, execution, replies, metrics — leaves them
reachable from the run's logs and fails here without a benchmark.
"""

import gc

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.smr import Transaction


def _live_transactions() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Transaction)


@pytest.mark.parametrize("protocol", ["oneshot", "hotstuff-chained"])
def test_saturated_run_retains_no_transaction_objects(protocol):
    before = _live_transactions()
    run = run_experiment(
        ExperimentConfig(
            protocol=protocol, f=1, deployment="local", target_blocks=30
        )
    )
    log = run.cluster.replicas[0].log
    assert len(log) >= 30 and log.txs_executed == 400 * len(log)
    assert _live_transactions() - before == 0
    assert run.stats.blocks_decided >= 30  # the result is still referenced
