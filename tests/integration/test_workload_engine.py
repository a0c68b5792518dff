"""Open-loop workload engine end-to-end (the tier-1 workload smoke).

A small aggregated-engine run through real consensus: slabs multicast
to the replicas, batched mempool ingest, block assembly from slab rows,
metrics without per-decision records — all deterministic under the seed.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.metrics import DecisionsNotKept
from repro.smr import prefix_agreement
from repro.workload import VIRTUAL_CLIENT_BASE

from ..unit.test_metrics_streaming import legacy_stats


def _open_cfg(**kw):
    base = dict(
        protocol="oneshot",
        f=1,
        deployment="local",
        target_blocks=6,
        seed=3,
        workload="open",
        offered_tps=20_000.0,
        virtual_clients=50_000,
        workload_regions=2,
        streaming_metrics=True,
        max_sim_time=30.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestOpenLoopRun:
    def test_commits_offered_transactions(self):
        res = run_experiment(_open_cfg())
        assert res.engine is not None
        assert res.engine.virtual_clients == 50_000
        assert res.engine.txs_offered > 0
        assert res.stats.blocks_decided >= 6
        assert 0 < res.stats.txs_decided <= res.engine.txs_offered
        # Committed rows came from the virtual-client id space.
        block = res.cluster.replicas[0].log.blocks[2]
        assert all(
            tx.client_id >= VIRTUAL_CLIENT_BASE for tx in block.txs
        )

    def test_low_rate_open_loop_is_live(self):
        # A few hundred clients at 200 tx/s: small slabs keep flowing,
        # blocks commit them and every replica holds one history.
        res = run_experiment(_open_cfg(
            offered_tps=200.0, virtual_clients=300, arrival_slab=16,
            target_blocks=4,
        ))
        assert 0 < res.stats.txs_decided <= res.engine.txs_offered
        replicas = res.cluster.replicas
        assert prefix_agreement(res.cluster.logs())
        assert min(len(r.log) for r in replicas) >= 2
        assert len({r.log.state.state_digest() for r in replicas}) == 1

    def test_deterministic_under_seed(self):
        a = run_experiment(_open_cfg())
        b = run_experiment(_open_cfg())
        assert a.stats == b.stats
        assert a.engine.txs_offered == b.engine.txs_offered
        assert a.engine.slabs_sent == b.engine.slabs_sent

    def test_streaming_collector_stays_bounded(self):
        res = run_experiment(_open_cfg(target_blocks=10))
        with pytest.raises(DecisionsNotKept):
            res.collector.decisions
        # Proposals, blocks and views: no record per replica report.
        assert res.collector.state_size() <= 3 * len(res.collector.blocks())

    def test_open_mode_with_legacy_collector(self):
        res = run_experiment(_open_cfg(streaming_metrics=False))
        assert len(res.collector.decisions) >= 6 * len(res.cluster.replicas)
        assert res.stats.blocks_decided >= 6

    def test_statistics_are_exact_with_and_without_decisions(self):
        cfg = _open_cfg(target_blocks=60)
        tap_off = run_experiment(cfg)
        kept = run_experiment(_open_cfg(target_blocks=60, streaming_metrics=False))
        assert tap_off.stats == kept.stats
        assert kept.stats == legacy_stats(kept.collector, cfg.warmup_blocks)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_experiment(_open_cfg(workload="closed"))

    def test_saturated_mode_untouched_by_knobs(self):
        # Legacy path: workload knobs inert, no engine attached.
        res = run_experiment(
            ExperimentConfig(
                protocol="oneshot",
                f=1,
                deployment="local",
                target_blocks=4,
                seed=3,
            )
        )
        assert res.engine is None
        assert res.stats.txs_decided == 4 * 400
