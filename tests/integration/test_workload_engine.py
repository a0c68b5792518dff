"""Open-loop pump end-to-end on one group (the tier-1 workload smoke).

A small aggregated-arrivals run through real consensus: slabs multicast
to the replicas, batched mempool ingest, block assembly from slab rows,
metrics without per-decision records — all deterministic under the seed.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment, run_sharded
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
        assert res.pump is not None
        assert res.pump.virtual_clients == 50_000
        assert res.pump.txs_offered > 0
        assert res.stats.blocks_decided >= 6
        assert 0 < res.stats.txs_decided <= res.pump.txs_offered
        # Committed rows came from the virtual-client id space.
        block = res.cluster.replicas[0].log.blocks[2]
        assert all(k >> 32 >= VIRTUAL_CLIENT_BASE for k in block.txs.packed())

    def test_low_rate_open_loop_is_live(self):
        # A few hundred clients at 200 tx/s: small slabs keep flowing,
        # blocks commit them and every replica holds one history.
        res = run_experiment(_open_cfg(
            offered_tps=200.0, virtual_clients=300, arrival_slab=16,
            target_blocks=4,
        ))
        assert 0 < res.stats.txs_decided <= res.pump.txs_offered
        replicas = res.cluster.replicas
        assert prefix_agreement(res.cluster.logs())
        assert min(len(r.log) for r in replicas) >= 2
        assert len({r.log.state.state_digest() for r in replicas}) == 1

    def test_deterministic_under_seed(self):
        a = run_experiment(_open_cfg())
        b = run_experiment(_open_cfg())
        assert a.stats == b.stats
        assert a.pump.txs_offered == b.pump.txs_offered
        assert a.pump.slabs_sent == b.pump.slabs_sent

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
        # Legacy path: workload knobs inert, no pump attached.
        res = run_experiment(
            ExperimentConfig(
                protocol="oneshot",
                f=1,
                deployment="local",
                target_blocks=4,
                seed=3,
            )
        )
        assert res.pump is None
        assert res.stats.txs_decided == 4 * 400


def test_one_open_loop_path():
    """A single-group open run is a one-shard routed run: same arrivals,
    same chain, and injection from a pid with no NIC on the fabric."""
    cfg = _open_cfg(
        deployment="eu", offered_tps=5_000.0, virtual_clients=10_000,
        max_sim_time=0.6, target_blocks=10**6,
    )
    fabric = []
    single = run_experiment(
        cfg, instrument=lambda sim, net, cluster: fabric.extend(net.pids)
    )
    routed = run_sharded(cfg)
    assert sorted(fabric) == [r.pid for r in single.cluster.replicas]
    assert single.pump.pid not in fabric
    ref = cfg.reference_pid
    digest = routed.clusters[0].replicas[ref].log.log_digest()
    assert single.cluster.replicas[ref].log.log_digest() == digest
    assert len(single.cluster.replicas[ref].log) > 2
    assert single.pump.txs_offered == routed.pump.txs_offered > 0
