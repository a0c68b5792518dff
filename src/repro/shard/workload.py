"""The open-loop pump: superposed arrivals routed to k group mempools.

Every open-loop run is fed by one :class:`ShardedWorkload`: a sharded
run over its k groups, a single-group ``run_experiment`` over its one
(a one-shard router, no coordinator).  Per region it owns a
:class:`~repro.workload.arrivals.SuperposedArrivals` generator, and
the id columns of every minted slab of arrivals pass through the
:class:`~repro.shard.router.Router`:

* single-shard rows become per-shard slabs of their packed keys and
  are multicast to that shard's replicas (one ``SubmitTxBatch`` per
  shard per slab — the slab fan-out stays O(k), not O(rows));
* cross-shard rows are handed to the 2PC
  :class:`~repro.shard.coordinator.Coordinator` in one
  ``submit_transfers`` call per slab, in slab order — deterministic
  xid assignment, one marker slab per touched shard.

The pump also drives the epoch clock: at every ``epoch_s`` boundary
the :class:`~repro.shard.rebalance.Rebalancer` inspects the
:class:`~repro.shard.rebalance.LoadMonitor` and may publish a new
routing-table epoch, after which subsequent slabs route by the new
table while everything already in flight drains under the old one.

Two deliberate differences from N client processes:

* slab granularity — a slab is dispatched when its last arrival
  occurs, so its first rows reach the mempool up to
  ``slab_rows / rate`` seconds after their nominal arrival (a row's
  true arrival time is not kept: latency runs from proposal);
* no client machines — the pump is not registered on any fabric, so
  injection occupies no NIC, and virtual clients track no replies:
  commit latency is measured replica-side by the metrics collector.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..net import Network
from ..sim import Process, Simulator
from ..smr import SubmitTxBatch, TxBatch
from ..workload.arrivals import (
    DEFAULT_SLAB_ROWS,
    VIRTUAL_CLIENT_BASE,
    RegionSpec,
    SuperposedArrivals,
)
from .coordinator import Coordinator
from .rebalance import LoadMonitor, Migration, Rebalancer
from .router import Router

#: Pump pid — above the coordinator's port range; never registered.
SHARD_WORKLOAD_PID = 96_000


class ShardedWorkload(Process):
    """Open-loop load, routed across shard consensus groups."""

    def __init__(
        self,
        sim: Simulator,
        shard_networks: Sequence[Network],
        shard_replica_pids: Sequence[Sequence[int]],
        router: Router,
        regions: Sequence[RegionSpec],
        coordinator: Optional[Coordinator] = None,
        slab_rows: int = DEFAULT_SLAB_ROWS,
        epoch_s: float = 0.0,
        rebalancer: Optional[Rebalancer] = None,
    ) -> None:
        super().__init__(sim, SHARD_WORKLOAD_PID, name="shard-workload")
        if len(shard_networks) != len(shard_replica_pids):
            raise ValueError("one replica pid list per shard network")
        if len(shard_networks) != router.n_shards:
            raise ValueError("router shard count must match the networks")
        if router.cross_permille and coordinator is None:
            raise ValueError("cross-shard traffic needs a coordinator")
        self.networks = list(shard_networks)
        self.replica_pids = [list(p) for p in shard_replica_pids]
        self.router = router
        self.coordinator = coordinator
        self.slab_rows = slab_rows
        self.epoch_s = epoch_s
        self.rebalancer = rebalancer if rebalancer is not None else Rebalancer()
        self.monitor = LoadMonitor(router.table.slots, router.n_shards)
        self.migrations: list[Migration] = []
        self.generators: list[SuperposedArrivals] = []
        base = VIRTUAL_CLIENT_BASE
        for i, spec in enumerate(regions):
            rng = sim.rng.stream(
                f"workload.shard-region{i}.arrivals",
                purpose="sharded aggregated open-loop arrivals",
            )
            self.generators.append(
                SuperposedArrivals(
                    rng,
                    n_clients=spec.n_clients,
                    rate_tps=spec.rate_tps,
                    payload_bytes=spec.payload_bytes,
                    client_base=base,
                )
            )
            base += spec.n_clients
        self.virtual_clients = base - VIRTUAL_CLIENT_BASE
        self.txs_offered = 0
        self.cross_offered = 0
        self.slabs_sent = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for ri in range(len(self.generators)):
            self._schedule(ri)
        if self.epoch_s > 0:
            self.after(self.epoch_s, self._epoch_tick)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # Slab routing
    # ------------------------------------------------------------------
    def _schedule(self, ri: int) -> None:
        gen = self.generators[ri]
        client_ids, tx_ids, _ = gen.next_arrivals(self.slab_rows)
        self.after(
            max(0.0, gen.clock - self.sim.now), self._emit, ri, client_ids, tx_ids
        )

    def _emit(self, ri: int, client_ids: np.ndarray, tx_ids: np.ndarray) -> None:
        if not self._running:
            return
        slots, home, cross, partner = self.router.classify(client_ids, tx_ids)
        self.monitor.record(slots, home)
        single = ~cross
        keys = client_ids.astype(np.uint64) << np.uint64(32) | tx_ids.astype(np.uint64)
        payload_bytes = self.generators[ri].payload_bytes
        for shard in range(self.router.n_shards):
            idx = np.nonzero(single & (home == shard))[0]
            if len(idx):
                self.networks[shard].multicast(
                    self.pid,
                    self.replica_pids[shard],
                    SubmitTxBatch(TxBatch.from_keys(keys[idx], payload_bytes)),
                )
        if self.coordinator is not None:
            pairs = list(zip(home[cross].tolist(), partner[cross].tolist()))
            self.coordinator.submit_transfers(pairs, payload_bytes)
            self.cross_offered += len(pairs)
        self.txs_offered += len(client_ids)
        self.slabs_sent += 1
        self._schedule(ri)

    # ------------------------------------------------------------------
    # Epochs and rebalancing
    # ------------------------------------------------------------------
    def _epoch_tick(self) -> None:
        if not self._running:
            return
        plan = self.rebalancer.plan(self.monitor, self.router.table)
        if plan is not None:
            assign, before, after_ratio = plan
            old = self.router.table.slot_to_shard
            table = self.router.advance(assign)
            self.migrations.append(
                Migration(
                    epoch=table.epoch,
                    at_time=self.sim.now,
                    moved_slots=tuple(
                        s for s in range(len(assign)) if assign[s] != old[s]
                    ),
                    imbalance_before=before,
                    imbalance_after=after_ratio,
                )
            )
        self.monitor.reset_epoch()
        self.after(self.epoch_s, self._epoch_tick)

    def on_message(self, sender: int, payload: object) -> None:
        """The pump never receives traffic (it is not registered)."""


__all__ = ["SHARD_WORKLOAD_PID", "ShardedWorkload"]
