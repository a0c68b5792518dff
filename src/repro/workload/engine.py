"""The aggregated open-loop load engine.

One :class:`WorkloadEngine` process stands for N independent open-loop
Poisson clients — their superposition (see
:mod:`repro.workload.arrivals`).  Per region it owns
a :class:`~repro.workload.arrivals.SuperposedArrivals` generator; it
mints arrivals in columnar slabs and, when a slab's *last* arrival time
is reached, multicasts the whole slab to every replica as one
:class:`~repro.smr.client.SubmitTxBatch` message.  Each row's true
arrival time rides in the slab's ``submit_times`` column, so per-tx
timing is preserved even though the simulator executes one event per
slab instead of one per arrival.

Deliberate differences from N client processes each submitting its
own transactions (documented, not accidental):

* slab granularity — a slab is dispatched when its last arrival
  occurs, so the first rows of a slab reach the mempool up to
  ``slab_rows / rate`` seconds after their nominal arrival.  At the
  engine's target rates (≥100k tx/s) that skew is microseconds.
* no reply tracking — virtual clients do not register with the network
  or populate the replicas' client-routing maps; commit latency is
  measured replica-side by the metrics collector.  A
  million-entry routing dict per replica would be pure overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..net import Network
from ..sim import Process, Simulator
from ..smr import SubmitTxBatch
from .arrivals import DEFAULT_SLAB_ROWS, SuperposedArrivals

#: Process id of the engine on the network fabric — far above replica
#: pids (0..n) and :class:`~repro.smr.client.Client` pids.
WORKLOAD_PID = 90_000

#: First virtual client id.  Replica synthetic sources use
#: ``10_000 + pid`` and clients use small pids, so a disjoint
#: base keeps ``(client_id, tx_id)`` keys globally unique.
VIRTUAL_CLIENT_BASE = 1_000_000


@dataclass(frozen=True)
class RegionSpec:
    """One region's share of the offered load."""

    n_clients: int
    rate_tps: float
    payload_bytes: int = 0


def split_regions(
    virtual_clients: int,
    offered_tps: float,
    regions: int,
    payload_bytes: int = 0,
) -> tuple[RegionSpec, ...]:
    """Divide a client population and offered load across regions.

    Near-even split (remainders go to the earliest regions), preserving
    the totals exactly.
    """
    if virtual_clients < regions or regions <= 0:
        raise ValueError("need at least one virtual client per region")
    base, extra = divmod(virtual_clients, regions)
    out = []
    for i in range(regions):
        n = base + (1 if i < extra else 0)
        out.append(
            RegionSpec(
                n_clients=n,
                rate_tps=offered_tps * (n / virtual_clients),
                payload_bytes=payload_bytes,
            )
        )
    return tuple(out)


class WorkloadEngine(Process):
    """Aggregated open-loop load across all regions, one process."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replica_pids: Sequence[int],
        regions: Sequence[RegionSpec],
        pid: int = WORKLOAD_PID,
        slab_rows: int = DEFAULT_SLAB_ROWS,
    ) -> None:
        super().__init__(sim, pid, name="workload")
        if not regions:
            raise ValueError("need at least one region")
        if slab_rows <= 0:
            raise ValueError("slab_rows must be positive")
        self.network = network
        self.replica_pids = list(replica_pids)
        self.regions = tuple(regions)
        self.slab_rows = slab_rows
        self.generators: list[SuperposedArrivals] = []
        base = VIRTUAL_CLIENT_BASE
        for i, spec in enumerate(self.regions):
            rng = sim.rng.stream(
                f"workload.region{i}.arrivals",
                purpose="aggregated open-loop arrivals",
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
        self.slabs_sent = 0
        self._running = False
        network.register(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin offering load; call once after the cluster starts."""
        if self._running:
            return
        self._running = True
        for ri in range(len(self.regions)):
            self._schedule(ri)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # Slab pump
    # ------------------------------------------------------------------
    def _schedule(self, ri: int) -> None:
        slab = self.generators[ri].next_slab(self.slab_rows)
        fire_at = float(slab.submit_times[-1])
        self.after(max(0.0, fire_at - self.sim.now), self._emit, ri, slab)

    def _emit(self, ri: int, slab) -> None:
        if not self._running:
            return
        self.network.multicast(self.pid, self.replica_pids, SubmitTxBatch(slab))
        self.txs_offered += len(slab)
        self.slabs_sent += 1
        self._schedule(ri)

    def on_message(self, sender: int, payload: object) -> None:
        """Virtual clients do not consume replies (see module docstring)."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def offered_rate_tps(self) -> float:
        """Configured aggregate offered load."""
        return sum(r.rate_tps for r in self.regions)

    def observed_rate_tps(self) -> float:
        """Arrivals actually dispatched per simulated second so far."""
        now = self.sim.now
        return self.txs_offered / now if now > 0 else 0.0


def attach_workload(
    sim: Simulator,
    network: Network,
    replica_pids: Sequence[int],
    offered_tps: float,
    virtual_clients: int,
    regions: int = 1,
    payload_bytes: int = 0,
    slab_rows: int = DEFAULT_SLAB_ROWS,
    pid: int = WORKLOAD_PID,
) -> WorkloadEngine:
    """Build and register a :class:`WorkloadEngine` from scalar knobs."""
    specs = split_regions(virtual_clients, offered_tps, regions, payload_bytes)
    return WorkloadEngine(
        sim, network, replica_pids, specs, pid=pid, slab_rows=slab_rows
    )


__all__ = [
    "RegionSpec",
    "VIRTUAL_CLIENT_BASE",
    "WORKLOAD_PID",
    "WorkloadEngine",
    "attach_workload",
    "split_regions",
]
