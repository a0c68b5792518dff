#!/usr/bin/env python
"""A replicated key-value store on top of OneShot.

Three clients submit ``set``/``add`` operations over the simulated
network; replicas order them through consensus and apply them to their
deterministic KV state machines.  Because OneShot replies carry the
prepare certificate, a client trusts the *first* reply it receives
(Sec. VI-C) — no f+1 reply quorum needed.

Run:  python examples/kv_store.py   (exits 1 unless all 9 transactions
commit and every replica ends in the same state)
"""

import sys

from repro.core import OneShotReplica
from repro.net import ConstantLatency, Network
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.sim import Simulator
from repro.smr import Client


def main() -> int:
    sim = Simulator(seed=7)
    network = Network(sim, latency=ConstantLatency(0.004))
    config = ProtocolConfig(n=5, f=2)

    # saturated=False: blocks carry only real client transactions.
    cluster = build_cluster(
        OneShotReplica, sim, network, config, saturated=False
    )
    replica_pids = [r.pid for r in cluster.replicas]
    clients = [
        Client(
            sim,
            network,
            pid=1000 + i,
            replica_pids=replica_pids,
            f=config.f,
            payload_bytes=32,
            certified_replies=True,  # single-reply trust (OneShot)
        )
        for i in range(3)
    ]
    cluster.start()

    # A scripted workload: each client writes its own keys, then all
    # increment one shared counter.
    txs = []  # (client, tx id, op)
    def submit_all() -> None:
        for i, c in enumerate(clients):
            for op in (
                ("set", f"owner:{i}", f"client-{c.pid}"),
                ("add", "counter", 1),
                ("set", f"color:{i}", ["red", "green", "blue"][i]),
            ):
                txs.append((c, c.submit(op), op))
    sim.schedule(0.010, submit_all)

    sim.run(until=3.0)
    cluster.stop()

    print("Replicated KV store on OneShot (3 clients, 9 transactions)")
    committed = sum(1 for c, tx_id, _ in txs if c.latency(tx_id) is not None)
    print(f"  committed {committed}/{len(txs)} transactions")
    for c, tx_id, op in txs[:3]:
        lat = c.latency(tx_id)
        print(f"  tx {(c.pid, tx_id)} op={op!r:32s} latency={lat * 1e3:.1f} ms")

    print("  state on every replica:")
    for r in cluster.replicas:
        kv = r.log.state
        print(
            f"    r{r.pid}: counter={kv.get('counter')} "
            f"owner:0={kv.get('owner:0')!r} digest={kv.state_digest().hex()[:12]}"
        )
    digests = {r.log.state.state_digest() for r in cluster.replicas}
    print(f"  all replicas converged to one state: {len(digests) == 1}")
    return 0 if committed == len(txs) == 9 and len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
