"""Integration: the TEE-rollback attack, end to end.

Sec. II (ROTE/NARRATOR discussion) explains why hybrid 2f+1 protocols
*must* assume TEE state cannot be rolled back: OneShot's safety proof
(Lemma 1) rests on "leaders can only make one proposal per view" and
"nodes can only store one block per view".  These tests build the
full attack — a Byzantine leader that restarts its CHECKER from an old
sealed snapshot to equivocate — and show:

1. without rollback protection, two conflicting blocks both gather
   f+1 store certificates and correct replicas FORK;
2. with ROTE-style protection, the relaunched enclave detects the
   stale sealed state and halts, so the attack yields nothing.

The attack code lives here (not in the library): it is a test harness
for the threat model's boundary, mirroring how the paper cites known
defenses rather than shipping the attack.
"""

import pytest

from repro.core import OneShotReplica
from repro.core.certificates import PrepareCert
from repro.core.messages import PrepCertMsg, ProposalMsg, StoreMsg
from repro.core.tee_services import Checker
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network
from repro.protocols.common import ProtocolConfig, build_cluster
from repro.sim import Simulator
from repro.smr import create_leaf, prefix_agreement
from repro.tee import RollbackDetected, RoteGroup, make_protected_checker
from repro.tee.rollback import rollback, snapshot


class RollbackForkingLeader(OneShotReplica):
    """Leader of view 0 that double-proposes via enclave rollback.

    It proposes b1 to replica 1 and (after rolling its CHECKER back
    and "relaunching" it) b2 to replica 2, double-stores both, and
    hands each victim a full prepare certificate for a different block.
    """

    byzantine = True
    protect_enclave = False
    fork_succeeded = False
    halted_by_rote = False

    def _maybe_lead(self) -> None:
        if self.pid == 0:
            return  # suppress the honest leader path; attack instead
        super()._maybe_lead()

    def on_start(self) -> None:
        if self.pid != 0:
            return
        if self.protect_enclave:
            group = RoteGroup()
            protected_cls = make_protected_checker(Checker)
            protected = protected_cls(
                self.pid,
                self.creds.keypair,
                self.ring,
                self.config.crypto_costs,
                self.config.tee_costs,
                self.leader_of,
            )
            protected.attach_group(group)
            self.checker = protected
        self.after(0.001, self._attack)

    def _relaunch(self, snap) -> bool:
        """Rollback = restart the enclave from an old sealed state."""
        rollback(self.checker, snap)
        if hasattr(self.checker, "restart"):
            try:
                self.checker.restart()
            except RollbackDetected:
                type(self).halted_by_rote = True
                return False
        return True

    def _attack(self) -> None:
        from repro.core.certificates import GENESIS_QC
        from repro.smr import GENESIS

        sealed = snapshot(self.checker)
        txs = self.mempool.next_batch()
        b1 = create_leaf(GENESIS.hash, 0, txs[:200], self.pid)
        b2 = create_leaf(GENESIS.hash, 0, txs[200:], self.pid)

        # Proposal + own store certificate for b1.
        p1 = self.checker.tee_prepare(b1.hash)
        s1 = self.checker.tee_store(p1) if p1 else None
        # Rollback, relaunch, and do it again for the conflicting b2.
        if not self._relaunch(sealed):
            return  # ROTE halted the enclave: attack dead
        p2 = self.checker.tee_prepare(b2.hash)
        s2 = self.checker.tee_store(p2) if p2 else None
        if not (p1 and s1 and p2 and s2):
            return
        type(self).fork_succeeded = True
        self._victim = {1: (b1, p1, s1), 2: (b2, p2, s2)}
        self.network.send(0, 1, ProposalMsg(b1, p1, GENESIS_QC))
        self.network.send(0, 2, ProposalMsg(b2, p2, GENESIS_QC))

    def on_store(self, sender, msg: StoreMsg) -> None:
        victim = getattr(self, "_victim", None)
        if victim is None or sender not in victim:
            return
        block, prop, own_store = victim[sender]
        if msg.cert.block_hash != block.hash:
            return
        cert = PrepareCert(
            stored_view=0,
            block_hash=block.hash,
            prop_view=0,
            sigs=(own_store.sig, msg.cert.sig),  # f+1 = 2 signatures
        )
        self.network.send(0, sender, PrepCertMsg(cert, prop))


def run_attack(protected: bool):
    RollbackForkingLeader.fork_succeeded = False
    RollbackForkingLeader.halted_by_rote = False
    RollbackForkingLeader.protect_enclave = protected
    sim = Simulator(seed=50)
    net = Network(sim, ConstantLatency(0.002))
    cfg = ProtocolConfig(n=3, f=1, timeout_base=5.0)  # no timeouts: isolate the attack
    cluster = build_cluster(
        OneShotReplica,
        sim,
        net,
        cfg,
        replica_factory=lambda pid, d: RollbackForkingLeader if pid == 0 else d,
    )
    cluster.start()
    sim.run(until=1.0)
    cluster.stop()
    return cluster


def test_rollback_forks_unprotected_cluster():
    """Without rollback protection the hybrid model's safety breaks."""
    cluster = run_attack(protected=False)
    assert RollbackForkingLeader.fork_succeeded
    r1, r2 = cluster.replicas[1], cluster.replicas[2]
    assert len(r1.log) >= 1 and len(r2.log) >= 1
    # Correct replicas executed CONFLICTING blocks for view 0: a fork.
    assert r1.log.blocks[0].hash != r2.log.blocks[0].hash
    assert not prefix_agreement([r1.log, r2.log])


def test_rote_protection_stops_the_fork():
    """ROTE detects the stale sealed state at relaunch and halts."""
    cluster = run_attack(protected=True)
    assert RollbackForkingLeader.halted_by_rote
    assert not RollbackForkingLeader.fork_succeeded
    r1, r2 = cluster.replicas[1], cluster.replicas[2]
    # At most one side may have decided; no conflicting executions.
    assert prefix_agreement([r1.log, r2.log])


def test_without_rollback_the_tee_prevents_equivocation():
    """Sanity: the same attack minus the rollback step cannot even
    obtain a second proposal (the Lemma 1 mechanism)."""
    from repro.crypto import FREE, digest_of
    from repro.tee import TeeCostModel, provision

    creds = provision(3)[0]
    checker = Checker(
        0, creds.keypair, creds.ring, FREE, TeeCostModel.free(), lambda v: v % 3
    )
    assert checker.tee_prepare(digest_of("b1")) is not None
    assert checker.tee_prepare(digest_of("b2")) is None
