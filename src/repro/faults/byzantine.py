"""Byzantine replica behaviours.

Each class wraps a protocol replica with one misbehaviour.  They are
built by :func:`make_byzantine`, which subclasses the *protocol's own*
replica class so every protocol can be attacked with the same zoo.

Note the hybrid fault model (Sec. IV): Byzantine replicas here still
call their trusted components through the normal entry points — they
can drop, delay, replay and garble *untrusted* state and messages, but
cannot forge TEE signatures or rewind TEE counters (rollback attacks
are modelled separately in :mod:`repro.tee.rollback`).
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Type

from ..protocols.common import BaseReplica


class ByzantineMixin:
    """Marker + common knobs for faulty replicas.

    Behaviours that act on *everything* a replica sends override
    :meth:`~repro.protocols.common.BaseReplica.transmit`, the one seam
    unicasts and broadcasts both pass through: they see each
    transmission once and their effect applies to every copy.
    Behaviours that act on a broadcast as such (stay silent, pick a
    subset) override ``broadcast_at`` and call ``transmit`` with the
    destinations they chose.
    """

    byzantine = True
    #: Window in which the misbehaviour is active.
    fault_start: float = 0.0
    fault_end: float = math.inf

    def _faulty_now(self) -> bool:
        return self.fault_start <= self.sim.now < self.fault_end  # type: ignore[attr-defined]


class Crashed(ByzantineMixin):
    """Fail-stop: ignores everything once the fault window opens."""

    def on_message(self, sender: int, payload: Any) -> None:
        if self._faulty_now():
            return
        super().on_message(sender, payload)  # type: ignore[misc]

    def on_timeout(self) -> None:
        if self._faulty_now():
            return
        super().on_timeout()  # type: ignore[misc]


class SilentLeader(ByzantineMixin):
    """Participates as a backup but never sends anything while leading."""

    def broadcast_at(self, when: float, payload: Any, include_self: bool = True) -> None:
        if self._faulty_now() and self.is_leader():  # type: ignore[attr-defined]
            return
        super().broadcast_at(when, payload, include_self)  # type: ignore[misc]


class SlowSender(ByzantineMixin):
    """Delays every outgoing message by ``slow_delay`` seconds."""

    slow_delay: float = 0.5

    def transmit(self, when: float, dsts: Sequence[int], payload: Any) -> None:
        if self._faulty_now():
            when = max(when, self.sim.now) + self.slow_delay  # type: ignore[attr-defined]
        super().transmit(when, dsts, payload)  # type: ignore[misc]


class VoteWithholder(ByzantineMixin):
    """Backup that never answers leaders (no stores / votes / replies).

    Sends nothing at all while faulty except when it is the leader —
    the classic "deny quorum" attack.
    """

    def transmit(self, when: float, dsts: Sequence[int], payload: Any) -> None:
        if self._faulty_now() and not self.is_leader():  # type: ignore[attr-defined]
            return
        super().transmit(when, dsts, payload)  # type: ignore[misc]


class Equivocator(ByzantineMixin):
    """Mounts the full double-proposal attack through the TEE (OneShot).

    Whenever it leads a view inside its fault window, it asks its own
    CHECKER to certify a *second*, conflicting leaf through the normal
    ``TEEprepare`` entry point.  With an intact TEE the once-per-view
    rule refuses (counted in ``equivocation_attempts``) and the replica
    degrades to an honest leader.  If the guard is broken — a rollback
    attack, or the planted-bug tests — the attack goes all the way:
    the leader split-brains the backups (half see each block), double
    stores via its own CHECKER, assembles a prepare certificate per
    branch and ships each certificate only to its own victims, forking
    the correct replicas (``equivocation_successes``).  The fuzzer's
    safety oracle exists to catch exactly this.

    The entry point is OneShot's proposal path; on protocols without a
    per-view ``TEEprepare`` (Damysus, HotStuff) the mixin is inert.
    """

    equivocation_attempts = 0
    equivocation_successes = 0

    def broadcast_at(self, when: float, payload: Any, include_self: bool = True) -> None:
        from ..core.messages import ProposalMsg

        if (
            self._faulty_now()
            and isinstance(payload, ProposalMsg)
            and payload.block.proposer == self.pid  # type: ignore[attr-defined]
            and self._try_equivocate(when, payload)
        ):
            return
        super().broadcast_at(when, payload, include_self)  # type: ignore[misc]

    def _try_equivocate(self, when: float, msg: Any) -> bool:
        """Attempt the double proposal; True iff the attack was sent."""
        from ..core.messages import ProposalMsg
        from ..smr import TxBatch, create_leaf

        checker = getattr(self, "checker", None)
        if checker is None or not hasattr(checker, "tee_prepare"):
            return False
        evil = create_leaf(msg.block.parent, self.view, TxBatch(), self.pid)  # type: ignore[attr-defined]
        if evil.hash == msg.block.hash:
            return False  # identical leaf: nothing conflicting to offer
        self.equivocation_attempts += 1
        phi2 = checker.tee_prepare(evil.hash)
        done = max(when, self.charge_enclave(checker))  # type: ignore[attr-defined]
        if phi2 is None:
            return False  # the TEE held (the paper's Lemma 1 mechanism)
        self.equivocation_successes += 1
        others = self.others  # type: ignore[attr-defined]
        half_a, half_b = tuple(others[::2]), tuple(others[1::2])
        evil_msg = ProposalMsg(evil, phi2, msg.qc, exec_kind=msg.exec_kind)
        self.add_block(evil)  # type: ignore[attr-defined]
        self._equiv_targets = {
            msg.block.hash: (msg.proposal, half_a),
            evil.hash: (phi2, half_b),
        }
        self.transmit(done, half_a, msg)  # type: ignore[attr-defined]
        self.transmit(done, half_b, evil_msg)  # type: ignore[attr-defined]
        # Store both locally: the overlap replica of the two forked
        # quorums must double-store, which only a broken TEE permits.
        self.send_at(done, self.pid, msg)  # type: ignore[attr-defined]
        self.send_at(done, self.pid, evil_msg)  # type: ignore[attr-defined]
        return True

    def on_store(self, sender: int, msg: Any) -> None:
        """Targeted decide phase: each branch's certificate goes only
        to that branch's victims (broadcasting both would let the first
        certificate win everywhere and heal the fork)."""
        targets = getattr(self, "_equiv_targets", None)
        cert = getattr(msg, "cert", None)
        if (
            targets is None
            or cert is None
            or cert.block_hash not in targets
            or not self._faulty_now()
        ):
            super().on_store(sender, msg)  # type: ignore[misc]
            return
        from ..core.messages import PrepCertMsg

        v = self.view  # type: ignore[attr-defined]
        if cert.stored_view != v or cert.prop_view != v:
            return
        phi_c = self._collect_store(cert)  # type: ignore[attr-defined]
        if phi_c is None:
            return
        proposal, victims = targets[cert.block_hash]
        done = max(self.sim.now, self.cpu.busy_until)  # type: ignore[attr-defined]
        self.transmit(done, victims, PrepCertMsg(phi_c, proposal))  # type: ignore[attr-defined]


class Restarting(ByzantineMixin):
    """Crash-restart storm with sealed-state lag (rollback exposure).

    Inside its fault window the replica cycles: up for
    ``restart_period - outage`` seconds, then down for ``outage``
    seconds (messages and timeouts are lost, as on a real crash).
    While up it "seals" its enclave state every ``seal_interval``
    seconds via :func:`repro.tee.rollback.snapshot`; on recovery it
    restores the *latest seal* via :func:`~repro.tee.rollback.rollback`
    — the restored state lags the crash point, so the TEE counters can
    rewind.  An honest replica with a rewound CHECKER merely refuses
    to store until ``_sync_tee`` fast-forwards it (a liveness dent the
    oracles must tolerate); the combination with an equivocating
    leader is what turns the rewind into a safety attack.
    """

    restart_period: float = 1.0
    outage: float = 0.25
    seal_interval: float = 0.5

    def _down_now(self) -> bool:
        if not self._faulty_now():
            return False
        period = max(self.restart_period, self.outage + 1e-9)
        t = self.sim.now - self.fault_start  # type: ignore[attr-defined]
        return (t % period) >= period - self.outage

    def _cycle_index(self) -> int:
        period = max(self.restart_period, self.outage + 1e-9)
        return int((self.sim.now - self.fault_start) // period)  # type: ignore[attr-defined]

    def _enclaves(self) -> list:
        from ..tee import Enclave

        return [v for v in vars(self).values() if isinstance(v, Enclave)]

    def _maybe_seal(self) -> None:
        from ..tee import snapshot

        nxt = getattr(self, "_next_seal", 0.0)
        if self.sim.now < nxt:  # type: ignore[attr-defined]
            return
        self._next_seal = self.sim.now + self.seal_interval  # type: ignore[attr-defined]
        self._seals = [(e, snapshot(e)) for e in self._enclaves()]

    def _maybe_restore(self) -> None:
        """First activity after an outage: boot from the latest seal."""
        from ..tee import rollback

        cycle = self._cycle_index() if self._faulty_now() else None
        last = getattr(self, "_last_cycle", None)
        if cycle is not None and last is not None and cycle != last:
            for enclave, snap in getattr(self, "_seals", []):
                rollback(enclave, snap)
        self._last_cycle = cycle

    def on_message(self, sender: int, payload: Any) -> None:
        if self._down_now():
            return
        self._maybe_restore()
        if self._faulty_now():
            self._maybe_seal()
        super().on_message(sender, payload)  # type: ignore[misc]

    def on_timeout(self) -> None:
        if self._down_now():
            # The crash loses the pending timeout, but the process
            # restarts with a fresh timer — without this the replica
            # would sleep forever after its first outage.
            self.view_timer.start(self.pacemaker.current_timeout(), self)  # type: ignore[attr-defined]
            return
        self._maybe_restore()
        super().on_timeout()  # type: ignore[misc]


class GarbageSender(ByzantineMixin):
    """Backup that answers leaders with syntactically broken payloads."""

    class _Garbage:
        def wire_size(self) -> int:
            return 128

    def transmit(self, when: float, dsts: Sequence[int], payload: Any) -> None:
        if self._faulty_now() and not self.is_leader():  # type: ignore[attr-defined]
            payload = self._Garbage()
        super().transmit(when, dsts, payload)  # type: ignore[misc]


BEHAVIOURS: dict[str, type] = {
    "crashed": Crashed,
    "silent-leader": SilentLeader,
    "slow": SlowSender,
    "withhold": VoteWithholder,
    "equivocate": Equivocator,
    "restart": Restarting,
    "garbage": GarbageSender,
}


def make_byzantine(
    replica_cls: Type[BaseReplica],
    behaviour: str,
    fault_start: float = 0.0,
    fault_end: float = math.inf,
    **attrs: Any,
) -> Type[BaseReplica]:
    """Subclass ``replica_cls`` with the named misbehaviour.

    An empty window (``fault_start == fault_end``) yields an inert
    subclass; an inverted one (``fault_end < fault_start``) is a
    scenario bug and raises immediately.
    """
    if fault_end < fault_start:
        raise ValueError(
            f"fault window inverted: end {fault_end} < start {fault_start}"
        )
    mixin = BEHAVIOURS[behaviour]
    cls = type(
        f"{mixin.__name__}{replica_cls.__name__}",
        (mixin, replica_cls),
        {"fault_start": fault_start, "fault_end": fault_end, **attrs},
    )
    return cls


__all__ = [
    "ByzantineMixin",
    "Crashed",
    "SilentLeader",
    "SlowSender",
    "VoteWithholder",
    "Equivocator",
    "Restarting",
    "GarbageSender",
    "BEHAVIOURS",
    "make_byzantine",
]
