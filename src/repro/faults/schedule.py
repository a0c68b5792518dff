"""Fault schedules and execution-type forcers.

Two kinds of injection:

* :class:`FaultPlan` — assign named Byzantine behaviours to replica
  ids (optionally time-windowed), yielding the ``replica_factory`` that
  :func:`repro.protocols.common.build_cluster` consumes.
* Execution-type forcers for OneShot — reproduce the paper's
  "artificially triggered catch-up and piggyback executions"
  (Sec. VIII-d) by sabotaging the leader of selected views:

  - *piggyback forcer*: the leader proposes and lets everyone store,
    but withholds the prepare certificate, so the next leader sees f+1
    matching store certificates;
  - *catch-up forcer*: the leader sends its proposal to fewer than f+1
    replicas, so the next leader sees a mixed new-view set and must run
    the deliver phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Type

from ..protocols.common import BaseReplica
from .byzantine import BEHAVIOURS, make_byzantine

#: Decides whether the view led by this replica is sabotaged.
ViewSelector = Callable[[int], bool]


@dataclass(frozen=True)
class Fault:
    """One replica's assigned misbehaviour: ``pid`` runs ``behaviour``
    in ``[start, end)`` with behaviour-specific ``attrs`` knobs.  It is
    also the run description's fault entry (``ExperimentConfig.faults``).

    Window semantics are half-open ``[start, end)``: ``start == end``
    is a legal *inert* fault (never active), while ``end < start`` can
    only be a scenario bug and raises at construction.
    """

    pid: int
    behaviour: str
    start: float = 0.0
    end: float = math.inf
    attrs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.behaviour not in BEHAVIOURS:
            raise ValueError(f"unknown behaviour {self.behaviour!r}")
        if self.end < self.start:
            raise ValueError(
                f"fault window inverted: end {self.end} < start {self.start}"
            )


@dataclass
class FaultPlan:
    """A set of per-replica faults; at most one behaviour per replica."""

    faults: list[Fault] = field(default_factory=list)

    def add(
        self,
        pid: int,
        behaviour: str,
        start: float = 0.0,
        end: float = math.inf,
        **attrs: object,
    ) -> "FaultPlan":
        if any(f.pid == pid for f in self.faults):
            raise ValueError(f"replica {pid} already has a fault")
        self.faults.append(
            Fault(pid, behaviour, start, end, tuple(sorted(attrs.items())))
        )
        return self

    @property
    def faulty_pids(self) -> set[int]:
        return {f.pid for f in self.faults}

    def factory(
        self,
    ) -> Callable[[int, Type[BaseReplica]], Optional[Type[BaseReplica]]]:
        """The ``replica_factory`` argument for ``build_cluster``."""
        by_pid = {f.pid: f for f in self.faults}

        def make(pid: int, default_cls: Type[BaseReplica]):
            fault = by_pid.get(pid)
            if fault is None:
                return default_cls
            return make_byzantine(
                default_cls,
                fault.behaviour,
                fault_start=fault.start,
                fault_end=fault.end,
                **dict(fault.attrs),
            )

        return make


# ----------------------------------------------------------------------
# OneShot execution-type forcers
# ----------------------------------------------------------------------
def every_kth_view(k: int, offset: int = 0, start: int = 2) -> ViewSelector:
    """Sabotage one view in every ``k``, skipping the first ``start``."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def select(view: int) -> bool:
        return view >= start and view % k == offset % k

    return select


def force_piggyback_cls(
    replica_cls: Type[BaseReplica], selector: ViewSelector
) -> Type[BaseReplica]:
    """Leaders of selected views withhold the prepare certificate."""

    class PiggybackForcer(replica_cls):  # type: ignore[valid-type,misc]
        # Models degraded conditions, not a Byzantine node: safety-wise
        # the replica follows the protocol (it only withholds).
        forced = "piggyback"

        def on_store(self, sender, msg):  # noqa: D102
            if self.is_leader() and selector(self.view):
                return  # swallow store certs: no prepare certificate
            super().on_store(sender, msg)

    return PiggybackForcer


def force_catchup_cls(
    replica_cls: Type[BaseReplica],
    selector: ViewSelector,
    recipients: int = 1,
) -> Type[BaseReplica]:
    """Leaders of selected views propose to only ``recipients`` backups.

    ``recipients`` must be < f+1 for the next leader to be unable to
    reconstruct a prepare certificate (checked at runtime).
    """

    class CatchupForcer(replica_cls):  # type: ignore[valid-type,misc]
        forced = "catchup"

        def broadcast_at(self, when, payload, include_self=True):  # noqa: D102
            from ..core.messages import ProposalMsg

            if (
                isinstance(payload, ProposalMsg)
                and self.is_leader()
                and selector(self.view)
            ):
                k = min(recipients, self.config.f)  # keep it < f+1
                self.transmit(when, self.others[:k], payload)
                return
            super().broadcast_at(when, payload, include_self)

    return CatchupForcer


def forced_execution_factory(
    mode: str, selector: ViewSelector, recipients: int = 1
) -> Callable[[int, Type[BaseReplica]], Type[BaseReplica]]:
    """``replica_factory`` applying a forcer to *every* replica.

    Every replica sabotages the views it leads that ``selector``
    picks, so the forced fraction of views is selector-controlled and
    independent of which replica happens to lead them.
    """
    if mode not in ("piggyback", "catchup"):
        raise ValueError("mode must be 'piggyback' or 'catchup'")

    def make(pid: int, default_cls: Type[BaseReplica]):
        if mode == "piggyback":
            return force_piggyback_cls(default_cls, selector)
        return force_catchup_cls(default_cls, selector, recipients)

    return make


__all__ = [
    "Fault",
    "FaultPlan",
    "ViewSelector",
    "every_kth_view",
    "force_piggyback_cls",
    "force_catchup_cls",
    "forced_execution_factory",
]
