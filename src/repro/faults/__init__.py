"""Fault injection: Byzantine behaviours, fault/forcing schedules and
the adaptive leader-chasing adversary."""

from .adaptive import AdaptiveLeaderDelay, AdaptiveSpec
from .byzantine import (
    BEHAVIOURS,
    ByzantineMixin,
    Crashed,
    Equivocator,
    GarbageSender,
    Restarting,
    SilentLeader,
    SlowSender,
    VoteWithholder,
    make_byzantine,
)
from .schedule import (
    Fault,
    FaultPlan,
    ViewSelector,
    every_kth_view,
    force_catchup_cls,
    force_piggyback_cls,
    forced_execution_factory,
)

__all__ = [
    "AdaptiveLeaderDelay",
    "AdaptiveSpec",
    "BEHAVIOURS",
    "ByzantineMixin",
    "Crashed",
    "Equivocator",
    "GarbageSender",
    "Restarting",
    "SilentLeader",
    "SlowSender",
    "VoteWithholder",
    "make_byzantine",
    "Fault",
    "FaultPlan",
    "ViewSelector",
    "every_kth_view",
    "force_catchup_cls",
    "force_piggyback_cls",
    "forced_execution_factory",
]
