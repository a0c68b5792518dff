"""Message-flow timelines — Figs. 2-4 in text form.

Groups a run's message log into *waves* (one protocol step each: all
``store`` messages of view v are one wave) and renders them in time
order, which is exactly what the paper's figures draw with arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..net.message import Envelope

#: Maps a payload to its (step name, view) wave, or None to skip.
Classifier = Callable[[Any], Optional[tuple[str, int]]]


def classify_oneshot(payload: Any) -> Optional[tuple[str, int]]:
    """Wave classification for OneShot messages."""
    from ..core.certificates import nv_triple
    from ..core.messages import (
        DeliverMsg,
        NewViewMsg,
        PrepCertMsg,
        ProposalMsg,
        StoreMsg,
        VoteMsg,
    )

    if isinstance(payload, NewViewMsg):
        return ("new-view", nv_triple(payload.cert)[0] + 1)
    if isinstance(payload, ProposalMsg):
        return ("proposal", payload.proposal.view)
    if isinstance(payload, StoreMsg):
        return ("store", payload.cert.stored_view)
    if isinstance(payload, PrepCertMsg):
        return ("prep-cert", payload.cert.stored_view)
    if isinstance(payload, DeliverMsg):
        return ("deliver", payload.acc.view + 1)
    if isinstance(payload, VoteMsg):
        return ("vote", payload.vote.view)
    return None


def classify_damysus(payload: Any) -> Optional[tuple[str, int]]:
    """Wave classification for Damysus (basic and chained) messages."""
    from ..protocols.damysus.messages import (
        ChainedDamProposalMsg,
        DamCertMsg,
        DamNewViewMsg,
        DamProposalMsg,
        DamVoteMsg,
    )

    if isinstance(payload, DamNewViewMsg):
        return ("new-view", payload.commitment.view)
    if isinstance(payload, (DamProposalMsg, ChainedDamProposalMsg)):
        return ("proposal", payload.proposal.view)
    if isinstance(payload, DamVoteMsg):
        return (f"vote-{payload.vote.phase}", payload.vote.view)
    if isinstance(payload, DamCertMsg):
        return (f"cert-{payload.cert.phase}", payload.cert.view)
    return None


def classify_hotstuff(payload: Any) -> Optional[tuple[str, int]]:
    """Wave classification for HotStuff (basic and chained) messages."""
    from ..protocols.hotstuff.messages import (
        HsNewViewMsg,
        HsProposalMsg,
        HsQcMsg,
        HsVoteMsg,
    )

    if isinstance(payload, HsNewViewMsg):
        return ("new-view", payload.view)
    if isinstance(payload, HsProposalMsg):
        return ("proposal", payload.view)
    if isinstance(payload, HsVoteMsg):
        return (f"vote-{payload.vote.phase}", payload.vote.view)
    if isinstance(payload, HsQcMsg):
        return (f"qc-{payload.qc.phase}", payload.qc.view)
    return None


#: Registry of classifiers by protocol name.
CLASSIFIERS: dict[str, Classifier] = {
    "oneshot": classify_oneshot,
    "oneshot-chained": classify_oneshot,
    "damysus": classify_damysus,
    "damysus-chained": classify_damysus,
    "hotstuff": classify_hotstuff,
    "hotstuff-chained": classify_hotstuff,
}


@dataclass
class Wave:
    """All messages of one protocol step in one view."""

    step: str
    view: int
    first_send: float = float("inf")
    last_deliver: float = 0.0
    count: int = 0
    senders: set = field(default_factory=set)
    receivers: set = field(default_factory=set)

    def absorb(self, env: Envelope) -> None:
        self.first_send = min(self.first_send, env.send_time)
        self.last_deliver = max(self.last_deliver, env.deliver_time)
        self.count += 1
        self.senders.add(env.src)
        self.receivers.add(env.dst)

    def endpoints(self) -> str:
        def side(nodes: set) -> str:
            if len(nodes) == 1:
                return f"r{next(iter(nodes))}"
            return "*"

        return f"{side(self.senders)}->{side(self.receivers)}"


def extract_waves(
    log: list[Envelope],
    classify: Classifier = classify_oneshot,
    first_view: Optional[int] = None,
    last_view: Optional[int] = None,
) -> list[Wave]:
    """Group the message log into waves, ordered by first send time."""
    waves: dict[tuple[str, int], Wave] = {}
    for env in log:
        key = classify(env.payload)
        if key is None:
            continue
        step, view = key
        if first_view is not None and view < first_view:
            continue
        if last_view is not None and view > last_view:
            continue
        wave = waves.get(key)
        if wave is None:
            wave = waves[key] = Wave(step=step, view=view)
        wave.absorb(env)
    return sorted(waves.values(), key=lambda w: (w.first_send, w.view))


def render_timeline(
    waves: list[Wave], title: str = "message flow", origin: Optional[float] = None
) -> str:
    """Fig. 2/3/4-style text rendering of a wave sequence."""
    if not waves:
        return f"{title}: (no messages)"
    t0 = origin if origin is not None else waves[0].first_send
    lines = [title]
    for w in waves:
        lines.append(
            f"  +{(w.first_send - t0) * 1e3:7.2f}ms  view {w.view:<3d} "
            f"{w.step:<9s} {w.endpoints():<8s} x{w.count}"
        )
    return "\n".join(lines)


__all__ = [
    "Wave",
    "Classifier",
    "CLASSIFIERS",
    "classify_oneshot",
    "classify_damysus",
    "classify_hotstuff",
    "extract_waves",
    "render_timeline",
]
