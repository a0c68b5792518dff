"""The adaptive adversary: a delay hook that chases the leader.

Static leader-targeted degradation (a
:class:`~repro.net.conditions.DegradeSpec` whose node set is
``view % n``) only hurts if the run actually passes through
that view during the window.  The adaptive adversary removes the
guesswork: it periodically reads the *live* view of a correct replica,
recomputes who leads it, and re-aims its extra delay there — the
strongest DoS shape a network-level attacker with protocol knowledge
can mount.

Determinism: the hook itself is a pure function of ``(now, src, dst)``
and the ``target`` field; ``target`` changes only inside pre-scheduled
simulator events that read protocol state.  No RNG stream is touched,
satisfying the DelayHook contract (hooks must not draw from the
network stream), so an adaptive run replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import Network
from ..protocols.common import Cluster
from ..sim import Simulator


@dataclass(frozen=True)
class AdaptiveSpec:
    """Adaptive adversary: every ``period`` seconds re-aim ``extra_s``
    of delay at whichever replica currently leads (read from live
    protocol state) during ``[start, end)``."""

    start: float
    end: float
    extra_s: float = 0.05
    period: float = 0.1


class AdaptiveLeaderDelay:
    """Installable leader-chasing delay hook."""

    def __init__(self, spec: AdaptiveSpec) -> None:
        self.spec = spec
        self.target = -1
        self.retargets = 0

    def install(self, sim: Simulator, network: Network, cluster: Cluster) -> None:
        spec = self.spec
        # Observe through a correct replica: a Byzantine one may hold a
        # nonsense view (and real attackers watch honest traffic).
        correct = cluster.correct_replicas()
        observed = correct[0] if correct else cluster.replicas[0]

        def aim() -> None:
            self.target = observed.leader_of(observed.view)
            self.retargets += 1

        t = spec.start
        while t < spec.end:
            sim.schedule_at(t, aim)
            t = round(t + spec.period, 9)

        def hook(now: float, src: int, dst: int, size: int) -> float:
            if spec.start <= now < spec.end and self.target in (src, dst):
                return spec.extra_s
            return 0.0

        network.delay_hooks.append(hook)


__all__ = ["AdaptiveLeaderDelay", "AdaptiveSpec"]
