"""Single-core CPU model.

Each replica in the evaluation runs on an AWS ``t2.micro`` — a single
(burstable) vCPU.  Signature verification, hashing and TEE transitions
therefore *serialize* at each node, and the leader's verification work
is what saturates first as the cluster grows.  We model this with a
simple ``busy_until`` occupancy per core: work submitted at time *t*
starts at ``max(t, busy_until)`` and the core is then busy for the
work's duration.

The same mechanism models the NIC: message serialization occupies the
interface for ``bytes / bandwidth`` seconds, which is what makes large
(115.6 KB) blocks expensive to broadcast to 60 peers.
"""

from __future__ import annotations


class Resource:
    """A FIFO-serialized unit-capacity resource (CPU core or NIC)."""

    __slots__ = ("name", "busy_until", "total_busy", "jobs")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.jobs = 0

    def occupy(self, now: float, duration: float) -> float:
        """Occupy the resource for ``duration`` starting no earlier than ``now``.

        Returns the *completion* time.  Work is served in submission
        order (which, under the deterministic event loop, is also
        timestamp order).
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        busy = self.busy_until
        end = (now if busy < now else busy) + duration
        self.busy_until = end
        self.total_busy += duration
        self.jobs += 1
        return end

    def occupy_many(self, now: float, duration: float, count: int) -> list[float]:
        """FIFO-occupy the resource for ``count`` equal jobs submitted
        together at ``now``; returns each job's completion time.

        Bit-identical to ``count`` sequential :meth:`occupy` calls with
        the same ``now`` — the completion times accumulate by repeated
        float addition, never ``start + i * duration`` (which rounds
        differently).  This is the batched-occupancy arithmetic behind
        the multicast fan-out: one call charges a whole broadcast's
        serialization instead of one call per destination.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        if count <= 0:
            return []
        end = now if self.busy_until < now else self.busy_until
        total = self.total_busy
        out: list[float] = []
        append = out.append
        for _ in range(count):
            end = end + duration
            total = total + duration
            append(end)
        self.busy_until = end
        self.total_busy = total
        self.jobs += count
        return out

    def queueing_delay(self, now: float) -> float:
        """How long work submitted at ``now`` would wait before starting."""
        return max(0.0, self.busy_until - now)

    def utilization(self, now: float) -> float:
        """Fraction of [0, now] this resource spent busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.total_busy / now)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.jobs = 0


class Cpu(Resource):
    """A single-core CPU; alias of :class:`Resource` with a clearer name."""

    __slots__ = ()


class Nic(Resource):
    """A network interface serializing outgoing bytes at finite bandwidth."""

    __slots__ = ("bandwidth_bps",)

    def __init__(self, bandwidth_bps: float, name: str = "") -> None:
        super().__init__(name)
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps

    def serialize(self, now: float, nbytes: int) -> float:
        """Occupy the NIC to push ``nbytes`` out; returns completion time."""
        return self.occupy(now, (nbytes * 8.0) / self.bandwidth_bps)

    def serialize_many(self, now: float, nbytes: int, count: int) -> list[float]:
        """Occupy the NIC for ``count`` equal-size copies submitted at
        ``now`` (a multicast fan-out); returns each copy's completion
        time, bit-identical to ``count`` :meth:`serialize` calls."""
        return self.occupy_many(now, (nbytes * 8.0) / self.bandwidth_bps, count)


__all__ = ["Resource", "Cpu", "Nic"]
