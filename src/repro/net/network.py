"""Reliable point-to-point network with partial synchrony.

Semantics (Sec. IV of the paper):

* fully connected, **reliable** — messages are never lost;
* *partial synchrony* — there is a known bound Δ and an unknown GST
  such that messages sent after GST arrive within Δ.  Before GST the
  network may add arbitrary extra delay (bounded here by
  ``pre_gst_extra`` to keep runs finite).

Cost model: a message occupies the sender's NIC for
``bytes/bandwidth`` (so broadcasting a 115.6 KB block to 60 peers
serializes 60 copies), then travels for a one-way latency sampled from
the latency model, plus any condition-injected delay.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..sim import Nic, Process, Simulator
from .latency import ConstantLatency, LatencyModel
from .message import HEADER_BYTES, Envelope, payload_size

#: A delay hook receives (now, src, dst, size) and returns extra
#: seconds.  Contract: hooks must be deterministic functions of their
#: arguments (plus their own state) and must **not** draw from the
#: network RNG stream — that is what keeps the multicast draw order a
#: function of the destination vector alone.  A hook needing
#: randomness takes its own named stream from ``sim.rng``.
DelayHook = Callable[[float, int, int, int], float]

#: Default NIC bandwidth: 250 Mbit/s — t2.micro's sustainable
#: inter-region throughput (its "low-to-moderate" class bursts to
#: 1 Gbit/s but throttles under the broadcast-heavy steady state).
DEFAULT_BANDWIDTH_BPS = 250e6


class Network:
    """Discrete-event message fabric connecting registered processes."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        gst: float = 0.0,
        delta: float = 0.5,
        pre_gst_extra: float = 0.0,
    ) -> None:
        self.sim = sim
        self.latency: LatencyModel = latency or ConstantLatency(1e-4)
        self.bandwidth_bps = bandwidth_bps
        self.gst = gst
        self.delta = delta
        self.pre_gst_extra = pre_gst_extra
        self._procs: dict[int, Process] = {}
        self._nics: dict[int, Nic] = {}
        self._seq = 0
        self._rng = sim.rng.stream("net", purpose="link latency jitter")
        self.delay_hooks: list[DelayHook] = []
        # accounting
        self.messages_sent = 0
        self.bytes_sent = 0
        self.message_log: Optional[list[Envelope]] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, proc: Process, bandwidth_bps: Optional[float] = None) -> None:
        """Attach a process (replica or client) to the fabric."""
        if proc.pid in self._procs:
            raise ValueError(f"pid {proc.pid} already registered")
        self._procs[proc.pid] = proc
        self._nics[proc.pid] = Nic(
            bandwidth_bps or self.bandwidth_bps, name=f"nic{proc.pid}"
        )

    def attach_nic(self, pid: int, nic: Nic) -> None:
        """Bind ``pid``'s outgoing traffic to an existing NIC.

        Lets several logical processes share one physical interface —
        e.g. parallel consensus instances co-located on one machine
        (the multi-instance deployments of
        :mod:`repro.experiments.parallel`).
        """
        if pid not in self._procs:
            raise KeyError(f"unknown pid {pid}")
        self._nics[pid] = nic

    def process(self, pid: int) -> Process:
        return self._procs[pid]

    def nic(self, pid: int) -> Nic:
        return self._nics[pid]

    @property
    def pids(self) -> list[int]:
        return list(self._procs)

    def close(self) -> None:
        """Forget the registered processes and the delay hooks.

        Each process points at this network (``.network``) and many
        hooks hold the network or a cluster, so the registry closes
        reference cycles through every replica.  A driver closes the
        network with its simulator once the run has ended; the traffic
        accounting (``messages_sent``, ``bytes_sent``, ``message_log``)
        and the NICs stay readable, and a later send to a forgotten pid
        raises ``KeyError`` like any unknown destination.
        """
        self._procs.clear()
        self.delay_hooks.clear()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def enable_log(self) -> None:
        """Record every envelope (tests and trace experiments)."""
        if self.message_log is None:
            self.message_log = []

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> Envelope:
        """Send ``payload`` from ``src`` to ``dst``; returns the envelope.

        The unicast path: bit-identical to ``multicast(src, [dst],
        payload)`` (one latency draw, then one pre-GST extra draw), and
        kept apart from it only because it is cheaper for one copy.
        """
        if dst not in self._procs:
            raise KeyError(f"unknown destination {dst}")
        size = payload_size(payload) + HEADER_BYTES
        now = self.sim.now
        seq = self._seq
        self._seq = seq + 1
        env = Envelope(src, dst, payload, size, now, 0.0, seq)
        if src == dst:
            # Loopback: no NIC occupancy, negligible latency.
            deliver = now + 1e-6
        else:
            ser_end = self._nics[src].serialize(now, size)
            deliver = ser_end + self.latency.sample(src, dst, self._rng)
            if self.delay_hooks or now < self.gst:
                deliver = deliver + self._extra_delay(now, src, dst, size)
        env.deliver_time = deliver
        self.messages_sent += 1
        self.bytes_sent += size
        if self.message_log is not None:
            self.message_log.append(env)
        self.sim.schedule_at(deliver, self._deliver, env)
        return env

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> list[Envelope]:
        """Unicast fan-out to each destination (TCP-style, as in Salticidae).

        Sizes the payload once, then handles the destination vector in
        batches.  The draw order on the ``net`` stream is: all remote
        latencies in one :meth:`LatencyModel.sample_many` call, then
        (before GST) all remote extra delays in one batched uniform
        draw, each in destination order.  Loopback copies draw nothing.
        NIC serialization is one batched occupancy, delay hooks are
        called per remote copy in destination order (they never draw
        from the network stream: the :data:`DelayHook` contract), and
        the deliveries enter the event queue through one
        :meth:`Simulator.schedule_many` insert.

        Every delivery time is summed exactly as :meth:`send` sums it,
        so one destination is exactly :meth:`send`, and several equal a
        loop of sends wherever no extra draw falls between two latency
        draws: after GST, or with a model that draws nothing.  An
        unknown destination rejects the whole batch before any draw,
        occupancy or scheduling.
        """
        dsts = list(dsts)
        procs = self._procs
        for dst in dsts:
            if dst not in procs:
                raise KeyError(f"unknown destination {dst}")
        size = payload_size(payload) + HEADER_BYTES
        now = self.sim.now
        remote = [dst for dst in dsts if dst != src]
        n_remote = len(remote)
        props = self.latency.sample_many(src, remote, self._rng)
        pre_gst = now < self.gst and self.pre_gst_extra > 0
        extras: list[float] = []
        if pre_gst:
            # ``.tolist()`` yields exact Python floats (reprs feed the
            # fingerprints).
            extras = self._rng.uniform(
                0.0, self.pre_gst_extra, size=n_remote
            ).tolist()
        hooks = self.delay_hooks
        has_extra = pre_gst or bool(hooks)
        nic = self._nics.get(src)
        if nic is not None:
            # FIFO repeated addition, as n serialize calls would sum.  An
            # unregistered sender (the shard pump) occupies no NIC.
            ser_ends = nic.serialize_many(now, size, n_remote)
        else:
            ser_ends = [now] * n_remote

        seq = self._seq
        envs: list[Envelope] = []
        times: list[float] = []
        argss: list[tuple[Envelope]] = []
        append_env = envs.append
        append_time = times.append
        append_args = argss.append
        ri = 0
        for dst in dsts:
            env = Envelope(src, dst, payload, size, now, 0.0, seq)
            seq += 1
            if src == dst:
                deliver = now + 1e-6
            else:
                deliver = ser_ends[ri] + props[ri]
                if has_extra:
                    # Accumulated as _extra_delay does.
                    extra = 0.0
                    if pre_gst:
                        extra = extra + extras[ri]
                    for hook in hooks:
                        extra += max(0.0, hook(now, src, dst, size))
                    deliver = deliver + extra
                ri += 1
            env.deliver_time = deliver
            append_env(env)
            append_time(deliver)
            append_args((env,))
        self._seq = seq
        self.messages_sent += len(envs)
        self.bytes_sent += size * len(envs)
        if self.message_log is not None:
            self.message_log.extend(envs)
        self.sim.schedule_many(times, self._deliver, argss)
        return envs

    def _extra_delay(self, now: float, src: int, dst: int, size: int) -> float:
        extra = 0.0
        if now < self.gst and self.pre_gst_extra > 0:
            # Pre-GST asynchrony: adversarially variable delay.
            extra += float(self._rng.uniform(0.0, self.pre_gst_extra))
        for hook in self.delay_hooks:
            extra += max(0.0, hook(now, src, dst, size))
        return extra

    def _deliver(self, env: Envelope) -> None:
        # The destination is looked up when the message arrives, not
        # when it was sent: whoever holds the pid then receives it.
        self._procs[env.dst].on_message(env.src, env.payload)


__all__ = ["Network", "DelayHook", "DEFAULT_BANDWIDTH_BPS"]
