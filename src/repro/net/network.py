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
from .latency import ConstantLatency, LatencyModel, sample_per_link
from .message import HEADER_BYTES, Envelope, payload_size

#: A delay hook receives (now, src, dst, size) and returns extra
#: seconds.  Contract: hooks must be deterministic functions of their
#: arguments (plus their own state) and must **not** draw from the
#: network RNG stream — that is what lets the multicast fast path batch
#: latency draws around hook calls bit-identically.  A hook needing
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
        fifo_links: bool = False,
    ) -> None:
        self.sim = sim
        self.latency: LatencyModel = latency or ConstantLatency(1e-4)
        self.bandwidth_bps = bandwidth_bps
        self.gst = gst
        self.delta = delta
        self.pre_gst_extra = pre_gst_extra
        #: TCP-style per-connection ordering: with fifo_links a message
        #: never overtakes an earlier message on the same (src, dst)
        #: link (jitter can otherwise reorder within a link).
        self.fifo_links = fifo_links
        self._procs: dict[int, Process] = {}
        self._nics: dict[int, Nic] = {}
        self._seq = 0
        self._rng = sim.rng.stream("net", purpose="link latency jitter")
        self.delay_hooks: list[DelayHook] = []
        self._link_clock: dict[tuple[int, int], float] = {}
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
        """Send ``payload`` from ``src`` to ``dst``; returns the envelope."""
        return self._send_one(
            src, dst, payload, payload_size(payload) + HEADER_BYTES, self.sim.now
        )

    def _send_one(
        self, src: int, dst: int, payload: Any, size: int, now: float
    ) -> Envelope:
        """Transmit one pre-sized message at ``now`` (shared fast path).

        ``size`` and ``now`` are computed by the caller so a multicast
        charges the (potentially expensive) payload sizing walk once
        per message, not once per destination.
        """
        if dst not in self._procs:
            raise KeyError(f"unknown destination {dst}")
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
            if self.fifo_links:
                link = (src, dst)
                deliver = max(deliver, self._link_clock.get(link, 0.0))
                self._link_clock[link] = deliver
        env.deliver_time = deliver
        self.messages_sent += 1
        self.bytes_sent += size
        if self.message_log is not None:
            self.message_log.append(env)
        self.sim.schedule_at(deliver, self._deliver, env)
        return env

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> list[Envelope]:
        """Unicast fan-out to each destination (TCP-style, as in Salticidae).

        Sizes the payload once and samples each link's latency in
        destination order, so the result (envelopes, NIC occupancy and
        RNG draw sequence) is bit-identical to calling :meth:`send` per
        destination — only cheaper.

        Fast path: the whole destination vector is sampled in one
        batched draw (:meth:`LatencyModel.sample_many` where the model
        provides it), pre-GST extra delays are drawn in one batched
        uniform request, NIC occupancy and delivery times are computed
        for the batch, and the deliveries enter the event queue through
        one :meth:`Simulator.schedule_many` bulk insert.  Delay hooks
        compose with the batch because hooks never consume the network
        RNG stream (the :data:`DelayHook` contract).  The single case
        the batch cannot reproduce bit-identically is pre-GST asynchrony
        with a *draw-consuming* latency model — there the scalar path
        interleaves latency and extra-delay draws per destination on one
        stream — so exactly that case falls back to the scalar
        :meth:`_send_one` loop.
        """
        size = payload_size(payload) + HEADER_BYTES
        now = self.sim.now
        pre_gst = now < self.gst and self.pre_gst_extra > 0
        if pre_gst and not getattr(self.latency, "draw_free", False):
            send_one = self._send_one
            return [send_one(src, dst, payload, size, now) for dst in dsts]
        return self._multicast_fast(src, list(dsts), payload, size, now, pre_gst)

    def _multicast_fast(
        self,
        src: int,
        dsts: list[int],
        payload: Any,
        size: int,
        now: float,
        pre_gst: bool,
    ) -> list[Envelope]:
        """Vectorized fan-out (batched draws, batched occupancy).

        Every arithmetic step replays the scalar path's float
        operations in the same order (NIC completion times by repeated
        addition, ``(ser_end + prop) + extra`` delivery sums with the
        extra accumulated ``0.0 + draw`` then ``+= hook`` exactly as
        :meth:`_extra_delay` does), so the produced envelopes are
        bit-identical to :meth:`_send_one` in a loop — proven by the
        golden fingerprints and the multicast equivalence property
        tests.
        """
        procs = self._procs
        for dst in dsts:
            if dst not in procs:
                # All-or-nothing: reject the whole batch before any RNG
                # draw, NIC occupancy or scheduling happens.
                raise KeyError(f"unknown destination {dst}")
        n_remote = len(dsts) - dsts.count(src)

        sample_many = getattr(self.latency, "sample_many", None)
        if sample_many is not None:
            props = sample_many(src, dsts, self._rng)
        else:
            props = sample_per_link(self.latency, src, dsts, self._rng)

        # Pre-GST extras in one batched draw.  Stream-identical to the
        # scalar interleaving because this branch is only reachable
        # with a draw-free latency model (multicast falls back
        # otherwise): the extras are then the *only* draws, one per
        # remote destination, in destination order.  ``.tolist()``
        # yields exact Python floats (reprs feed the fingerprints).
        extras: list[float] = []
        if pre_gst and n_remote:
            extras = self._rng.uniform(
                0.0, self.pre_gst_extra, size=n_remote
            ).tolist()
        hooks = self.delay_hooks
        has_extra = pre_gst or bool(hooks)

        seq = self._seq
        fifo = self.fifo_links
        link_clock = self._link_clock
        nic = self._nics.get(src)
        if nic is not None:
            # NIC serialization is FIFO repeated addition, accumulated
            # the way Resource.occupy would (bit-identical float sums).
            ser_ends = nic.serialize_many(now, size, n_remote)
        else:
            ser_ends = [now] * n_remote

        envs: list[Envelope] = []
        times: list[float] = []
        argss: list[tuple[Envelope]] = []
        append_env = envs.append
        append_time = times.append
        append_args = argss.append
        ri = 0
        for dst, prop in zip(dsts, props):
            env = Envelope(src, dst, payload, size, now, 0.0, seq)
            seq += 1
            if src == dst:
                # Loopback: no NIC occupancy, latency or extra delay.
                deliver = now + 1e-6
            else:
                deliver = ser_ends[ri] + prop
                if has_extra:
                    # Mirror _extra_delay's accumulation exactly.
                    extra = 0.0
                    if pre_gst:
                        extra = extra + extras[ri]
                    for hook in hooks:
                        extra += max(0.0, hook(now, src, dst, size))
                    deliver = deliver + extra
                ri += 1
                if fifo:
                    link = (src, dst)
                    deliver = max(deliver, link_clock.get(link, 0.0))
                    link_clock[link] = deliver
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
