"""Propagation-latency models.

A latency model maps a (src, dst) node pair to a one-way propagation
delay sample.  Deployment experiments use :class:`TopologyLatency`
(region RTT matrix halved, with multiplicative log-normal jitter);
logic tests use :class:`ConstantLatency`.

Vectorized sampling contract
----------------------------

Models may additionally expose ``sample_many(src, dsts, rng)``: one
batched draw covering a whole multicast, returning a list of delays
aligned with ``dsts``.  The contract — relied on by the golden-run
fingerprints — is *stream identity* with the scalar path:

* loopback entries (``dst == src``) consume **no** RNG draws and get
  the model's loopback delay;
* every other entry consumes exactly the draws the scalar
  :meth:`LatencyModel.sample` call would, in destination order, so a
  batched draw of ``k`` remote destinations advances ``rng`` by the
  same state transition as ``k`` scalar calls (numpy ``Generator``
  fills batched ``uniform``/``normal`` requests element-by-element
  from the same bit stream).

A model that cannot satisfy stream identity must simply not define
``sample_many``; :func:`sample_per_link` is the sanctioned per-link
loop the network falls back to (the determinism lint flags ad-hoc
``latency.sample`` loops inside :mod:`repro.net` instead).

Draw-free models
----------------

Models additionally expose ``draw_free``: true when sampling consumes
**no** RNG draws (:class:`ConstantLatency` always;
:class:`TopologyLatency` when ``sigma == 0``).  The network uses it to
decide whether the pre-GST extra-delay draws can be batched separately
from the latency draws: with a draw-free model the two never interleave
on the shared stream, so batching stays stream-identical.  A model that
omits the attribute is treated as draw-consuming (the safe default).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from .regions import Topology


class LatencyModel(Protocol):
    """One-way propagation delay sampler."""

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        """Return a one-way delay in seconds for this transmission."""
        ...


def sample_per_link(
    model: LatencyModel,
    src: int,
    dsts: Sequence[int],
    rng: np.random.Generator,
) -> list[float]:
    """Per-link fallback for models without ``sample_many``.

    Mirrors the network's scalar send loop exactly: one
    :meth:`LatencyModel.sample` call per remote destination, in
    destination order, and **no** call for loopback entries (whose
    returned slot is 0.0 — the network overrides loopback delivery and
    never reads it).
    """
    sample = model.sample
    return [0.0 if dst == src else sample(src, dst, rng) for dst in dsts]


class ConstantLatency:
    """Fixed one-way delay between every pair of distinct nodes."""

    #: Sampling never touches the RNG (see module docstring).
    draw_free = True

    def __init__(self, delay_s: float, loopback_s: float = 1e-6) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.delay_s = delay_s
        self.loopback_s = loopback_s

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.loopback_s if src == dst else self.delay_s

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """Draw-free: one list build, no RNG interaction at all."""
        delay = self.delay_s
        loop = self.loopback_s
        return [loop if dst == src else delay for dst in dsts]


class UniformLatency:
    """One-way delay drawn uniformly from ``[low, high]``."""

    #: Every remote sample consumes one uniform draw.
    draw_free = False

    def __init__(self, low_s: float, high_s: float) -> None:
        if not 0 <= low_s <= high_s:
            raise ValueError("need 0 <= low <= high")
        self.low_s = low_s
        self.high_s = high_s

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        if src == dst:
            return 1e-6
        return float(rng.uniform(self.low_s, self.high_s))

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """One batched uniform draw for the remote destinations."""
        remote = len(dsts) - dsts.count(src)
        if remote == 0:
            return [1e-6] * len(dsts)
        draws = rng.uniform(self.low_s, self.high_s, size=remote)
        out: list[float] = []
        i = 0
        for dst in dsts:
            if dst == src:
                out.append(1e-6)
            else:
                out.append(float(draws[i]))
                i += 1
        return out


class TopologyLatency:
    """Region-matrix latency with multiplicative log-normal jitter.

    The jitter factor has median 1 and shape ``sigma`` (default 6 %),
    matching the mild per-packet variance of inter-region links while
    keeping region means equal to the paper's figures.
    """

    def __init__(self, topology: Topology, sigma: float = 0.06) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.topology = topology
        self.sigma = sigma
        #: ``Topology.one_way_s`` for every region pair, built once.
        self._one_way = topology.one_way_table_s()
        self._regions = len(topology.regions)

    @property
    def draw_free(self) -> bool:
        """Jitter-free matrices (``sigma == 0``) never touch the RNG."""
        return self.sigma == 0.0

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        if src == dst:
            return 1e-6
        k = self._regions
        base = self._one_way[src % k][dst % k]
        if self.sigma == 0.0:
            return base
        return base * math.exp(rng.normal(0.0, self.sigma))

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """One batched normal draw, then per-element ``math.exp``.

        The exponential stays ``math.exp`` (not ``np.exp``) so every
        delay is bit-identical to the scalar path on any platform —
        only the *draws* are batched.
        """
        k = self._regions
        row = self._one_way[src % k]
        sigma = self.sigma
        if sigma == 0.0:
            return [1e-6 if dst == src else row[dst % k] for dst in dsts]
        remote = len(dsts) - dsts.count(src)
        if remote == 0:
            return [1e-6] * len(dsts)
        draws = iter(rng.normal(0.0, sigma, size=remote).tolist())
        exp = math.exp
        return [
            1e-6 if dst == src else row[dst % k] * exp(next(draws))
            for dst in dsts
        ]


__all__ = [
    "LatencyModel",
    "sample_per_link",
    "ConstantLatency",
    "UniformLatency",
    "TopologyLatency",
]
