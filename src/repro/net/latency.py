"""Propagation-latency models.

A latency model maps a (src, dst) pair of distinct nodes to a one-way
propagation delay sample.  Deployment experiments use
:class:`TopologyLatency` (region RTT matrix halved, with multiplicative
log-normal jitter); logic tests use :class:`ConstantLatency`.

Sampling contract
-----------------

The network owns loopback (``src == dst`` never reaches a model) and
asks a model for delays two ways: :meth:`LatencyModel.sample` for one
unicast and :meth:`LatencyModel.sample_many` for the remote
destinations of a multicast, returning a list aligned with ``dsts``.
The contract — relied on by the golden-run fingerprints — is *stream
identity*: ``sample_many`` over ``k`` destinations consumes exactly the
draws of ``k`` :meth:`~LatencyModel.sample` calls, in destination order,
so both advance ``rng`` by the same state transition (numpy
``Generator`` fills batched ``uniform``/``normal`` requests
element-by-element from the same bit stream).  docs/invariants.md gives
the draw order of a whole multicast.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from .regions import Topology


class LatencyModel(Protocol):
    """One-way propagation delay sampler for distinct nodes."""

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        """Return a one-way delay in seconds for this transmission."""
        ...

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """One delay per destination, stream-identical to ``sample``."""
        ...


class ConstantLatency:
    """Fixed one-way delay between every pair of distinct nodes."""

    def __init__(self, delay_s: float) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.delay_s = delay_s

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.delay_s

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        return [self.delay_s] * len(dsts)


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

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
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
            return [row[dst % k] for dst in dsts]
        draws = rng.normal(0.0, sigma, size=len(dsts)).tolist()
        exp = math.exp
        return [row[dst % k] * exp(z) for dst, z in zip(dsts, draws)]


__all__ = ["LatencyModel", "ConstantLatency", "TopologyLatency"]
