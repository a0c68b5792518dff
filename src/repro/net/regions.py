"""AWS region topologies used by the paper's evaluation.

Three deployments (Sec. VIII):

* **EU** — Ireland, London, Paris, Frankfurt; largest average RTT
  29 ms (Ireland–Frankfurt).
* **US** — N. Virginia, Ohio, N. California, Oregon; largest 65 ms
  (Oregon–N. Virginia).
* **WORLD** — the 4 US + 4 EU regions plus Singapore, Sydney and
  Canada Central; largest 278 ms (Sydney–Paris).

Matrices are round-trip times in milliseconds; the network uses half of
the RTT as the one-way propagation delay.  Off-paper entries are filled
with representative public inter-region measurements; the three values
the paper states (29, 65, 278 ms) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

IRELAND = "eu-west-1"
LONDON = "eu-west-2"
PARIS = "eu-west-3"
FRANKFURT = "eu-central-1"
N_VIRGINIA = "us-east-1"
OHIO = "us-east-2"
N_CALIFORNIA = "us-west-1"
OREGON = "us-west-2"
SINGAPORE = "ap-southeast-1"
SYDNEY = "ap-southeast-2"
CANADA = "ca-central-1"

#: Intra-region RTT (same availability-zone neighbourhood), ms.
INTRA_REGION_RTT_MS = 0.6

# Pairwise RTTs in milliseconds (symmetric; representative of public
# AWS inter-region measurements; paper-stated maxima are exact).
_RTT_MS: dict[frozenset, float] = {}


def _put(a: str, b: str, rtt: float) -> None:
    _RTT_MS[frozenset((a, b))] = rtt


# EU block (paper: max 29 ms Ireland-Frankfurt)
_put(IRELAND, LONDON, 10.0)
_put(IRELAND, PARIS, 18.0)
_put(IRELAND, FRANKFURT, 29.0)
_put(LONDON, PARIS, 9.0)
_put(LONDON, FRANKFURT, 16.0)
_put(PARIS, FRANKFURT, 10.0)

# US block (paper: max 65 ms Oregon-N.Virginia)
_put(N_VIRGINIA, OHIO, 11.0)
_put(N_VIRGINIA, N_CALIFORNIA, 61.0)
_put(N_VIRGINIA, OREGON, 65.0)
_put(OHIO, N_CALIFORNIA, 50.0)
_put(OHIO, OREGON, 49.0)
_put(N_CALIFORNIA, OREGON, 22.0)

# Transatlantic
_put(N_VIRGINIA, IRELAND, 68.0)
_put(N_VIRGINIA, LONDON, 76.0)
_put(N_VIRGINIA, PARIS, 79.0)
_put(N_VIRGINIA, FRANKFURT, 89.0)
_put(OHIO, IRELAND, 76.0)
_put(OHIO, LONDON, 83.0)
_put(OHIO, PARIS, 86.0)
_put(OHIO, FRANKFURT, 96.0)
_put(N_CALIFORNIA, IRELAND, 130.0)
_put(N_CALIFORNIA, LONDON, 137.0)
_put(N_CALIFORNIA, PARIS, 141.0)
_put(N_CALIFORNIA, FRANKFURT, 147.0)
_put(OREGON, IRELAND, 125.0)
_put(OREGON, LONDON, 132.0)
_put(OREGON, PARIS, 136.0)
_put(OREGON, FRANKFURT, 144.0)

# Asia-Pacific (paper: max 278 ms Sydney-Paris)
_put(SINGAPORE, SYDNEY, 92.0)
_put(SINGAPORE, N_VIRGINIA, 220.0)
_put(SINGAPORE, OHIO, 212.0)
_put(SINGAPORE, N_CALIFORNIA, 170.0)
_put(SINGAPORE, OREGON, 162.0)
_put(SINGAPORE, IRELAND, 240.0)
_put(SINGAPORE, LONDON, 230.0)
_put(SINGAPORE, PARIS, 235.0)
_put(SINGAPORE, FRANKFURT, 225.0)
_put(SYDNEY, N_VIRGINIA, 200.0)
_put(SYDNEY, OHIO, 192.0)
_put(SYDNEY, N_CALIFORNIA, 140.0)
_put(SYDNEY, OREGON, 140.0)
_put(SYDNEY, IRELAND, 260.0)
_put(SYDNEY, LONDON, 265.0)
_put(SYDNEY, PARIS, 278.0)
_put(SYDNEY, FRANKFURT, 270.0)

# Canada Central
_put(CANADA, N_VIRGINIA, 15.0)
_put(CANADA, OHIO, 25.0)
_put(CANADA, N_CALIFORNIA, 75.0)
_put(CANADA, OREGON, 60.0)
_put(CANADA, IRELAND, 70.0)
_put(CANADA, LONDON, 78.0)
_put(CANADA, PARIS, 85.0)
_put(CANADA, FRANKFURT, 92.0)
_put(CANADA, SINGAPORE, 215.0)
_put(CANADA, SYDNEY, 200.0)


def rtt_ms(a: str, b: str) -> float:
    """Round-trip time between two regions in milliseconds."""
    if a == b:
        return INTRA_REGION_RTT_MS
    try:
        return _RTT_MS[frozenset((a, b))]
    except KeyError:
        raise KeyError(f"no RTT entry for regions {a!r} <-> {b!r}") from None


@dataclass(frozen=True)
class Topology:
    """A named multi-region deployment.

    Replicas are assigned to regions round-robin (replica ``i`` lives in
    ``regions[i % len(regions)]``), spreading the cluster evenly like
    the paper's per-region EC2 fleets.
    """

    name: str
    regions: tuple[str, ...]

    def region_of(self, node: int) -> str:
        return self.regions[node % len(self.regions)]

    def rtt_matrix_ms(self) -> np.ndarray:
        """Full region-pair RTT matrix (ms), indexed by region position."""
        n = len(self.regions)
        mat = np.empty((n, n))
        for i, a in enumerate(self.regions):
            for j, b in enumerate(self.regions):
                mat[i, j] = rtt_ms(a, b)
        return mat

    def one_way_s(self, src: int, dst: int) -> float:
        """One-way propagation delay between two *nodes*, in seconds."""
        return rtt_ms(self.region_of(src), self.region_of(dst)) / 2.0 / 1000.0

    def one_way_table_s(self) -> list[list[float]]:
        """:meth:`one_way_s` for every region pair, indexed by region
        position: ``table[src % k][dst % k] == one_way_s(src, dst)``
        exactly, for ``k`` regions.  What a latency model reads per
        message instead of two name lookups and a frozenset."""
        k = range(len(self.regions))
        return [[self.one_way_s(a, b) for b in k] for a in k]

    def max_rtt_ms(self) -> float:
        return float(self.rtt_matrix_ms().max())


EU4 = Topology("eu", (IRELAND, LONDON, PARIS, FRANKFURT))
US4 = Topology("us", (N_VIRGINIA, OHIO, N_CALIFORNIA, OREGON))
WORLD11 = Topology(
    "world",
    (
        N_VIRGINIA,
        OHIO,
        N_CALIFORNIA,
        OREGON,
        IRELAND,
        LONDON,
        PARIS,
        FRANKFURT,
        SINGAPORE,
        SYDNEY,
        CANADA,
    ),
)

#: Single-site topology for local / degraded-network experiments.
LOCAL = Topology("local", (IRELAND,))

TOPOLOGIES = {t.name: t for t in (EU4, US4, WORLD11, LOCAL)}


__all__ = [
    "Topology",
    "rtt_ms",
    "EU4",
    "US4",
    "WORLD11",
    "LOCAL",
    "TOPOLOGIES",
    "INTRA_REGION_RTT_MS",
]
