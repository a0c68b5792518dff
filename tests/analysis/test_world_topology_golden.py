"""Golden-fingerprint gate for the vectorized multicast fast path.

The kernel goldens (test_fastpath_determinism.py) run a constant
latency model, which never touches the RNG — they cannot detect a
change in the network's *draw order*.  These goldens run the
world-wide deployment (11-region RTT matrix + log-normal jitter), so
every multicast samples the ``net`` stream once per remote
destination: any deviation in draw count, draw order, or float
arithmetic between the scalar and vectorized paths shifts delivery
times and changes the digest.

The timeline and chain hashes, message and decision counts were
captured from the pre-fast-path scalar per-destination ``send`` loop;
the vectorized path must reproduce them bit-for-bit.  Divergence there
is a correctness bug — never re-pin.  (``events`` and ``digest`` moved
once, with one event per deferred broadcast, and ``digest`` once more,
when it stopped folding ``events``: see test_fastpath_determinism.py.)
"""

import pytest

from ..conftest import fingerprint, small_run
from .test_fastpath_determinism import Golden, assert_golden

#: Seed=7, f=1, target_blocks=4 over WORLD11 with sigma=0.06
#: log-normal jitter, timeout_base=2.0; behaviour captured *before*
#: the vectorized multicast/sample_many fast path landed.
GOLDEN = {
    "oneshot": Golden(
        69,
        44,
        10,
        "51deaeebea247bbe44ecc3d482d53e8dcaad8b4670b2513f2ecc173e12aa3a55",
        "7b27c200453d309844510b0f76d3c0c8e9d6597e2effd27487ac468ec8dbc64c",
        "6bbc617f0ac9f80c659fec1d319b5bd986a44d21b8b529fa7f72f2452f3a7153",
    ),
    "damysus": Golden(
        112,
        70,
        10,
        "e31f10539cad5ed3e388e50c801c5f8987e825ed068dbb1842d0ba6ac3101d1f",
        "a31f734dd4d578fa293056ef8f3b416ddae545443355e07f12f4d0a819668053",
        "2fed727f3ebc6953328d076d7836e74b0b5ddcbffee19b720f1cf29c757e1e63",
    ),
    "hotstuff": Golden(
        208,
        131,
        16,
        "df6e700a1f0c846a4c4b119155ddbd002f80973b4f4052b67a416b999ca2138f",
        "a2189146b1af3e6130765c4dc86afd45c40a47e394c7a8b4235a8772ea996afd",
        "9790484f62b588b3d19111dcff2967388c4ecfb66027517602eb46751d16fd58",
    ),
}


def _world_fingerprint(protocol):
    # The "world" deployment is TopologyLatency(WORLD11, sigma=0.06).
    fp, _ = fingerprint(
        small_run(
            protocol,
            deployment="world",
            seed=7,
            f=1,
            target_blocks=4,
            timeout_base=2.0,
            max_sim_time=120.0,
        )
    )
    return fp


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_world_fingerprint_matches_scalar_era_golden(protocol):
    assert_golden(_world_fingerprint(protocol), GOLDEN[protocol])


def test_world_fingerprint_is_replay_stable():
    """Back-to-back runs in one process agree — the batched draws must
    not leave the ``net`` stream in a different state than the scalar
    draws would."""
    a = _world_fingerprint("oneshot")
    b = _world_fingerprint("oneshot")
    assert a.digest() == b.digest()
    assert a.events == b.events
