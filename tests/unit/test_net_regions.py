"""Unit tests for the AWS region topologies."""

import numpy as np
import pytest

from repro.net import EU4, LOCAL, TOPOLOGIES, US4, WORLD11, rtt_ms
from repro.net.regions import FRANKFURT, IRELAND, N_VIRGINIA, OREGON, PARIS, SYDNEY


def test_paper_maxima_are_exact():
    """The three latencies the paper states must be reproduced exactly."""
    assert EU4.max_rtt_ms() == 29.0  # Ireland-Frankfurt
    assert US4.max_rtt_ms() == 65.0  # Oregon-N.Virginia
    assert WORLD11.max_rtt_ms() == 278.0  # Sydney-Paris


def test_paper_maxima_on_the_right_pairs():
    assert rtt_ms(IRELAND, FRANKFURT) == 29.0
    assert rtt_ms(OREGON, N_VIRGINIA) == 65.0
    assert rtt_ms(SYDNEY, PARIS) == 278.0


def test_region_counts_match_paper():
    assert len(EU4.regions) == 4
    assert len(US4.regions) == 4
    assert len(WORLD11.regions) == 11


def test_rtt_symmetric():
    for topo in (EU4, US4, WORLD11):
        mat = topo.rtt_matrix_ms()
        assert np.allclose(mat, mat.T)


def test_rtt_positive_and_intra_region_small():
    for topo in (EU4, US4, WORLD11):
        mat = topo.rtt_matrix_ms()
        assert (mat > 0).all()
        assert (np.diag(mat) < 1.0).all()


def test_unknown_pair_raises():
    with pytest.raises(KeyError):
        rtt_ms(IRELAND, "mars-central-1")


def test_round_robin_region_assignment():
    assert EU4.region_of(0) == IRELAND
    assert EU4.region_of(4) == IRELAND
    assert EU4.region_of(5) == EU4.regions[1]


def test_one_way_is_half_rtt():
    assert EU4.one_way_s(0, 3) == pytest.approx(29.0 / 2 / 1000)


@pytest.mark.parametrize("topology", [EU4, US4, WORLD11, LOCAL], ids=lambda t: t.name)
def test_one_way_table_equals_one_way_s_for_every_node_pair(topology):
    """The table a latency model reads per message holds exactly the
    floats ``one_way_s`` computes (``==``, not approx), for node ids
    well past one round of the regions."""
    table = topology.one_way_table_s()
    k = len(topology.regions)
    for src in range(3 * k + 1):
        for dst in range(3 * k + 1):
            assert table[src % k][dst % k] == topology.one_way_s(src, dst)


def test_world_contains_eu_and_us():
    assert set(EU4.regions) <= set(WORLD11.regions)
    assert set(US4.regions) <= set(WORLD11.regions)


def test_registry_names():
    assert set(TOPOLOGIES) == {"eu", "us", "world", "local"}
    assert len(LOCAL.regions) == 1
