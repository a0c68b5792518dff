"""Unit tests for protocol configuration and the registry."""

import pytest

from repro.protocols.common import ProtocolConfig
from repro.protocols.registry import REGISTRY, get_protocol


def test_quorum_is_f_plus_1():
    for name in ("oneshot", "oneshot-chained", "damysus", "damysus-chained"):
        cls = get_protocol(name).replica_cls
        assert cls.quorum_for(2) == 3
        assert cls.quorum_for(1) == 2


def test_hotstuff_quorum_is_2f_plus_1():
    for name in ("hotstuff", "hotstuff-chained"):
        assert get_protocol(name).replica_cls.quorum_for(30) == 61
        assert get_protocol(name).replica_cls.quorum_for(1) == 3


def test_validate_hybrid_bound():
    ProtocolConfig(n=3, f=1).validate(2)
    ProtocolConfig(n=5, f=2).validate(2)
    with pytest.raises(ValueError):
        ProtocolConfig(n=2, f=1).validate(2)


def test_validate_hotstuff_bound():
    ProtocolConfig(n=4, f=1).validate(3)
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, f=1).validate(3)


def test_validate_rejects_negative_f():
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, f=-1).validate(2)


def test_validate_rejects_bad_pacemaker():
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, f=1, timeout_base=0.0).validate(2)
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, f=1, timeout_backoff=0.5).validate(2)


def test_registry_has_all_protocols():
    assert set(REGISTRY) == {
        "oneshot",
        "oneshot-chained",
        "damysus",
        "damysus-chained",
        "hotstuff",
        "hotstuff-chained",
    }


def test_registry_cluster_sizes_match_paper():
    """Sec. VIII: f=30 gives 91 HotStuff nodes, 61 hybrid nodes."""
    assert get_protocol("hotstuff").n_for(30) == 91
    assert get_protocol("damysus").n_for(30) == 61
    assert get_protocol("oneshot").n_for(30) == 61


def test_registry_unknown_protocol():
    with pytest.raises(KeyError):
        get_protocol("pbft")


def test_registry_replica_classes_declare_protocol():
    for name, info in REGISTRY.items():
        assert info.replica_cls.PROTOCOL == name
        assert info.replica_cls.MIN_N_FACTOR == info.n_factor


def test_certified_replies_only_for_oneshot():
    """Sec. VI-C: only OneShot clients trust a single reply."""
    assert get_protocol("oneshot").replica_cls.CERTIFIED_REPLIES
    assert not get_protocol("damysus").replica_cls.CERTIFIED_REPLIES
    assert not get_protocol("hotstuff").replica_cls.CERTIFIED_REPLIES
