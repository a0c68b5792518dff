"""Unit tests for simulated signatures and key rings."""

import hmac

import pytest

from repro.crypto import KeyPair, KeyRing, Signature, digest_of


@pytest.fixture
def ring_and_keys():
    pairs = [KeyPair.generate(i, master_seed=3) for i in range(4)]
    ring = KeyRing()
    for kp in pairs:
        ring.add(kp.public())
    return ring, pairs


def test_sign_verify_roundtrip(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("msg", 1)
    sig = pairs[0].sign(d)
    assert sig.signer == 0
    assert ring.verify(d, sig)


def test_tampered_data_fails(ring_and_keys):
    ring, pairs = ring_and_keys
    sig = pairs[0].sign(digest_of("msg", 1))
    assert not ring.verify(digest_of("msg", 2), sig)


def test_wrong_signer_attribution_fails(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("msg", 1)
    sig = pairs[0].sign(d)
    forged = Signature(signer=1, tag=sig.tag)
    assert not ring.verify(d, forged)


def test_unknown_signer_fails(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("m")
    outsider = KeyPair.generate(99, master_seed=3)
    assert not ring.verify(d, outsider.sign(d))


def test_garbage_tag_fails(ring_and_keys):
    ring, _ = ring_and_keys
    assert not ring.verify(digest_of("m"), Signature(0, b"\x00" * 32))


def test_verify_all(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("quorum")
    sigs = [kp.sign(d) for kp in pairs[:3]]
    assert ring.verify_all(d, sigs)
    bad = sigs + [Signature(3, b"\x00" * 32)]
    assert not ring.verify_all(d, bad)


def test_keygen_deterministic():
    a = KeyPair.generate(1, master_seed=5)
    b = KeyPair.generate(1, master_seed=5)
    d = digest_of("x")
    assert a.sign(d) == b.sign(d)


def test_domain_separation():
    a = KeyPair.generate(1, master_seed=5, domain="tee")
    b = KeyPair.generate(1, master_seed=5, domain="replica")
    d = digest_of("x")
    assert a.sign(d) != b.sign(d)


def test_keypair_owner_binding():
    from repro.tee import provision

    creds = provision(3)
    assert [c.keypair.owner for c in creds] == [0, 1, 2]


def test_ring_membership(ring_and_keys):
    ring, _ = ring_and_keys
    assert 0 in ring and 3 in ring and 7 not in ring
    assert len(ring) == 4


def test_public_key_cannot_sign(ring_and_keys):
    _, pairs = ring_and_keys
    pk = pairs[0].public()
    assert not hasattr(pk, "sign")
    # Nor does anything it holds: no key pair, no tag function.
    held = [getattr(pk, slot) for slot in type(pk).__slots__]
    assert not any(hasattr(obj, "sign") for obj in held)


# ----------------------------------------------------------------------
# verify_all: iterable input, short-circuit, no copies
# ----------------------------------------------------------------------
def test_verify_all_accepts_any_iterable(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("gen")
    assert ring.verify_all(d, (kp.sign(d) for kp in pairs))  # a generator
    assert ring.verify_all(d, tuple(kp.sign(d) for kp in pairs))


def test_verify_all_short_circuits_on_first_failure(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("short")
    consumed = []

    def sigs():
        for i, s in enumerate(
            [Signature(0, b"\x00" * 32)] + [kp.sign(d) for kp in pairs]
        ):
            consumed.append(i)
            yield s

    assert not ring.verify_all(d, sigs())
    assert consumed == [0]  # stopped at the first bad signature


def test_verify_all_empty_iterable_is_vacuously_true(ring_and_keys):
    ring, _ = ring_and_keys
    assert ring.verify_all(digest_of("empty"), [])


# ----------------------------------------------------------------------
# the verified-signature memo
# ----------------------------------------------------------------------
def test_successful_verify_populates_memo(ring_and_keys):
    ring, pairs = ring_and_keys
    d = digest_of("memo")
    assert ring.memo_size == 0
    assert ring.verify(d, pairs[0].sign(d))
    assert ring.memo_size == 1
    assert ring.verify(d, pairs[0].sign(d))  # warm hit, no growth
    assert ring.memo_size == 1


def test_failed_verify_leaves_memo_untouched(ring_and_keys):
    ring, _ = ring_and_keys
    assert not ring.verify(digest_of("memo"), Signature(0, b"\x00" * 32))
    assert ring.memo_size == 0


def test_memo_capacity_is_configurable():
    from repro.crypto import SIG_MEMO_CAPACITY

    assert KeyRing().memo_capacity == SIG_MEMO_CAPACITY
    assert KeyRing(memo_capacity=7).memo_capacity == 7


# ----------------------------------------------------------------------
# the precomputed HMAC key schedule
# ----------------------------------------------------------------------
def test_sign_and_cold_verify_never_rederive_the_key(monkeypatch, ring_and_keys):
    """Signing and tag checks resume the key schedule derived at key
    generation: neither calls into ``hmac`` to rebuild the pads.
    Counted, not timed."""
    _, pairs = ring_and_keys
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hmac, "digest", counted(hmac.digest))
    monkeypatch.setattr(hmac, "new", counted(hmac.new))
    cold = KeyRing(memo_capacity=0)
    cold.add(pairs[0].public())
    for i in range(100):
        d = digest_of("schedule", i)
        assert cold.verify(d, pairs[0].sign(d))
    assert cold.memo_size == 0  # every verify ran the tag check
    assert calls == []
