"""Property tests: the simulated signature scheme behaves like EUF-CMA."""

import hashlib
import hmac

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import KeyPair, KeyRing, Signature, sha256
from repro.tee import provision

CREDS = provision(5)
RING = CREDS[0].ring


@given(st.binary(min_size=1, max_size=64), st.integers(0, 4))
def test_roundtrip(data, owner):
    d = sha256(data)
    sig = CREDS[owner].keypair.sign(d)
    assert RING.verify(d, sig)
    assert sig.signer == owner


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64), st.integers(0, 4))
def test_tampered_message_rejected(data, other, owner):
    if sha256(data) == sha256(other):
        return
    sig = CREDS[owner].keypair.sign(sha256(data))
    assert not RING.verify(sha256(other), sig)


@given(st.binary(min_size=1, max_size=64), st.integers(0, 4), st.integers(0, 4))
def test_signer_reattribution_rejected(data, owner, claimed):
    if owner == claimed:
        return
    d = sha256(data)
    sig = CREDS[owner].keypair.sign(d)
    assert not RING.verify(d, Signature(claimed, sig.tag))


@given(st.binary(min_size=32, max_size=32), st.integers(0, 4))
def test_random_tags_rejected(tag, owner):
    d = sha256(b"message")
    real = CREDS[owner].keypair.sign(d)
    if tag == real.tag:
        return
    assert not RING.verify(d, Signature(owner, tag))


@given(st.binary(min_size=1, max_size=64))
def test_cross_instance_keys_disjoint(data):
    """Keys from a different provisioning domain never verify."""
    d = sha256(data)
    stranger = KeyPair.generate(0, master_seed=0, domain="other-world")
    assert not RING.verify(d, stranger.sign(d))


@given(st.binary(min_size=1, max_size=64), st.integers(0, 4))
def test_tags_equal_the_hmac_object_construction(data, owner):
    """The tag is the one ``hmac.new(secret, data, sha256).digest()``
    gives (the secret is re-derived here from the documented
    ``generate`` recipe)."""
    kp = KeyPair.generate(owner, master_seed=3, domain="tags")
    secret = hashlib.sha256(f"keygen:3:tags:{owner}".encode()).digest()
    d = sha256(data)
    tag = hmac.new(secret, d, hashlib.sha256).digest()
    assert kp.sign(d).tag == tag
    assert kp.public().verify(d, Signature(owner, tag))


def _sized_binary(max_size):
    """Bytes whose length is drawn first, so long inputs are as likely
    as short ones."""
    return st.integers(0, max_size).flatmap(lambda n: st.binary(min_size=n, max_size=n))


@given(_sized_binary(130), _sized_binary(200), st.integers(0, 255), st.integers(0, 31))
def test_key_schedule_tags_equal_one_shot_hmac(secret, data, flip, pos):
    """The precomputed key schedule is RFC 2104 for every key length —
    shorter than, equal to, and longer than the 64-byte block (long keys
    are hashed first) — and ``_check_tag`` accepts exactly that tag."""
    kp = KeyPair(7, secret)
    tag = hmac.digest(secret, data, "sha256")
    assert kp.sign(data).tag == tag
    assert kp._check_tag(data, Signature(7, tag))
    forged = bytearray(tag)
    forged[pos] ^= flip
    assert kp._check_tag(data, Signature(7, bytes(forged))) == (flip == 0)
    assert not kp._check_tag(data, Signature(8, tag))
