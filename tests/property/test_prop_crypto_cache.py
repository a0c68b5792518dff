"""Property tests: the verification memos are sound and bounded.

The fast path (PR 3) memoizes successful signature and certificate
verifications.  These tests prove the properties the protocols rely
on: (a) a tampered tag, wrong signer id, or wrong digest never
verifies, whether the genuine signature is already memoized ("warm")
or not ("cold"); (b) the ``KeyRing`` memo is bounded — eviction works
and long sweeps cannot grow it without limit; (c) eviction never
changes results, only wall-clock cost.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.certificates import PrepareCert, StoreCert, VoteCert
from repro.crypto import KeyPair, KeyRing, PublicKey, Signature, memo, sha256
from repro.protocols.damysus.certificates import PREPARE, DamCert
from repro.protocols.hotstuff.certificates import HS_PREPARE, HsQC

PAIRS = [KeyPair.generate(i, master_seed=17, domain="cache-prop") for i in range(5)]


def fresh_ring(capacity=None):
    ring = KeyRing() if capacity is None else KeyRing(memo_capacity=capacity)
    for kp in PAIRS:
        ring.add(kp.public())
    return ring


# ----------------------------------------------------------------------
# (a) forgeries never verify, warm or cold
# ----------------------------------------------------------------------
@given(
    st.binary(min_size=1, max_size=64),
    st.integers(0, 4),
    st.integers(0, 255),
    st.integers(0, 31),
)
def test_bitflipped_tag_never_verifies_warm_or_cold(data, owner, flip, pos):
    d = sha256(data)
    sig = PAIRS[owner].sign(d)
    tag = bytearray(sig.tag)
    tag[pos] ^= flip
    forged = Signature(owner, bytes(tag))

    cold = fresh_ring()
    assert cold.verify(d, forged) == (flip == 0)

    warm = fresh_ring()
    assert warm.verify(d, sig)  # memoize the genuine signature
    assert warm.verify(d, forged) == (flip == 0)


@given(st.binary(min_size=1, max_size=64), st.integers(0, 4), st.integers(0, 4))
def test_reattributed_signer_never_verifies_warm(data, owner, claimed):
    if owner == claimed:
        return
    d = sha256(data)
    sig = PAIRS[owner].sign(d)
    ring = fresh_ring()
    assert ring.verify(d, sig)  # warm
    assert not ring.verify(d, Signature(claimed, sig.tag))


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64), st.integers(0, 4))
def test_wrong_digest_never_verifies_warm(data, other, owner):
    d, e = sha256(data), sha256(other)
    if d == e:
        return
    sig = PAIRS[owner].sign(d)
    ring = fresh_ring()
    assert ring.verify(d, sig)  # warm
    assert not ring.verify(e, sig)


#: Every quorum-certificate class, with the content of one instance.
#: They share one ``verify`` (:class:`repro.crypto.Certificate`).
QUORUM_CERTS = {
    "PrepareCert": (PrepareCert, lambda h: (2, h, 2)),
    "VoteCert": (VoteCert, lambda h: (h, 2)),
    "DamCert": (DamCert, lambda h: (h, 2, PREPARE)),
    "HsQC": (HsQC, lambda h: (HS_PREPARE, 2, h)),
}


def quorum_cert(name, h):
    """A ``name`` certificate on ``h`` signed by keys 0, 1, 2."""
    cls, content = QUORUM_CERTS[name]
    digest = cls.content_digest(*content(h))
    return cls(*content(h), tuple(PAIRS[i].sign(digest) for i in range(3)))


@pytest.mark.parametrize("name", sorted(QUORUM_CERTS))
@given(st.integers(0, 4), st.integers(0, 31), st.integers(1, 255))
def test_tampered_quorum_cert_never_verifies_warm(name, signer_slot, pos, flip):
    """A certificate instance with one flipped tag byte fails even when
    a genuine twin has already been verified and memoized."""
    slot = signer_slot % 3
    h = sha256(b"qc-block")
    ring = fresh_ring()
    genuine = quorum_cert(name, h)
    assert genuine.verify(ring, 3)
    assert genuine.verify(ring, 3)  # warm: instance memo answers

    sigs = list(genuine.sigs)
    tag = bytearray(sigs[slot].tag)
    tag[pos] ^= flip
    sigs[slot] = Signature(sigs[slot].signer, bytes(tag))
    forged = type(genuine)(*genuine.content, tuple(sigs))
    assert not forged.verify(ring, 3)


# ----------------------------------------------------------------------
# (b) the memo is bounded; eviction works
# ----------------------------------------------------------------------
@given(st.integers(1, 16), st.integers(1, 80))
def test_memo_never_exceeds_capacity(capacity, n):
    ring = fresh_ring(capacity=capacity)
    for i in range(n):
        d = sha256(b"bounded-%d" % i)
        assert ring.verify(d, PAIRS[0].sign(d))
    assert ring.memo_size <= capacity
    assert ring.memo_size == min(n, capacity)


@given(st.integers(1, 8))
def test_evicted_signature_still_verifies(capacity):
    """Eviction is a wall-clock event only: a pushed-out signature
    re-verifies cold with the same result."""
    ring = fresh_ring(capacity=capacity)
    first = sha256(b"first")
    sig = PAIRS[0].sign(first)
    assert ring.verify(first, sig)
    for i in range(capacity + 3):  # push the first entry out
        d = sha256(b"filler-%d" % i)
        ring.verify(d, PAIRS[1].sign(d))
    assert ring.verify(first, sig)
    assert ring.memo_size <= capacity


def test_zero_capacity_disables_the_memo():
    ring = fresh_ring(capacity=0)
    d = sha256(b"nocache")
    assert ring.verify(d, PAIRS[0].sign(d))
    assert ring.memo_size == 0


def test_failures_are_never_memoized():
    """Only successes enter the memo — a rejected forgery leaves no
    trace that could later be mistaken for a verified triple."""
    ring = fresh_ring()
    d = sha256(b"fail")
    assert not ring.verify(d, Signature(0, b"\x00" * 32))
    assert ring.memo_size == 0


@pytest.mark.parametrize("name", sorted(QUORUM_CERTS))
def test_warm_quorum_cert_verify_checks_no_tags(name, monkeypatch):
    """The memos are the crypto fast path: after a quorum certificate
    verified once against a ring, verifying it again — or a twin
    instance carrying the same signatures — performs zero tag checks.
    Counted, not timed."""
    checks = []
    real = PublicKey.verify

    def counted(self, data, sig):
        checks.append(sig.signer)
        return real(self, data, sig)

    monkeypatch.setattr(PublicKey, "verify", counted)
    ring = fresh_ring()
    cert = quorum_cert(name, sha256(b"warm-qc"))
    assert cert.verify(ring, 3)
    assert len(checks) == 3  # cold: one HMAC check per signer
    assert cert.verify(ring, 3)  # instance memo
    twin = type(cert)(*cert.content, cert.sigs)
    assert twin == cert and twin is not cert
    assert twin.verify(ring, 3)  # ring memo
    assert len(checks) == 3


def test_fresh_uncached_ring_bypasses_both_layers(monkeypatch):
    """A fresh ``KeyRing(memo_capacity=0)`` holding the same public keys
    misses both memos — it keeps no verified triples, and certificate
    instance memos are keyed by ring — so every check re-runs the HMAC
    (how fingerprints and ledgers are proved memo-independent)."""
    checks = []
    real = PublicKey.verify

    def counted(self, data, sig):
        checks.append(sig.signer)
        return real(self, data, sig)

    monkeypatch.setattr(PublicKey, "verify", counted)
    ring = fresh_ring()
    d = sha256(b"switch")
    sig = PAIRS[0].sign(d)
    assert ring.verify(d, sig)
    cold = fresh_ring(capacity=0)
    assert cold.verify(d, sig)  # still verifies, via the HMAC
    assert cold.memo_size == 0
    assert len(checks) == 2

    h = sha256(b"switch-block")
    digest = StoreCert.content_digest(1, h, 1)
    cert = PrepareCert(
        stored_view=1,
        block_hash=h,
        prop_view=1,
        sigs=tuple(PAIRS[i].sign(digest) for i in range(3)),
    )
    assert cert.verify(ring, 3)
    assert memo.seen_valid(cert, ring, 3)
    uncached = fresh_ring(capacity=0)
    assert not memo.seen_valid(cert, uncached, 3)
    assert cert.verify(uncached, 3)
    assert len(checks) == 2 + 3 + 3  # every tag checked again
