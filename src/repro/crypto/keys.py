"""Key pairs and the public-key ring.

The paper's replicas and trusted components sign with ECDSA
(prime256v1).  We simulate an asymmetric scheme with HMAC-SHA256 tags:
a :class:`KeyPair` holds a secret; the :class:`KeyRing` (the "public
key" side distributed during attestation) can *verify* tags but the
secret itself is only reachable through the key-pair object, which for
TEE keys lives inside the enclave.  Within the simulation this gives
exactly the EUF-CMA-style behaviour protocols rely on: a signature
verifies iff it was produced by the named signer over those exact
bytes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterable

from .hashing import Digest

#: Default bound on a :class:`KeyRing`'s verified-signature memo.  At
#: ~100 bytes per entry this caps the memo near 6 MB; eviction is
#: FIFO (oldest first), which for consensus traffic — signatures are
#: re-verified within a few views of first sight — behaves like LRU
#: without per-hit bookkeeping.
SIG_MEMO_CAPACITY = 1 << 16

#: SHA-256 block size and RFC 2104 pad tables (for ``bytes.translate``).
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@dataclass(frozen=True)
class Signature:
    """An attributable signature: ``signer`` id plus an HMAC tag.

    ``signer`` mirrors the paper's ``σ·id`` — the identity of whoever
    produced the signature.
    """

    signer: int
    tag: bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"sig({self.signer},{self.tag.hex()[:8]})"


class KeyPair:
    """A signing key bound to an integer identity.

    Holds only its RFC 2104 key schedule, derived once: the SHA-256
    states after absorbing ``key ^ ipad`` and ``key ^ opad``.  They can
    forge tags, so they are as secret as the key.
    """

    __slots__ = ("owner", "_inner", "_outer")

    def __init__(self, owner: int, secret: bytes) -> None:
        self.owner = owner
        if len(secret) > _BLOCK:
            secret = hashlib.sha256(secret).digest()
        secret = secret.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(secret.translate(_IPAD))
        self._outer = hashlib.sha256(secret.translate(_OPAD))

    @classmethod
    def generate(cls, owner: int, master_seed: int = 0, domain: str = "") -> "KeyPair":
        """Deterministically derive a key pair (simulated key generation)."""
        secret = hashlib.sha256(
            f"keygen:{master_seed}:{domain}:{owner}".encode()
        ).digest()
        return cls(owner, secret)

    def _tag(self, data: Digest) -> bytes:
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, data: Digest) -> Signature:
        """Sign a digest; only the holder of this object can do this."""
        return Signature(self.owner, self._tag(data))

    def _check_tag(self, data: Digest, sig: Signature) -> bool:
        if sig.signer != self.owner:
            return False
        return hmac.compare_digest(self._tag(data), sig.tag)

    def __deepcopy__(self, memo: dict) -> "KeyPair":
        return self  # immutable; hash states cannot be pickled anyway

    def public(self) -> "PublicKey":
        return PublicKey(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KeyPair owner={self.owner}>"


class PublicKey:
    """Verification-only handle for a :class:`KeyPair`.

    Holding a public key lets you verify but not sign: the secret is
    not reachable through the public API (the simulated analogue of key
    asymmetry).
    """

    __slots__ = ("owner", "_kp")

    def __init__(self, kp: KeyPair) -> None:
        self.owner = kp.owner
        self._kp = kp

    def verify(self, data: Digest, sig: Signature) -> bool:
        return self._kp._check_tag(data, sig)


class KeyRing:
    """The set of public keys known to a party (replica, TEE, client).

    Verification results are memoized: a ``(signer, digest, tag)``
    triple that has HMAC-verified once is accepted from the memo on
    every later sight (the triple *is* the statement being proved, so
    a hit is sound by construction — any tampering with the tag, the
    signed bytes, or the claimed signer changes the key and misses).
    Only successes are cached; the memo is bounded by
    ``memo_capacity`` with FIFO eviction, and an evicted signature
    simply re-verifies cold.  Wall-clock work is all the memo elides —
    simulated verification cost is charged by callers from the
    certificate's shape, memo hit or miss (see :mod:`repro.crypto.memo`).
    """

    def __init__(self, memo_capacity: int = SIG_MEMO_CAPACITY) -> None:
        self._keys: dict[int, PublicKey] = {}
        #: Verified (signer, digest, tag) triples, insertion-ordered.
        self._verified: dict[tuple[int, Digest, bytes], None] = {}
        self._capacity = memo_capacity

    def add(self, pk: PublicKey) -> None:
        self._keys[pk.owner] = pk

    def __contains__(self, owner: int) -> bool:
        return owner in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def memo_size(self) -> int:
        """Number of verified-signature memo entries currently held."""
        return len(self._verified)

    @property
    def memo_capacity(self) -> int:
        return self._capacity

    def verify(self, data: Digest, sig: Signature) -> bool:
        """Verify ``sig`` over ``data`` against the signer's public key."""
        key = (sig.signer, data, sig.tag)
        memo = self._verified
        if key in memo:
            return True
        pk = self._keys.get(sig.signer)
        if pk is None or not pk.verify(data, sig):
            return False
        if self._capacity > 0:
            if len(memo) >= self._capacity:
                memo.pop(next(iter(memo)))
            memo[key] = None
        return True

    def verify_all(self, data: Digest, sigs: Iterable[Signature]) -> bool:
        """Verify a multi-signature over the same data.

        Accepts any iterable, consumes it in a single pass without
        materializing a copy, and short-circuits on the first failure.
        """
        for s in sigs:
            if not self.verify(data, s):
                return False
        return True


__all__ = ["Signature", "KeyPair", "PublicKey", "KeyRing", "SIG_MEMO_CAPACITY"]
