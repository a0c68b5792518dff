"""Verification memoization — the wall-clock fast path for crypto.

Two memo layers make signature and certificate verification O(1) after
first sight:

* :class:`~repro.crypto.keys.KeyRing` keeps a bounded memo of
  ``(signer, digest, tag)`` triples it has already HMAC-checked, so a
  signature is verified once per process, not once per receiving
  replica (the ring is shared public information — see
  :func:`repro.tee.attestation.provision`);
* frozen certificate dataclasses carry an instance-level memo
  (:func:`seen_valid` / :func:`record_valid`) of the ``(ring, quorum)``
  pairs they verified against, so a certificate received by N replicas
  costs one structural + cryptographic check, not N.

Both layers cache **successes only**.  A failed verification is never
recorded: a forged or bit-flipped tag misses the memo (the tag is part
of the key / the instance differs) and falls through to the real HMAC
check, which rejects it — cache present or not.  Caching only
successes also keeps the memo trivially consistent when a ring learns
new keys.

**Simulated cost is never elided.**  The cost ledgers
(`CryptoCostModel`, the enclave `_charge` path, and the
``qc_verify_cost_sigs`` / ``nv_verify_cost_sigs`` helpers) charge the
full per-signature verification cost whether or not the memo hits:
replicas charge *before* calling ``verify``, and the charge is a pure
function of the certificate's shape.  Only redundant Python work is
skipped, which is why golden-run fingerprints are bit-identical with
the memos on or off (:func:`set_enabled` exists so tests can prove
that).
"""

from __future__ import annotations

from typing import Any, Hashable

#: Attribute slot used for the per-instance certificate memo.  The
#: name is not one of the enclave-private attributes policed by the
#: tee-encapsulation lint rule: the memo holds no secrets, only the
#: fact "this frozen instance verified against that ring".
_MEMO_ATTR = "_verified_for"

_enabled = True


def enabled() -> bool:
    """Whether verification memos are currently active."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable the verification memos; returns the
    previous setting.

    Exists for tests (proving charged costs and fingerprints are
    memo-independent).  Protocol code never calls this.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def seen_valid(cert: Any, ring: Hashable, quorum: int = -1) -> bool:
    """True iff ``cert`` already fully verified against ``(ring, quorum)``."""
    if not _enabled:
        return False
    memo = getattr(cert, _MEMO_ATTR, None)
    return memo is not None and (ring, quorum) in memo


def record_valid(cert: Any, ring: Hashable, quorum: int = -1) -> None:
    """Record a successful verification of ``cert`` against ``(ring,
    quorum)``.

    The memo is keyed by the ring *object* (rings hash by identity and
    outlive every certificate of their run), so a different ring —
    e.g. one missing a signer — never aliases a recorded success.
    """
    if not _enabled:
        return
    memo = getattr(cert, _MEMO_ATTR, None)
    if memo is None:
        memo = set()
        object.__setattr__(cert, _MEMO_ATTR, memo)
    memo.add((ring, quorum))


__all__ = ["enabled", "set_enabled", "seen_valid", "record_valid"]
