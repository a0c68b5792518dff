"""Verification memoization — the wall-clock fast path for crypto.

Two memo layers make signature and certificate verification O(1) after
first sight:

* :class:`~repro.crypto.keys.KeyRing` keeps a bounded memo of
  ``(signer, digest, tag)`` triples it has already HMAC-checked, so a
  signature is verified once per process, not once per receiving
  replica (the ring is shared public information — see
  :func:`repro.tee.attestation.provision`);
* frozen certificates (:mod:`repro.crypto.signed`) carry a memo
  (:func:`seen_valid` / :func:`record_valid`) of the ``(ring, quorum)``
  pairs they verified against, so a certificate received by N replicas
  costs one structural + cryptographic check, not N.

Both layers cache **successes only**.  A failed verification is never
recorded: a forged or bit-flipped tag misses the memo (the tag is part
of the key / the instance differs) and falls through to the real HMAC
check, which rejects it — cache present or not.  Caching only
successes also keeps the memo trivially consistent when a ring learns
new keys.

**Simulated cost is never elided.**  Replicas and enclaves charge a
certificate's ``sig_count`` signature checks *before* calling
``verify``, memo hit or not: the charge is a pure function of the
certificate's shape.  Only redundant Python work is
skipped, which is why golden-run fingerprints are bit-identical
whether a check hits a memo or runs cold against a fresh ring.
"""

from __future__ import annotations

from typing import Any, Hashable

#: Attribute slot used for the per-instance certificate memo.  The
#: name is not one of the enclave-private attributes policed by the
#: tee-encapsulation lint rule: the memo holds no secrets, only the
#: fact "this frozen instance verified against that ring".
_MEMO_ATTR = "_verified_for"


def seen_valid(cert: Any, ring: Hashable, quorum: int = -1) -> bool:
    """True iff ``cert`` already fully verified against ``(ring, quorum)``."""
    memo = getattr(cert, _MEMO_ATTR, None)
    return memo is not None and (ring, quorum) in memo


def record_valid(cert: Any, ring: Hashable, quorum: int = -1) -> None:
    """Record a successful verification of ``cert`` against ``(ring,
    quorum)``.

    The memo is keyed by the ring *object* (rings hash by identity and
    outlive every certificate of their run), so a different ring —
    e.g. one missing a signer — never aliases a recorded success.
    """
    memo = getattr(cert, _MEMO_ATTR, None)
    if memo is None:
        memo = set()
        object.__setattr__(cert, _MEMO_ATTR, memo)
    memo.add((ring, quorum))


__all__ = ["seen_valid", "record_valid"]
