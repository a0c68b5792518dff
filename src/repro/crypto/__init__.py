"""Simulated cryptography substrate.

Hashing (:mod:`repro.crypto.hashing`), attributable signatures and key
rings (:mod:`repro.crypto.keys`), and the t2.micro-calibrated CPU cost
model (:mod:`repro.crypto.costs`).
"""

from . import memo
from .costs import FREE, T2_MICRO, CryptoCostModel
from .hashing import (
    GENESIS_DIGEST,
    Digest,
    clear_digest_memos,
    digest_memo_entries,
    digest_of,
    encode,
    encode_int_range,
    encode_int_rows,
    sequence_header,
    sha256,
    short,
)
from .keys import SIG_MEMO_CAPACITY, KeyPair, KeyRing, PublicKey, Signature

__all__ = [
    "memo",
    "SIG_MEMO_CAPACITY",
    "FREE",
    "T2_MICRO",
    "CryptoCostModel",
    "GENESIS_DIGEST",
    "Digest",
    "clear_digest_memos",
    "digest_memo_entries",
    "digest_of",
    "encode",
    "encode_int_range",
    "encode_int_rows",
    "sequence_header",
    "sha256",
    "short",
    "KeyPair",
    "KeyRing",
    "PublicKey",
    "Signature",
]
