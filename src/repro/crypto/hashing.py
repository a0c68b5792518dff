"""Hashing and canonical encodings.

Blocks and certificates are hashed with SHA-256 over a canonical byte
encoding.  The encoding is length-prefixed and type-tagged so distinct
structures can never collide by concatenation.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

Digest = bytes

GENESIS_DIGEST: Digest = b"\x00" * 32


def encode(obj: Any) -> bytes:
    """Canonically encode ``obj`` (ints, strs, bytes, None, sequences).

    The encoding is injective over the supported types: every value is
    tagged with a one-byte type marker and length-prefixed.

    Exact-type dispatch first: a certificate digest recurses into many
    small values, and one ``type() is`` probe per value is measurably
    cheaper than walking an ``isinstance`` chain.
    ``bool`` cannot be mistaken for ``int`` here because ``type(True)
    is bool``, not ``int``; subclasses of the supported types fall
    through to the original ``isinstance`` chain and encode the same
    bytes as before.
    """
    t = type(obj)
    if t is int:
        raw = b"%d" % obj
        return b"I" + len(raw).to_bytes(4, "big") + raw
    if t is bytes:
        return b"Y" + len(obj).to_bytes(4, "big") + obj
    if t is str:
        raw = obj.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if t is tuple or t is list:
        parts = [encode(x) for x in obj]
        return b"L" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if obj is None:
        return b"N"
    if t is bool:
        return b"B1" if obj else b"B0"
    # Slow path: subclasses of the supported types (bool before int).
    if isinstance(obj, bool):
        return b"B1" if obj else b"B0"
    if isinstance(obj, int):
        raw = str(obj).encode("ascii")
        return b"I" + len(raw).to_bytes(4, "big") + raw
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(obj, (bytes, bytearray)):
        return b"Y" + len(obj).to_bytes(4, "big") + bytes(obj)
    if isinstance(obj, (tuple, list)):
        parts = [encode(x) for x in obj]
        body = b"".join(parts)
        return b"L" + len(parts).to_bytes(4, "big") + body
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


# -- many ints at once ------------------------------------------------------
# A block's transactions are hundreds of rows of ints between constant
# bytes.  ``encode(i)`` is ``b"I"``, a 4-byte digit count and the digits,
# i.e. the %-template ``_INT`` fed ``(digit_count, i)`` — so a whole
# column set is one ``bytes % tuple`` instead of one ``encode`` per value.
_INT = b"I\x00\x00\x00%c%d"
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def sequence_header(n: int) -> bytes:
    """What :func:`encode` writes before the items of an ``n``-item
    tuple or list."""
    return b"L" + n.to_bytes(4, "big")


def _literal(raw: bytes) -> bytes:
    """``raw`` as a constant part of a %-template."""
    return raw.replace(b"%", b"%%")


def encode_int_rows(
    head: bytes, columns: Sequence[np.ndarray], tail: bytes
) -> bytes:
    """``head + encode(c0[i]) + encode(c1[i]) + ... + tail`` for every row
    ``i`` of the parallel int64 ``columns`` of non-negative ints (the
    slabs' unsigned 32-bit ids), concatenated."""
    rows = len(columns[0])
    if rows == 0:
        return b""
    args = np.empty((rows, 2 * len(columns)), dtype=np.int64)
    for j, column in enumerate(columns):
        args[:, 2 * j] = np.searchsorted(_POW10, column, "right") + 1
        args[:, 2 * j + 1] = column
    unit = _literal(head) + _INT * len(columns) + _literal(tail)
    return unit * rows % tuple(args.ravel().tolist())


def encode_int_range(head: bytes, ints: range, tail: bytes) -> bytes:
    """``head + encode(i) + tail`` for every ``i`` of an ascending range
    of non-negative ints, concatenated.  The digit count is constant
    between powers of ten, so the range is cut there and each piece is
    constant bytes around ``%d``."""
    parts = []
    lo, hi = ints.start, ints.stop
    while lo < hi:
        width = len(str(lo))
        stop = min(hi, 10**width)
        unit = _literal(head + b"I" + width.to_bytes(4, "big")) + b"%d"
        parts.append((unit + _literal(tail)) * (stop - lo) % tuple(range(lo, stop)))
        lo = stop
    return b"".join(parts)


def sha256(data: bytes) -> Digest:
    """Raw SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


#: Sentinels standing in for True/False in memo keys.  ``True == 1``
#: and ``False == 0`` in Python, so a raw field tuple is NOT an
#: injective cache key even though the canonical *encoding* is (bools
#: get the ``B`` tag, ints the ``I`` tag): ``(0,)`` and ``(False,)``
#: would share one memo slot and one of them would get the other's
#: digest back.  The sentinels compare equal only to themselves.
_TRUE_KEY = object()
_FALSE_KEY = object()


def _contains_bool(fields: tuple) -> bool:
    """Whether a bool lurks anywhere in the (nested) field tuple.

    ``bool`` cannot be subclassed, so ``type(y) is bool`` is complete;
    tuple subclasses (NamedTuples) are walked via ``isinstance``.
    """
    for y in fields:
        t = y.__class__
        if t is bool:
            return True
        if t is int or t is str or t is bytes or y is None:
            continue
        if isinstance(y, tuple) and _contains_bool(y):
            return True
    return False


def _substitute_bools(x: Any) -> Any:
    """Rebuild ``x`` with bools replaced by the sentinels."""
    t = type(x)
    if t is bool:
        return _TRUE_KEY if x else _FALSE_KEY
    if t is tuple or isinstance(x, tuple):
        return tuple(_substitute_bools(y) for y in x)
    return x


@lru_cache(maxsize=1 << 16)
def _digest_of_hashable(fields: tuple) -> Digest:
    """Memoized digest of a *bool-free* hashable field tuple.

    Certificates and votes are verified many times per view but their
    signed-content digests never change; caching here means each
    distinct field tuple is encoded and hashed once per run, not once
    per verification (the run drivers empty it when a run ends, see
    :func:`clear_digest_memos`).  Keying on ``fields`` directly is injective
    only because callers route every tuple containing a bool to
    :func:`_digest_of_disambiguated` instead (``False == 0`` would
    otherwise share a slot with a differently-encoded tuple).  Purely
    a speed memo — the function is a pure map, so cached and fresh
    results are bit-identical.
    """
    return sha256(encode(fields))


@lru_cache(maxsize=1 << 16)
def _digest_of_disambiguated(key: tuple, fields: tuple) -> Digest:
    """Memo for field tuples that contain bools, keyed on the
    sentinel-substituted form (see :func:`_substitute_bools`)."""
    return sha256(encode(fields))


#: Every process-global memo in the program.  A run driver empties them
#: in the ``finally`` that closes its simulator, so no memo — nor the
#: field tuples its keys pin — outlives the run that filled it.
RUN_MEMOS = (_digest_of_hashable, _digest_of_disambiguated)


def clear_digest_memos() -> None:
    """Empty every memo in :data:`RUN_MEMOS` (the end of a run)."""
    for memo in RUN_MEMOS:
        memo.cache_clear()


def digest_memo_entries() -> int:
    """How many digests the memos in :data:`RUN_MEMOS` hold now."""
    return sum(memo.cache_info().currsize for memo in RUN_MEMOS)


def digest_of(*fields: Any) -> Digest:
    """SHA-256 over the canonical encoding of a field tuple."""
    try:
        if _contains_bool(fields):
            return _digest_of_disambiguated(_substitute_bools(fields), fields)
        return _digest_of_hashable(fields)
    except TypeError:  # some field is unhashable (e.g. a list)
        return sha256(encode(fields))


def short(d: Digest) -> str:
    """Short human-readable prefix of a digest (logs and traces)."""
    return d.hex()[:10]


__all__ = [
    "Digest",
    "GENESIS_DIGEST",
    "encode",
    "encode_int_range",
    "encode_int_rows",
    "sequence_header",
    "sha256",
    "digest_of",
    "short",
    "RUN_MEMOS",
    "clear_digest_memos",
    "digest_memo_entries",
]
