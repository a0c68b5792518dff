"""Signed statements: a content tuple under one signature or a quorum.

A :class:`Statement` (one ``sig``) or :class:`Certificate` (a quorum's
``sigs`` over the same bytes) is a frozen dataclass that declares only
``DOMAIN``, ``HEAD`` (its content's wire size) and its fields, content
first; it signs ``digest_of(DOMAIN, *content)``.  A certificate names
the statement it combines (``of=``) and shares its domain: a vote and
its quorum certificate sign the same content.  Callers charge
:attr:`Statement.sig_count` simulated signature checks before
:meth:`verify`, memo hit or not (:mod:`repro.crypto.memo`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, ClassVar, Optional

from .hashing import Digest, digest_of
from .keys import KeyRing, Signature
from .memo import record_valid, seen_valid

#: Simulated ECDSA signature size on the wire.
SIG_BYTES = 64


class Statement:
    """A content tuple signed by one key (the last field, ``sig``)."""

    DOMAIN: ClassVar[str]
    HEAD: ClassVar[int]
    #: The certificate that combines a quorum of these.
    QUORUM: ClassVar[Optional[type]] = None
    #: Signature checks one verification costs.
    sig_count = 1

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # ``content``: every field but the last, bound once per class.
        super().__init_subclass__(**kwargs)
        fields = list(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls.content = property(attrgetter(*fields[:-1]))

    @classmethod
    def content_digest(cls, *content: Any) -> Digest:
        return digest_of(cls.DOMAIN, *content)

    def digest(self) -> Digest:
        return digest_of(self.DOMAIN, *self.content)

    def verify(self, ring: KeyRing, quorum: int = 1) -> bool:
        """Whether ``sig`` signs the content (``quorum`` is unused)."""
        return ring.verify(self.digest(), self.sig)

    def combine(self, sigs: tuple[Signature, ...]) -> "Certificate":
        """The :attr:`QUORUM` certificate of ``sigs`` over this content."""
        return self.QUORUM(*self.content, sigs)

    def wire_size(self) -> int:
        return self.HEAD + SIG_BYTES


class Certificate(Statement):
    """A content tuple signed by a quorum of keys (the last field,
    ``sigs``), verified once per ``(ring, quorum)`` per instance."""

    #: A bootstrap certificate is valid by convention.
    is_genesis = False

    def __init_subclass__(cls, of: Optional[type] = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if of is not None:
            cls.DOMAIN = of.DOMAIN
            of.QUORUM = cls

    @property
    def sig_count(self) -> int:
        return len(self.sigs)

    def signer_ids(self) -> tuple[int, ...]:
        return tuple(s.signer for s in self.sigs)

    def verify(self, ring: KeyRing, quorum: int = 1) -> bool:
        """Genesis, or ``quorum`` distinct signers all over the content."""
        if self.is_genesis or seen_valid(self, ring, quorum):
            return True
        if len({s.signer for s in self.sigs}) < quorum:
            return False
        if not ring.verify_all(self.digest(), self.sigs):
            return False
        record_valid(self, ring, quorum)
        return True

    def wire_size(self) -> int:
        return self.HEAD + SIG_BYTES * len(self.sigs)


__all__ = ["SIG_BYTES", "Statement", "Certificate"]
