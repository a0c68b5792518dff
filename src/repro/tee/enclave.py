"""Enclave base class: sealed state + ecall cost accounting.

An :class:`Enclave` models an SGX enclave hosting a trusted service
(the paper's CHECKER and ACCUMULATOR).  Its guarantees:

* the private signing key never leaves the enclave — only the enclave
  object can produce signatures attributable to its owner;
* internal counters (view, phase, prepv, ...) are mutated only through
  the service's entry points, which enforce the paper's checks;
* every entry ("ecall") accrues the SGX world-switch overhead plus the
  cost of any crypto performed inside; the hosting replica drains the
  accrued time onto its CPU.

Byzantine replicas in :mod:`repro.faults` interact with enclaves only
through these entry points, mirroring the hybrid fault model of
Sec. IV ("at each faulty node all components can be tampered with
except the ones providing these trusted services").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..crypto import CryptoCostModel, Digest, KeyPair, KeyRing, Signature


@dataclass(frozen=True)
class TeeCostModel:
    """Overheads of crossing the trusted boundary (seconds)."""

    #: SGX ecall/ocall world-switch round trip.
    ecall_overhead: float = 20e-6
    #: Slowdown of crypto executed *inside* the enclave relative to the
    #: untrusted side (EPC paging, in-enclave OpenSSL) — protocols that
    #: verify quorums inside their TEE (Damysus's accumulator/store) pay
    #: this on every view.
    crypto_factor: float = 2.0

    @staticmethod
    def free() -> "TeeCostModel":
        return TeeCostModel(ecall_overhead=0.0, crypto_factor=1.0)


class Enclave:
    """Base for trusted services; subclasses implement the service API."""

    def __init__(
        self,
        owner: int,
        keypair: KeyPair,
        ring: KeyRing,
        crypto_costs: CryptoCostModel,
        tee_costs: TeeCostModel,
    ) -> None:
        if keypair.owner != owner:
            raise ValueError("enclave key must be bound to the owner id")
        self.owner = owner
        self._key = keypair
        self._ring = ring
        self._crypto = crypto_costs
        self._tee = tee_costs
        self._accrued = 0.0
        self.ecalls = 0

    # ------------------------------------------------------------------
    # Cost accounting (drained by the hosting replica onto its CPU)
    # ------------------------------------------------------------------
    def _enter(self) -> None:
        """Record one trusted-boundary crossing."""
        self.ecalls += 1
        self._accrued += self._tee.ecall_overhead

    def _charge(self, seconds: float) -> None:
        self._accrued += seconds

    def drain_cost(self) -> float:
        """Return and reset the CPU time accrued since the last drain."""
        c = self._accrued
        self._accrued = 0.0
        return c

    # ------------------------------------------------------------------
    # In-enclave crypto (cost-charged)
    # ------------------------------------------------------------------
    def _sign(self, digest: Digest) -> Signature:
        self._charge(self._crypto.sign() * self._tee.crypto_factor)
        return self._key.sign(digest)

    def _issue(self, cls: type, *content: Any) -> Any:
        """The ``cls`` statement of ``content``, signed by this enclave."""
        return cls(*content, self._sign(cls.content_digest(*content)))

    def _verify(self, digest: Digest, sig: Signature) -> bool:
        self._charge(self._crypto.verify() * self._tee.crypto_factor)
        return self._ring.verify(digest, sig)

    def _verify_many(self, digest: Digest, sigs: tuple[Signature, ...]) -> bool:
        self._charge(self._crypto.verify(len(sigs)) * self._tee.crypto_factor)
        return all(self._ring.verify(digest, s) for s in sigs)


__all__ = ["Enclave", "TeeCostModel"]
