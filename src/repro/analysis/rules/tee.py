"""TEE-encapsulation rule: enclave state is reachable only via ecalls.

The hybrid fault model (Sec. IV) assumes that at a faulty node "all
components can be tampered with except the ones providing these
trusted services".  The simulation keeps that assumption honest by
construction: everything an :class:`~repro.tee.enclave.Enclave`
protects — the signing key, the accrued-cost ledger, the monotonic
counters — may be touched only by code standing in for the enclave
itself.  That code lives in ``repro/tee/`` and in the trusted-service
subclasses (``repro/core/tee_services.py``,
``repro/protocols/*/tee_services.py``).

Everywhere else:

* any access (read or write) to the enclave-private attributes
  (``_key``, ``_accrued``, ``_ring``, ``_crypto``, ``_tee``,
  ``_enter``, ``_charge``, ``_sign``, ``_sign_batch``, ``_verify``,
  ``_verify_many``) is flagged — untrusted code cannot even *name*
  sealed state;
* the closure escape hatches (``__closure__``, ``cell_contents``) are
  policed the same way: :mod:`repro.crypto.keys` keeps each key
  schedule only in the cells of a tag and a check closure, so these
  two names are the one way to reach it, and ``keys.py`` is the only
  trusted module that may use them;
* writes to the trusted counters (``ecalls``, and ``view``/``phase``/
  ``prepv``-style step counters) on any receiver other than ``self``
  are flagged — replicas may read a checker's view (a getter ecall in
  real SGX) but never rewind or advance it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..findings import Finding
from .base import ModuleInfo, Rule

#: Modules allowed to touch enclave internals.  ``crypto/keys.py`` is
#: the simulated key-asymmetry boundary: it builds the closures that
#: hold the key schedules.
DEFAULT_TRUSTED: tuple[str, ...] = (
    "repro/tee/",
    "repro/core/tee_services.py",
    "repro/protocols/*/tee_services.py",
    "repro/crypto/keys.py",
)

#: Attributes private to the enclave, plus the two names that open a
#: closure's cells (where the key schedules live); any access outside
#: the trusted modules is a breach.
PRIVATE_ATTRS: frozenset[str] = frozenset(
    {
        "_key",
        "_accrued",
        "_ring",
        "_crypto",
        "_tee",
        "_enter",
        "_charge",
        "_sign",
        "_sign_batch",
        "_verify",
        "_verify_many",
        "__closure__",
        "cell_contents",
    }
)

#: Trusted monotonic counters: reads are a getter ecall, writes are a
#: rollback/fast-forward attack and must go through an entry point.
COUNTER_ATTRS: frozenset[str] = frozenset(
    {"ecalls", "view", "phase", "prepv", "prep_view", "prep_hash", "step"}
)


def _receiver_is_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


class TeeEncapsulationRule(Rule):
    """Enclave-private state only via ecall entry points."""

    name = "tee-encapsulation"
    description = (
        "enclave keys/cost ledger/counters and closure cells reachable "
        "only from repro/tee, */tee_services.py and crypto/keys.py"
    )
    paper_ref = "Sec. IV (hybrid fault model), Fig. 5c (trusted services)"

    def __init__(self, trusted: Sequence[str] = DEFAULT_TRUSTED) -> None:
        self.trusted = tuple(trusted)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.matches_any(self.trusted):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in PRIVATE_ATTRS:
                yield self.finding(
                    module,
                    node,
                    f"access to enclave-private attribute {node.attr!r} "
                    f"outside the trusted modules",
                )
            elif (
                node.attr in COUNTER_ATTRS
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and not _receiver_is_self(node)
            ):
                yield self.finding(
                    module,
                    node,
                    f"write to trusted counter {node.attr!r} on a foreign "
                    f"object — counters advance only inside ecalls",
                )


__all__ = ["TeeEncapsulationRule", "PRIVATE_ATTRS", "COUNTER_ATTRS", "DEFAULT_TRUSTED"]
