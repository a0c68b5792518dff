"""Planted bugs: deliberately broken TEE guards for oracle self-tests.

A fuzzer whose oracles can never fire is untestable.  This module
plants the exact vulnerability the CHECKER's view-monotonicity
counters exist to prevent (Sec. IV / Lemma 1): with the guard
disabled, an equivocating leader can certify *two* proposals in one
view and double-store, which is precisely the state a successful
rollback attack restores.  Under :func:`broken_checker_guard` the
:class:`~repro.faults.byzantine.Equivocator`'s split-brain attack goes
all the way to a fork, and the fuzzer's safety oracle must catch it —
that end-to-end path is asserted by the planted-bug test and is the
calibration story told in ``docs/fuzzing.md``.

The patch is *fallback-only*: the original entry points run first, and
the relaxed paths engage only after the original refused a
double-prepare — something honest replicas never attempt (their
``_led_view`` bookkeeping calls ``TEEprepare`` once per view).  Clean
runs under the planted bug are therefore bit-identical to unpatched
runs, so the planted-bug fuzz loop measures oracle sensitivity, not
patch noise.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.certificates import Proposal, StoreCert
from repro.core.tee_services import Checker


@contextmanager
def broken_checker_guard() -> Iterator[None]:
    """Disable the CHECKER's once-per-view monotonicity guard.

    While active: a second ``TEEprepare`` in the same view succeeds
    (and marks the view as compromised on that enclave), and a second
    ``TEEstore`` for a compromised view re-issues a store certificate
    for the already-spent view counter — the double-store a rollback
    attack enables.  Only enclaves actually driven through the
    double-prepare path behave differently.
    """
    orig_prepare = Checker.tee_prepare
    orig_store = Checker.tee_store

    def buggy_prepare(self: Checker, h):
        out = orig_prepare(self, h)
        if out is not None:
            return out
        # Guard disabled: certify a second proposal in the same view.
        # The planted bug impersonates the enclave's own signing path —
        # reaching its private internals is the point of the sabotage
        # (and why this module lives in tests/, not in the package).
        self._evil_view = self.view
        return self._issue(Proposal, h, self.view)

    def buggy_store(self: Checker, prop):
        if (
            getattr(self, "_evil_view", None) == prop.view
            and self.view == prop.view + 1
            and self.prepv == prop.view
            and self._verify_proposal(prop)
        ):
            # Guard disabled: re-issue a certificate for a view whose
            # counter was already spent (no increment — the rollback).
            self._enter()
            return self._issue(StoreCert, prop.view, prop.block_hash, prop.view)
        return orig_store(self, prop)

    Checker.tee_prepare = buggy_prepare  # type: ignore[method-assign]
    Checker.tee_store = buggy_store  # type: ignore[method-assign]
    try:
        yield
    finally:
        Checker.tee_prepare = orig_prepare  # type: ignore[method-assign]
        Checker.tee_store = orig_store  # type: ignore[method-assign]


__all__ = ["broken_checker_guard"]
