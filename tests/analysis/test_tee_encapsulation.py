"""Enclave state in ``src/repro`` is reachable only through ecalls.

The hybrid fault model (Sec. IV) lets a faulty node tamper with
everything but its trusted services.  Outside the trusted modules this
bans any access to an enclave-private attribute or to ``__closure__``
/ ``cell_contents`` (the key schedules live in closure cells), and any
write to a trusted counter on a receiver other than ``self``: reading
a checker's view is a getter ecall, rewinding it is a rollback.  Every
node is walked, so nested defs, lambdas and class bodies count at
their own line (docs/invariants.md, ``tee-encapsulation``).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

import pytest

from .astwalk import tree_violations

pytestmark = pytest.mark.lint

#: Modules allowed to touch enclave internals: ``crypto/keys.py``
#: builds the closures that hold the key schedules.
TRUSTED = (
    "repro/tee/*",
    "repro/core/tee_services.py",
    "repro/protocols/*/tee_services.py",
    "repro/crypto/keys.py",
)

#: Enclave-private attributes, and the two names that open a closure.
PRIVATE_ATTRS = frozenset({
    "_key", "_accrued", "_ring", "_crypto", "_tee", "_enter", "_charge",
    "_sign", "_sign_batch", "_issue", "_verify", "_verify_many",
    "__closure__", "cell_contents",
})

#: Trusted monotonic counters: a write must go through an entry point.
COUNTER_ATTRS = frozenset(
    {"ecalls", "view", "phase", "prepv", "prep_view", "prep_hash", "step"}
)


def violations(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """``(line, message)`` of each breach of the enclave boundary."""
    if any(fnmatch(path, pattern) for pattern in TRUSTED):
        return []
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in PRIVATE_ATTRS:
            out.append((node.lineno, f"enclave-private {node.attr!r}"))
        elif (
            node.attr in COUNTER_ATTRS
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            out.append((node.lineno, f"write to trusted counter {node.attr!r}"))
    return out


def breaches(source: str, path: str = "repro/faults/byzantine.py"):
    return violations(ast.parse(source), path)


# -- positives ---------------------------------------------------------
def test_flags_key_exfiltration():
    [(_, message)] = breaches("def attack(enclave):\n    return enclave._key\n")
    assert "_key" in message


def test_flags_cost_ledger_tampering():
    assert breaches("def attack(enclave):\n    enclave._accrued = 0.0\n")


def test_flags_calling_internal_crypto():
    assert breaches("def attack(e, d):\n    return e._sign(d)\n")
    assert breaches("def attack(e, d, s):\n    return e._verify(d, s)\n")


def test_flags_entering_without_entry_point():
    assert breaches("def attack(e):\n    e._enter()\n")


def test_flags_counter_rewind_on_foreign_object():
    [(_, message)] = breaches("def rollback(checker):\n    checker.view = 0\n")
    assert "counter" in message
    assert breaches("def rollback(checker):\n    checker.prepv = -1\n")
    assert breaches("def rollback(checker):\n    del checker.ecalls\n")


def test_flags_in_any_untrusted_module():
    src = "def f(e):\n    return e._accrued\n"
    assert breaches(src, path="repro/core/replica.py")
    assert breaches(src, path="repro/experiments/runner.py")


def test_flags_minting_a_statement_outside_enclave():
    # ``_issue`` signs any content as the enclave, skipping the
    # CHECKER's checks that its entry points run first.
    [(_, message)] = breaches(
        "def attack(checker, h, v):\n"
        "    return checker._issue(Proposal, h, v)\n",
        path="repro/core/replica.py",
    )
    assert "_issue" in message


def test_flags_batched_sign_outside_enclave():
    assert breaches("def attack(e, ds):\n    return e._sign_batch(ds)\n")


def test_flags_raw_secret_access():
    # The key schedule lives only in the cells of the KeyPair's closures.
    [(_, message)] = breaches("def attack(kp):\n    return kp._tag.__closure__\n")
    assert "__closure__" in message
    [(_, message)] = breaches("def attack(cell):\n    return cell.cell_contents\n")
    assert "cell_contents" in message


#: (source, line of the breach) for reads that reach the signing key
#: through a closure, or an enclave key from code nested in a function.
NESTED_LEAKS = {
    "closure-cells": (
        "def attack(kp):\n"
        "    cells = kp._tag.__closure__\n"
        "    return cells\n",
        2,
    ),
    "cell-contents": (
        "def attack(cells):\n"
        "    x = 1\n"
        "    return [c.cell_contents for c in cells]\n",
        3,
    ),
    "nested-def": (
        "def outer(enclave):\n"
        "    def leak():\n"
        "        return enclave._key\n"
        "    return leak\n",
        3,
    ),
    "lambda": (
        "def outer(enclave):\n"
        "    x = 1\n"
        "    return lambda: enclave._key\n",
        3,
    ),
    "class-in-function": (
        "def outer(enclave):\n"
        "    class Leak:\n"
        "        x = 1\n"
        "        key = enclave._key\n"
        "    return Leak\n",
        4,
    ),
}


@pytest.mark.parametrize("case", sorted(NESTED_LEAKS))
def test_flags_key_schedule_access(case):
    source, line = NESTED_LEAKS[case]
    found = breaches(source, path="repro/protocols/oneshot/replica.py")
    assert [at for at, _ in found] == [line]
    # The key module builds the closures and may open them.
    assert breaches(source, path="repro/crypto/keys.py") == []


# -- negatives ---------------------------------------------------------
def test_trusted_modules_are_allowed():
    src = "def f(self):\n    self._enter()\n    return self._key\n"
    assert breaches(src, path="repro/tee/enclave.py") == []
    assert breaches(src, path="repro/tee/rote.py") == []
    assert breaches(src, path="repro/core/tee_services.py") == []
    assert breaches(src, path="repro/protocols/damysus/tee_services.py") == []
    assert breaches(src, path="repro/protocols/oneshot/tee_services.py") == []


def test_keys_module_is_the_trusted_secret_holder():
    src = "def _tag(f):\n    return f.__closure__[0].cell_contents\n"
    assert breaches(src, path="repro/crypto/keys.py") == []


def test_reading_counters_is_a_getter_ecall():
    # Replicas may read the checker's view; they may not write it.
    assert breaches("def f(r):\n    return r.checker.view\n") == []


def test_writing_own_view_is_fine():
    # A replica's own (untrusted) view counter is not enclave state.
    assert breaches("def f(self):\n    self.view = self.view + 1\n") == []


def test_public_entry_points_are_fine():
    src = (
        "def f(checker, h):\n"
        "    prop = checker.tee_prepare(h)\n"
        "    cost = checker.drain_cost()\n"
        "    return prop, cost\n"
    )
    assert breaches(src) == []


def test_unrelated_private_attrs_are_fine():
    assert breaches("def f(self):\n    return self._keys\n") == []


# -- the real tree -----------------------------------------------------
def test_source_tree_keeps_enclave_state_behind_ecalls():
    found = tree_violations(violations)
    assert found == [], "enclave state reached outside the trusted modules"
