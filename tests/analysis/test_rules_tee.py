"""TEE-encapsulation rule: enclave internals only behind ecalls."""

from repro.analysis import LintEngine
from repro.analysis.rules import TeeEncapsulationRule


def lint(source: str, path: str = "repro/faults/byzantine.py"):
    return LintEngine(rules=[TeeEncapsulationRule()]).check_source(source, path=path)


# -- positives ---------------------------------------------------------
def test_flags_key_exfiltration():
    findings = lint("def attack(enclave):\n    return enclave._key\n")
    assert len(findings) == 1
    assert "_key" in findings[0].message


def test_flags_cost_ledger_tampering():
    assert lint("def attack(enclave):\n    enclave._accrued = 0.0\n")


def test_flags_calling_internal_crypto():
    assert lint("def attack(e, d):\n    return e._sign(d)\n")
    assert lint("def attack(e, d, s):\n    return e._verify(d, s)\n")


def test_flags_entering_without_entry_point():
    assert lint("def attack(e):\n    e._enter()\n")


def test_flags_counter_rewind_on_foreign_object():
    findings = lint("def rollback(checker):\n    checker.view = 0\n")
    assert len(findings) == 1
    assert "counter" in findings[0].message
    assert lint("def rollback(checker):\n    checker.prepv = -1\n")
    assert lint("def rollback(checker):\n    del checker.ecalls\n")


def test_flags_in_any_untrusted_module():
    src = "def f(e):\n    return e._accrued\n"
    assert lint(src, path="repro/core/replica.py")
    assert lint(src, path="repro/experiments/runner.py")


# -- negatives ---------------------------------------------------------
def test_trusted_modules_are_allowed():
    src = "def f(self):\n    self._enter()\n    return self._key\n"
    assert lint(src, path="repro/tee/enclave.py") == []
    assert lint(src, path="repro/tee/rote.py") == []
    assert lint(src, path="repro/core/tee_services.py") == []
    assert lint(src, path="repro/protocols/damysus/tee_services.py") == []
    assert lint(src, path="repro/protocols/oneshot/tee_services.py") == []


def test_reading_counters_is_a_getter_ecall():
    # Replicas may read the checker's view; they may not write it.
    assert lint("def f(r):\n    return r.checker.view\n") == []


def test_writing_own_view_is_fine():
    # A replica's own (untrusted) view counter is not enclave state.
    assert lint("def f(self):\n    self.view = self.view + 1\n") == []


def test_public_entry_points_are_fine():
    assert (
        lint(
            "def f(checker, h):\n"
            "    prop = checker.tee_prepare(h)\n"
            "    cost = checker.drain_cost()\n"
            "    return prop, cost\n"
        )
        == []
    )


def test_unrelated_private_attrs_are_fine():
    assert lint("def f(self):\n    return self._keys\n") == []


# -- fast-path additions (PR 3) ----------------------------------------
def test_flags_batched_sign_outside_enclave():
    assert lint("def attack(e, ds):\n    return e._sign_batch(ds)\n")


def test_flags_raw_secret_access():
    findings = lint("def attack(kp):\n    return kp._secret\n")
    assert len(findings) == 1
    assert "_secret" in findings[0].message
    assert lint("def attack(pk, d, s):\n    return pk._check_tag(d, s)\n")
    assert lint("def attack(pk):\n    return pk._kp\n")


def test_flags_key_schedule_access():
    for attr in ("_inner", "_outer"):
        findings = lint(f"def attack(kp, d):\n    return kp.{attr}.copy()\n")
        assert len(findings) == 1
        assert attr in findings[0].message
        src = f"def _tag(self, d):\n    return self.{attr}.copy()\n"
        assert lint(src, path="repro/crypto/keys.py") == []


def test_keys_module_is_the_trusted_secret_holder():
    src = "def _check_tag(self, d, t):\n    return self._kp is not None\n"
    assert lint(src, path="repro/crypto/keys.py") == []
