"""Every signed statement in ``src/repro`` has its own domain tag.

A signature over ``digest_of(DOMAIN, *content)`` must never verify as a
different kind of statement, so no two :class:`repro.crypto.Statement`
classes may share a ``DOMAIN``.  The one exception is a statement and
its ``QUORUM`` certificate: a quorum certificate *is* f+1 signatures of
that statement, so both sign the same content under the same tag, and
their content fields must then be the same names in the same order.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from dataclasses import dataclass

import pytest

import repro
from repro.crypto import Digest, Signature
from repro.crypto.signed import Certificate, Statement

pytestmark = pytest.mark.lint


def statement_classes(root: type = Statement) -> list[type]:
    """Every class below ``root`` that declares a domain, depth first."""
    out = []
    for cls in root.__subclasses__():
        if hasattr(cls, "DOMAIN"):
            out.append(cls)
        out += statement_classes(cls)
    return out


def content_names(cls: type) -> list[str]:
    """The signed fields: every dataclass field but the signature(s)."""
    return [f.name for f in dataclasses.fields(cls)][:-1]


def violations(classes: list[type]) -> list[str]:
    """One message per domain tag that more than one class signs under,
    unless the two are a statement and its quorum certificate with the
    same content fields."""
    by_domain: dict[str, list[type]] = {}
    for cls in classes:
        by_domain.setdefault(cls.DOMAIN, []).append(cls)
    out = []
    for domain, group in sorted(by_domain.items()):
        if len(group) == 1:
            continue
        names = ", ".join(c.__name__ for c in group)
        a, b = group[0], group[-1]
        if len(group) > 2 or not (a.QUORUM is b or b.QUORUM is a):
            out.append(f"domain {domain!r} is shared by {names}")
        elif content_names(a) != content_names(b):
            out.append(f"domain {domain!r}: {names} sign different fields")
    return out


def repro_statements() -> list[type]:
    """The statement classes of ``src/repro`` (every module imported)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [c for c in statement_classes() if c.__module__.startswith("repro.")]


# -- planted cases -----------------------------------------------------
def _statement(name: str, domain: str, fields: dict[str, type]) -> type:
    body = {"DOMAIN": domain, "HEAD": 8, "__annotations__": {**fields, "sig": Signature}}
    return dataclass(frozen=True)(type(name, (Statement,), body))


def _certificate(name: str, of: type, fields: dict[str, type]) -> type:
    body = {"HEAD": 8, "__annotations__": {**fields, "sigs": tuple}}
    return dataclass(frozen=True)(type(name, (Certificate,), body, of=of))


def test_flags_two_statements_under_one_domain():
    a = _statement("PlantedA", "planted", {"view": int})
    b = _statement("PlantedB", "planted", {"view": int})
    [message] = violations([a, b])
    assert "'planted'" in message and "PlantedA" in message


def test_a_statement_and_its_quorum_may_share_a_domain():
    vote = _statement("PlantedVote", "planted-vote", {"h": Digest, "view": int})
    cert = _certificate("PlantedCert", vote, {"h": Digest, "view": int})
    assert cert.DOMAIN == "planted-vote" and vote.QUORUM is cert
    assert violations([vote, cert]) == []


def test_flags_a_quorum_that_signs_other_fields():
    vote = _statement("PlantedVote2", "planted-vote2", {"h": Digest, "view": int})
    cert = _certificate("PlantedCert2", vote, {"view": int, "h": Digest})
    [message] = violations([vote, cert])
    assert "different fields" in message


def test_flags_a_third_class_beside_a_pair():
    vote = _statement("PlantedVote3", "planted-vote3", {"view": int})
    cert = _certificate("PlantedCert3", vote, {"view": int})
    other = _statement("PlantedOther3", "planted-vote3", {"view": int})
    assert len(violations([vote, cert, other])) == 1


# -- the real tree -----------------------------------------------------
def test_source_tree_statements_have_distinct_domains():
    classes = repro_statements()
    assert len(classes) >= 13
    assert violations(classes) == []
