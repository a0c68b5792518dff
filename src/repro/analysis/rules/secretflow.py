"""TEE secret-taint pass: key material never escapes the trusted base.

The reproduction models enclave-held signing keys as
:class:`~repro.crypto.keys.KeyPair` objects whose ``_secret`` bytes are
the simulation's stand-in for sealed TEE state (OneShot Sec. II-C: the
attested counter/signing service is trusted *because* the key cannot
leave it).  The per-file ``tee`` rule already forbids *syntactic*
``._secret`` access outside the trusted modules; this pass closes the
interprocedural gap — a helper inside ``crypto`` that returns the secret,
stores it on a public attribute, embeds it in a message, or logs it
would pass the per-file rule while still leaking the key to arbitrary
callers.

Model:

* **sources** — reads of ``_secret``/``_kp`` and of the ``_inner``/
  ``_outer`` HMAC key schedule (states that can forge tags) anywhere,
  and the ``secret`` constructor parameter inside ``crypto/keys.py``;
* **sanitizers** — ``hmac.new``, ``hmac.compare_digest``,
  ``hashlib.sha256`` and a hash state's ``.digest()``: a MAC tag or
  digest *proves knowledge of* the key without revealing it, which is
  exactly the simulated-signature contract;
* **sinks** — any use in a module outside ``repro/tee/`` +
  ``repro/crypto/``; a return from a public (non-underscore) function
  even inside the trusted base; a store onto a public attribute; a
  secret-tainted argument to ``print``/``logging``/``repr`` or to the
  construction of a frozen message/cert dataclass.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from ..dataflow import FlowSpec, analyze
from ..findings import Finding
from .base import ProjectRule

if TYPE_CHECKING:
    from ..callgraph import FunctionInfo, ProjectIndex

#: Modules allowed to hold raw key material (the simulated TCB).
TRUSTED_PATHS: tuple[str, ...] = ("repro/tee/", "repro/crypto/")

#: Attribute names whose *read* introduces secret taint.
SECRET_ATTRS: frozenset[str] = frozenset({"_secret", "_inner", "_outer", "_kp"})

#: Module whose ``secret``-named parameters carry key material.
KEY_MODULE = "repro/crypto/keys.py"

#: Calls that consume the secret without revealing it.
SANITIZERS: frozenset[str] = frozenset(
    {"hmac.new", "hmac.compare_digest", "hmac.digest", "hashlib.sha256"}
)

#: External call targets that would externalize the secret.
LEAKY_CALLS: tuple[str, ...] = ("print", "repr", "format")
LEAKY_PREFIXES: tuple[str, ...] = ("logging.",)

_LABEL = "secret"


def _is_trusted(module: str) -> bool:
    return any(module.startswith(p) for p in TRUSTED_PATHS)


class _SecretFlowSpec(FlowSpec):
    name = "secret-flow"

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    # -- sources -------------------------------------------------------
    def source_label(
        self, node: ast.expr, fn: FunctionInfo, index: ProjectIndex
    ) -> Optional[str]:
        if isinstance(node, ast.Attribute) and node.attr in SECRET_ATTRS:
            return _LABEL
        return None

    def param_source(self, fn: FunctionInfo, name: str) -> Optional[str]:
        if fn.module == KEY_MODULE and name == "secret":
            return _LABEL
        return None

    # -- sanitizers ----------------------------------------------------
    def sanitizes(self, target: Optional[str], node: ast.Call) -> bool:
        # ``state.digest()`` finishes a keyed hash state into a tag.
        return target in SANITIZERS or getattr(node.func, "attr", None) == "digest"

    # -- sinks ---------------------------------------------------------
    def check_use(self, fn, stmt, taints) -> Iterator[tuple[ast.AST, str]]:
        if _is_trusted(fn.module):
            return
        if any(t.label == _LABEL for t in taints):
            origin = min(t.origin for t in taints if t.label == _LABEL)
            yield (
                stmt,
                f"TEE secret key material (from {origin}) reaches untrusted "
                f"module {fn.module} — secrets must stay inside "
                f"{'/'.join(p.rstrip('/') for p in TRUSTED_PATHS)}",
            )

    def check_return(self, fn, node, taints) -> Iterator[tuple[ast.AST, str]]:
        if not any(t.label == _LABEL for t in taints):
            return
        if _is_trusted(fn.module) and fn.name.startswith("_"):
            return  # private helper inside the TCB: callers are audited
        yield (
            node,
            f"public function {fn.qualname} returns secret key material — "
            f"expose a MAC/digest of it instead (hmac.new proves knowledge "
            f"without revealing the key)",
        )

    def check_call(
        self, fn, node, target, arg_taints
    ) -> Iterator[tuple[ast.AST, str]]:
        if not any(t.label == _LABEL for ts in arg_taints for t in ts):
            return
        if target in LEAKY_CALLS or (
            target is not None
            and any(target.startswith(p) for p in LEAKY_PREFIXES)
        ):
            yield (
                node,
                f"secret key material passed to {target}() — key bytes must "
                f"never reach logs or console output",
            )
            return
        if target is not None and target in self.index.classes:
            cls = self.index.classes[target]
            if cls.is_dataclass and cls.frozen and not _is_trusted(cls.module):
                yield (
                    node,
                    f"secret key material stored into message/cert field of "
                    f"{target} — messages cross the (simulated) enclave "
                    f"boundary",
                )

    def check_store(
        self, fn, node, owner, attr, taints
    ) -> Iterator[tuple[ast.AST, str]]:
        if not any(t.label == _LABEL for t in taints):
            return
        if attr.startswith("_") and _is_trusted(fn.module):
            return
        yield (
            node,
            f"secret key material stored on public attribute "
            f"{(owner or '?')}.{attr} — sealed state must live on "
            f"underscore attributes inside the trusted base",
        )


class SecretFlowRule(ProjectRule):
    """Interprocedural: key material never leaves repro.tee / repro.crypto."""

    name = "secret-flow"
    description = (
        "TEE key material must not reach returns, message fields, logs or "
        "attributes outside the trusted base (interprocedural taint)"
    )
    paper_ref = "Sec. II-C (TEE services hold sealed keys); repro.crypto.keys"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for hit in analyze(index, _SecretFlowSpec(index)):
            yield self.finding_at(hit.fn.module, hit.node, hit.message)


__all__ = [
    "KEY_MODULE",
    "LEAKY_CALLS",
    "SANITIZERS",
    "SECRET_ATTRS",
    "SecretFlowRule",
    "TRUSTED_PATHS",
]
