"""Deep-immutability pass: frozen messages are frozen all the way down.

Protocol messages, certificates and blocks are frozen dataclasses so
that a replica can hand a reference to another replica (the simulation
"sends" by reference) without either side being able to mutate shared
state — the in-memory analogue of serialization.  ``frozen=True`` only
freezes the *top* layer: a ``tuple[Signature, ...]`` field is safe, but
a ``list`` — or a tuple of unfrozen dataclasses — re-opens the channel
one level down, and ``__hash__``/digest caching silently keys on state
that can change.

This pass walks every field annotation of every frozen dataclass in the
message/cert/block modules *transitively*: type aliases
(``QuorumCert = Union[...]``, ``Digest = bytes``) are expanded, frozen
dataclasses recurse into their own fields, and the first mutable
container reachable on any path is reported at the field that reaches
it, with the path spelled out.  Plain (non-dataclass) project classes
and unknown external types are treated as opaque — the per-file
``frozen-message`` rule already guards the declaration sites.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from ..findings import Finding
from .base import ProjectRule, dotted_name

if TYPE_CHECKING:
    from ..callgraph import ProjectIndex

#: Modules whose frozen dataclasses are wire-format payloads.
PAYLOAD_FILES: tuple[str, ...] = (
    "messages.py",
    "certificates.py",
    "block.py",
)

#: Container/type names (last dotted segment) that are mutable.
MUTABLE_TYPES: frozenset[str] = frozenset(
    {
        "list", "List", "dict", "Dict", "set", "Set", "bytearray",
        "deque", "Deque", "defaultdict", "DefaultDict", "Counter",
        "OrderedDict", "MutableMapping", "MutableSequence", "MutableSet",
        "ndarray", "array",
    }
)

#: Frozen dataclasses whose ``ndarray`` fields are read-only at run
#: time: every constructor clears the arrays' WRITEABLE flag.  An entry
#: needs a test that writing any of its columns or fields raises
#: (``_Columns``: tests/unit/test_smr_txbatch.py::TestFrozenSlab).
READ_ONLY_ARRAY_OWNERS: frozenset[str] = frozenset(
    {"repro.smr.transaction._Columns"}
)

#: Immutable leaves — no need to recurse.
IMMUTABLE_LEAVES: frozenset[str] = frozenset(
    {
        "int", "float", "str", "bytes", "bool", "complex", "None",
        "NoneType", "object", "Digest",
    }
)

#: Generic wrappers to recurse through: parameters stay payload state.
_RECURSE_GENERICS: frozenset[str] = frozenset(
    {"tuple", "Tuple", "frozenset", "FrozenSet", "Optional", "Union",
     "ClassVar", "Final", "Annotated"}
)

_OPAQUE_GENERICS: frozenset[str] = frozenset({"Literal", "Callable", "Type"})


def is_payload_module(path: str) -> bool:
    return path.rsplit("/", 1)[-1] in PAYLOAD_FILES


class DeepFreezeRule(ProjectRule):
    """No mutable container reachable through a frozen payload field."""

    name = "deep-freeze"
    description = (
        "frozen message/cert dataclass fields must be transitively "
        "immutable (no list/dict/set/unfrozen dataclass at any depth)"
    )
    paper_ref = "Sec. IV (signed messages are immutable once sent)"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.classes.values():
            if not (cls.is_dataclass and cls.frozen):
                continue
            if not is_payload_module(cls.module):
                continue
            for fname, ann in cls.fields.items():
                chain = self._classify(
                    index, ann, cls.module, [cls.name], frozenset({cls.qualname})
                )
                if chain is not None:
                    yield self.finding_at(
                        cls.module,
                        ann,
                        f"field {cls.name}.{fname} reaches mutable type via "
                        f"{' -> '.join(chain)} — frozen payloads must be "
                        f"immutable at every depth (tuple/frozenset/frozen "
                        f"dataclass)",
                    )

    # ------------------------------------------------------------------
    def _classify(
        self,
        index: ProjectIndex,
        ann: Optional[ast.expr],
        module: str,
        stack: list[str],
        seen: frozenset[str] = frozenset(),
    ) -> Optional[list[str]]:
        """Mutability chain reachable from ``ann``, or None if frozen."""
        if ann is None or len(stack) > 12:
            return None
        if isinstance(ann, ast.Constant):
            if ann.value is None or ann.value is Ellipsis:
                return None
            if isinstance(ann.value, str):
                try:
                    parsed = ast.parse(ann.value, mode="eval").body
                except SyntaxError:
                    return None
                return self._classify(index, parsed, module, stack, seen)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._classify(
                index, ann.left, module, stack, seen
            ) or self._classify(index, ann.right, module, stack, seen)
        if isinstance(ann, ast.Subscript):
            base = dotted_name(ann.value).split(".")[-1]
            if base in MUTABLE_TYPES:
                return stack + [base]
            if base in _OPAQUE_GENERICS:
                return None
            if base in _RECURSE_GENERICS:
                elts = (
                    ann.slice.elts
                    if isinstance(ann.slice, ast.Tuple)
                    else [ann.slice]
                )
                for elt in elts:
                    chain = self._classify(index, elt, module, stack, seen)
                    if chain is not None:
                        return chain
                return None
            # Unknown generic: classify its base name below.
            return self._classify(index, ann.value, module, stack, seen)
        name = dotted_name(ann)
        if not name:
            return None
        last = name.split(".")[-1]
        if last in MUTABLE_TYPES:
            return stack + [last]
        if last in IMMUTABLE_LEAVES:
            return None
        resolved = index.resolve_dotted(module, name)
        if resolved in seen:
            return None  # recursive payload type: cycle already audited
        seen = seen | {resolved}
        if resolved in index.classes:
            target = index.classes[resolved]
            if target.is_dataclass and not target.frozen:
                return stack + [f"{target.name} (unfrozen dataclass)"]
            if target.is_dataclass and target.frozen:
                for fname, fann in target.fields.items():
                    if resolved in READ_ONLY_ARRAY_OWNERS and dotted_name(
                        fann
                    ).endswith("ndarray"):
                        continue
                    chain = self._classify(
                        index,
                        fann,
                        target.module,
                        stack + [f"{target.name}.{fname}"],
                        seen,
                    )
                    if chain is not None:
                        return chain
            return None  # plain class: opaque, guarded elsewhere
        if resolved in index.type_aliases:
            owner_mod = resolved.rsplit(".", 1)[0]
            owner_path = index.modname_to_path.get(owner_mod, module)
            return self._classify(
                index,
                index.type_aliases[resolved],
                owner_path,
                stack + [last],
                seen,
            )
        return None


__all__ = [
    "DeepFreezeRule",
    "IMMUTABLE_LEAVES",
    "MUTABLE_TYPES",
    "PAYLOAD_FILES",
    "READ_ONLY_ARRAY_OWNERS",
    "is_payload_module",
]
