"""Project-wide symbol table and call graph.

The per-file rules of :mod:`repro.analysis.rules` see one module at a
time; the interprocedural passes (stream purity, secret taint,
substrate boundaries, deep immutability) need to follow a value across
function and module boundaries.  :class:`ProjectIndex` is the shared
substrate they run on:

* a **symbol table** — every top-level function, every class with its
  methods, dataclass fields and (best-effort) attribute types, every
  module-level type alias;
* **import resolution** — per-module alias maps that understand
  relative imports and follow ``__init__`` re-export chains, so
  ``repro.sim.Simulator`` resolves to
  ``repro.sim.simulator.Simulator``;
* **type-inference lite** — parameter annotations, ``self``,
  constructor-call assignments and attribute chains give most
  receivers a concrete class, which is what lets a call like
  ``self.sim.schedule(...)`` resolve to
  ``Simulator.schedule`` without executing anything;
* the **call graph** itself — every ``ast.Call`` mapped to a project
  function/class qualname or an external dotted name, with forward and
  reverse edges.

Building the index costs one pass over every module plus a bounded
attribute-type fixpoint; :func:`build_project_index` memoizes the
result per content digest so the four whole-program passes (and
repeated :func:`~repro.analysis.engine.lint_package` calls in one
process, e.g. the test suite) share a single build.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .rules.base import ModuleInfo, dotted_name


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
def modname_of(path: str) -> str:
    """Dotted module name of a POSIX source path.

    ``repro/sim/simulator.py`` -> ``repro.sim.simulator``;
    ``repro/sim/__init__.py`` -> ``repro.sim``.
    """
    parts = path[:-3].split("/") if path.endswith(".py") else path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def is_package(path: str) -> bool:
    return path.endswith("/__init__.py") or path == "__init__.py"


def _package_of(path: str) -> str:
    """The package a module's relative imports are resolved against."""
    modname = modname_of(path)
    if is_package(path):
        return modname
    return modname.rsplit(".", 1)[0] if "." in modname else ""


def import_aliases(module: ModuleInfo) -> dict[str, str]:
    """Alias -> absolute dotted name for every import in ``module``.

    Unlike the per-file :class:`~repro.analysis.rules.base.ImportMap`,
    relative imports are resolved against the module's package, so
    ``from ...crypto import Digest`` inside
    ``repro/protocols/common/base.py`` maps ``Digest`` to
    ``repro.crypto.Digest``.
    """
    pkg = _package_of(module.path)
    out: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    out[a.asname] = a.name
                else:
                    out[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                hops = pkg.split(".") if pkg else []
                hops = hops[: max(0, len(hops) - (node.level - 1))]
                base = ".".join(hops)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for a in node.names:
                if a.name == "*":
                    continue
                full = f"{base}.{a.name}" if base else a.name
                out[a.asname or a.name] = full
    return out


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One analyzable body: a def, a method, or module top level."""

    qualname: str
    module: str  # POSIX path, e.g. "repro/sim/simulator.py"
    name: str
    node: Optional[ast.AST]  # FunctionDef/AsyncFunctionDef; None = module
    cls: Optional[str]  # owning class qualname for methods
    body: list = field(default_factory=list)
    args: Optional[ast.arguments] = None

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def param_names(self) -> list[str]:
        if self.args is None:
            return []
        return [a.arg for a in [*self.args.posonlyargs, *self.args.args]] + [
            a.arg for a in self.args.kwonlyargs
        ]

    def is_stub(self) -> bool:
        """True for bodies with no behaviour (protocol/ABC stubs)."""
        for stmt in self.body:
            if isinstance(stmt, (ast.Pass, ast.Raise)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare `...`
            return False
        return True


@dataclass
class ClassInfo:
    """One class definition plus everything inferred about it."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    attr_types: dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False
    frozen: bool = False
    #: Dataclass field name -> annotation node, in declaration order.
    fields: dict[str, ast.expr] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved (or unresolved) call expression."""

    caller: str  # caller function qualname
    node: ast.Call
    #: Project target: a FunctionInfo qualname or a ClassInfo qualname
    #: (construction).  None if the call leaves the project or could
    #: not be resolved.
    callee: Optional[str] = None
    #: Absolute dotted name for non-project targets ("hmac.new").
    external: Optional[str] = None

    @property
    def target(self) -> Optional[str]:
        return self.callee or self.external


def _dataclass_meta(cls: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, frozen) from the decorator list."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name.split(".")[-1] == "dataclass":
            frozen = False
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                        frozen = bool(kw.value.value)
            return True, frozen
    return False, False


class ProjectIndex:
    """Whole-program symbol table + call graph over a module set."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.type_aliases: dict[str, ast.expr] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        self.modname_to_path: dict[str, str] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self.callers: dict[str, set[str]] = {}
        self.call_of: dict[int, CallSite] = {}
        self._local_types: dict[str, dict[str, str]] = {}
        self._mro_cache: dict[str, list[str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for path, module in self.modules.items():
            self.modname_to_path[modname_of(path)] = path
            self.aliases[path] = import_aliases(module)
        for path, module in self.modules.items():
            self._collect_symbols(path, module)
        self._resolve_bases()
        # Attribute types can depend on other classes' attribute types
        # (``self.ring = credentials.ring``): two rounds let one level
        # of indirection settle, which covers the tree in practice.
        for _ in range(2):
            for info in list(self.classes.values()):
                self._infer_attr_types(info)
        for fn in list(self.functions.values()):
            self._resolve_calls(fn)

    def _collect_symbols(self, path: str, module: ModuleInfo) -> None:
        modname = modname_of(path)
        top_body: list[ast.stmt] = []
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{modname}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual,
                    module=path,
                    name=stmt.name,
                    node=stmt,
                    cls=None,
                    body=list(stmt.body),
                    args=stmt.args,
                )
            elif isinstance(stmt, ast.ClassDef):
                cq = f"{modname}.{stmt.name}"
                is_dc, frozen = _dataclass_meta(stmt)
                info = ClassInfo(
                    qualname=cq,
                    module=path,
                    name=stmt.name,
                    node=stmt,
                    is_dataclass=is_dc,
                    frozen=frozen,
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mq = f"{cq}.{sub.name}"
                        info.methods[sub.name] = mq
                        self.functions[mq] = FunctionInfo(
                            qualname=mq,
                            module=path,
                            name=sub.name,
                            node=sub,
                            cls=cq,
                            body=list(sub.body),
                            args=sub.args,
                        )
                    elif is_dc and isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        info.fields[sub.target.id] = sub.annotation
                self.classes[cq] = info
            else:
                top_body.append(stmt)
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    # Candidate type alias (``Digest = bytes``,
                    # ``QuorumCert = Union[...]``); consumers decide
                    # whether the right side is type-shaped.
                    self.type_aliases[f"{modname}.{stmt.targets[0].id}"] = stmt.value
        self.functions[f"{modname}.<module>"] = FunctionInfo(
            qualname=f"{modname}.<module>",
            module=path,
            name="<module>",
            node=None,
            cls=None,
            body=top_body,
            args=None,
        )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_export(self, dotted: str) -> str:
        """Follow re-export chains until a definition (or dead end).

        ``repro.sim.Simulator`` -> look up ``Simulator`` in
        ``repro/sim/__init__.py``'s alias map ->
        ``repro.sim.simulator.Simulator``.
        """
        seen: set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            if (
                dotted in self.functions
                or dotted in self.classes
                or dotted in self.type_aliases
            ):
                return dotted
            head, _, last = dotted.rpartition(".")
            if not head:
                return dotted
            # ``pkg.Class.attr`` — resolve the class part, keep the tail.
            path = self.modname_to_path.get(head)
            if path is None:
                head2, _, mid = head.rpartition(".")
                path2 = self.modname_to_path.get(head2)
                if path2 is not None:
                    target = self.aliases[path2].get(mid)
                    if target is not None:
                        dotted = f"{target}.{last}"
                        continue
                return dotted
            target = self.aliases[path].get(last)
            if target is None:
                return dotted
            dotted = target
        return dotted

    def resolve_name(self, module_path: str, name: str) -> str:
        """Resolve a bare name used in ``module_path`` to a qualname."""
        amap = self.aliases.get(module_path, {})
        if name in amap:
            return self.resolve_export(amap[name])
        cand = f"{modname_of(module_path)}.{name}"
        if (
            cand in self.functions
            or cand in self.classes
            or cand in self.type_aliases
        ):
            return cand
        return name

    def resolve_dotted(self, module_path: str, dotted: str) -> str:
        """Resolve a dotted expression (``a.b.c``) used in a module."""
        head, _, rest = dotted.partition(".")
        base = self.resolve_name(module_path, head)
        return self.resolve_export(f"{base}.{rest}") if rest else base

    # ------------------------------------------------------------------
    # Classes: bases, MRO, attribute types
    # ------------------------------------------------------------------
    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for b in info.node.bases:
                name = dotted_name(b)
                if not name:
                    continue
                resolved = self.resolve_dotted(info.module, name)
                if resolved in self.classes:
                    info.bases.append(resolved)

    def mro(self, cls_qualname: str) -> list[str]:
        """Linearized ancestry (BFS, cycle-safe; not strict C3)."""
        cached = self._mro_cache.get(cls_qualname)
        if cached is not None:
            return cached
        out: list[str] = []
        queue = [cls_qualname]
        while queue:
            q = queue.pop(0)
            if q in out or q not in self.classes:
                continue
            out.append(q)
            queue.extend(self.classes[q].bases)
        self._mro_cache[cls_qualname] = out
        return out

    def lookup_method(self, cls_qualname: str, name: str) -> Optional[str]:
        for c in self.mro(cls_qualname):
            m = self.classes[c].methods.get(name)
            if m is not None:
                return m
        return None

    def attr_type(self, cls_qualname: str, attr: str) -> Optional[str]:
        for c in self.mro(cls_qualname):
            t = self.classes[c].attr_types.get(attr)
            if t is not None:
                return t
        return None

    def resolve_annotation(
        self, ann: Optional[ast.expr], module_path: str
    ) -> Optional[str]:
        """Class qualname an annotation denotes, if any.

        Unwraps ``Optional[X]`` and string annotations; containers and
        typing constructs that are not a single concrete class yield
        ``None``.
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            base = dotted_name(ann.value).split(".")[-1]
            if base == "Optional":
                return self.resolve_annotation(ann.slice, module_path)
            return None
        name = dotted_name(ann)
        if not name:
            return None
        resolved = self.resolve_dotted(module_path, name)
        return resolved if resolved in self.classes else None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        # Class-body annotations (dataclass fields included).
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                t = self.resolve_annotation(stmt.annotation, info.module)
                if t is not None:
                    info.attr_types.setdefault(stmt.target.id, t)
        # ``self.x = <expr>`` in every method.
        for mq in info.methods.values():
            fn = self.functions[mq]
            env = self.local_types(fn)
            for node in ast.walk(fn.node) if fn.node is not None else []:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        t = None
                        if isinstance(node, ast.AnnAssign):
                            t = self.resolve_annotation(node.annotation, fn.module)
                        if t is None and node.value is not None:
                            t = self.infer_type(node.value, env, fn)
                        if t is not None:
                            info.attr_types.setdefault(tgt.attr, t)

    # ------------------------------------------------------------------
    # Expression typing
    # ------------------------------------------------------------------
    def infer_type(
        self,
        expr: ast.expr,
        env: dict[str, str],
        fn: FunctionInfo,
    ) -> Optional[str]:
        """Best-effort class qualname of ``expr``'s value."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer_type(expr.value, env, fn)
            if base is not None:
                return self.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            target = self._call_target(expr, env, fn)
            if target is None:
                return None
            if target in self.classes:
                return target
            f = self.functions.get(target)
            if f is not None and isinstance(
                f.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return self.resolve_annotation(f.node.returns, f.module)
            return None
        if isinstance(expr, ast.Await):
            return self.infer_type(expr.value, env, fn)
        return None

    def local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """name -> class qualname for a function's parameters/locals."""
        cached = self._local_types.get(fn.qualname)
        if cached is not None:
            return cached
        env: dict[str, str] = {}
        if fn.cls is not None:
            env["self"] = fn.cls
            env["cls"] = fn.cls
        if fn.args is not None:
            for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
                t = self.resolve_annotation(a.annotation, fn.module)
                if t is not None:
                    env[a.arg] = t
        # Two passes so an assignment can use a name typed later.
        self._local_types[fn.qualname] = env
        for _ in range(2):
            for node in self._walk_body(fn.body):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    tgt = node.targets[0]
                    if isinstance(tgt, ast.Name):
                        t = self.infer_type(node.value, env, fn)
                        if t is not None:
                            env[tgt.id] = t
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    t = self.resolve_annotation(node.annotation, fn.module)
                    if t is None and node.value is not None:
                        t = self.infer_type(node.value, env, fn)
                    if t is not None:
                        env[node.target.id] = t
        return env

    @staticmethod
    def _walk_body(body: Iterable[ast.stmt]):
        """Walk statements without descending into nested defs."""
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            yield node
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _call_target(
        self, call: ast.Call, env: dict[str, str], fn: FunctionInfo
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(fn.module, func.id)
            if resolved in self.functions or resolved in self.classes:
                return resolved
            # Known external (e.g. imported ``deepcopy``) — keep the
            # dotted form only if it left through an import.
            amap = self.aliases.get(fn.module, {})
            return amap.get(func.id)
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted:
                resolved = self.resolve_dotted(fn.module, dotted)
                if resolved in self.functions or resolved in self.classes:
                    return resolved
                head = dotted.split(".")[0]
                amap = self.aliases.get(fn.module, {})
                if head in amap and env.get(head) is None:
                    # Attribute chain rooted at an import: external.
                    base = amap[head]
                    return f"{base}.{dotted.partition('.')[2]}"
            recv = self.infer_type(func.value, env, fn)
            if recv is not None:
                m = self.lookup_method(recv, func.attr)
                if m is not None:
                    return m
        return None

    def _resolve_calls(self, fn: FunctionInfo) -> None:
        env = self.local_types(fn)
        sites: list[CallSite] = []
        walk_root: list[ast.stmt] = fn.body
        for node in ast.walk(ast.Module(body=walk_root, type_ignores=[])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Module top level: nested defs are indexed separately.
                continue
            if not isinstance(node, ast.Call):
                continue
            target = self._call_target(node, env, fn)
            site = CallSite(caller=fn.qualname, node=node)
            if target is not None and (
                target in self.functions or target in self.classes
            ):
                site.callee = target
            elif target is not None:
                site.external = target
            sites.append(site)
            self.call_of[id(node)] = site
            if site.callee is not None:
                self.callers.setdefault(site.callee, set()).add(fn.qualname)
        self.calls[fn.qualname] = sites

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def callers_of(self, qualname: str) -> set[str]:
        """Direct callers; for methods, includes resolved-by-type calls
        only (the static over-approximation the passes accept)."""
        return set(self.callers.get(qualname, ()))

    def transitive_callers(self, qualname: str) -> set[str]:
        out: set[str] = set()
        queue = [qualname]
        while queue:
            q = queue.pop()
            for c in self.callers.get(q, ()):
                if c not in out:
                    out.add(c)
                    queue.append(c)
        return out


# ----------------------------------------------------------------------
# Cached builds
# ----------------------------------------------------------------------
_INDEX_CACHE: dict[str, ProjectIndex] = {}
_INDEX_CACHE_MAX = 4


def index_cache_key(modules: dict[str, ModuleInfo]) -> str:
    """Content digest of a module set (path + source bytes)."""
    h = hashlib.sha256()
    for path in sorted(modules):
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(modules[path].source.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


def build_project_index(modules: dict[str, ModuleInfo]) -> ProjectIndex:
    """Build (or fetch the memoized) :class:`ProjectIndex`.

    The cache is keyed by content digest, so any edit to any module
    invalidates it; it is what lets one engine run share a single build
    across all whole-program passes, and repeated ``lint_package()``
    calls in one process (the analysis test suite) skip re-resolution
    entirely.
    """
    key = index_cache_key(modules)
    idx = _INDEX_CACHE.get(key)
    if idx is None:
        idx = ProjectIndex(modules)
        if len(_INDEX_CACHE) >= _INDEX_CACHE_MAX:
            _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
        _INDEX_CACHE[key] = idx
    return idx


def clear_index_cache() -> None:
    """Drop memoized indexes (tests measure cold builds)."""
    _INDEX_CACHE.clear()


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "build_project_index",
    "clear_index_cache",
    "import_aliases",
    "index_cache_key",
    "is_package",
    "modname_of",
]
