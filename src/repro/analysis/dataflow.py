"""Interprocedural taint dataflow over the project call graph.

The flow-sensitive passes (RNG stream purity, TEE secret taint) share
one engine: :class:`FlowAnalysis` runs a forward abstract
interpretation of every function body, propagating sets of
:class:`Taint` labels through assignments, calls, containers and
attribute stores, and summarizes each function as

* ``returns`` — taints a call to it introduces by itself, and
* ``param_flow`` — which parameter positions flow into its return
  value (``0`` is ``self`` for methods),

iterated to a fixpoint over the call graph, so a draw from the ``net``
RNG stream that travels ``latency.sample -> Network.send -> caller``
keeps its label across every hop.  A closure (a nested ``def`` or a
``lambda``) is analyzed in its enclosing function's context: it reads
the enclosing locals, and its findings are reported at its own lines.
Class attribute stores (``self._rng = <tainted>``) are tracked
flow-insensitively per class, which is how a stream handle derived in
``__init__`` taints draws made in a different method.

A concrete pass subclasses :class:`FlowSpec` to declare

* **sources** — expressions (or parameters) that introduce a label;
* **sanitizers** — calls whose result drops incoming taint (e.g.
  ``hmac.new``: the tag proves knowledge of the key without revealing
  it);
* **sinks** — ``check_use`` / ``check_call`` / ``check_return`` /
  ``check_store`` hooks, invoked in a final report pass once the
  summaries have converged.

Design limits (deliberate, documented here so rule authors know what
the engine can and cannot see): implicit flows through control flow
are ignored; taint entering a callee through a parameter is only
followed back out through its return value (sinks *inside* the callee
fire for the callee's own sources, not the caller's); containers are
taint-atomic (one tainted element taints the container).
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # annotation-only; avoids a cycle with .rules
    from .callgraph import FunctionInfo, ProjectIndex

#: Marker-label prefix for parameter-position tracking.
_PARAM = "<param:"

#: Fixpoint guard: summaries grow monotonically, so convergence is
#: certain; the bound only caps degenerate cycles.
MAX_ROUNDS = 10


@dataclass(frozen=True)
class Taint:
    """One taint label plus where it entered the program."""

    label: str
    origin: str  # "path:line" of the source expression

    @property
    def is_param_marker(self) -> bool:
        return self.label.startswith(_PARAM)


def real(taints: Iterable[Taint]) -> set[Taint]:
    """Drop parameter-position markers, keeping user-visible labels."""
    return {t for t in taints if not t.is_param_marker}


@dataclass
class Summary:
    """Converged dataflow facts about one function."""

    returns: set[Taint] = field(default_factory=set)
    param_flow: set[int] = field(default_factory=set)

    def snapshot(self) -> tuple:
        return (frozenset(self.returns), frozenset(self.param_flow))


@dataclass(frozen=True)
class FlowFinding:
    """A sink hit: where, what, and the offending labels."""

    fn: FunctionInfo
    node: ast.AST
    message: str


class FlowSpec:
    """Source/sanitizer/sink declaration for one taint pass."""

    #: Rule id the findings are reported under.
    name = "flow"

    # -- sources -------------------------------------------------------
    def source_label(
        self, node: ast.expr, fn: FunctionInfo, index: ProjectIndex
    ) -> Optional[str]:
        """Label introduced by evaluating ``node``, if any."""
        return None

    def param_source(self, fn: FunctionInfo, name: str) -> Optional[str]:
        """Label carried by parameter ``name`` of ``fn``, if any."""
        return None

    # -- sanitizers ----------------------------------------------------
    def sanitizes(self, target: Optional[str], node: ast.Call) -> bool:
        """True if a call to ``target`` launders its inputs."""
        return False

    # -- sinks (report pass only) --------------------------------------
    def check_use(
        self, fn: FunctionInfo, stmt: ast.stmt, taints: set[Taint]
    ) -> Iterator[tuple[ast.AST, str]]:
        """A statement in ``fn`` evaluated a tainted value."""
        return iter(())

    def check_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        target: Optional[str],
        arg_taints: list[set[Taint]],
    ) -> Iterator[tuple[ast.AST, str]]:
        """A call with (possibly) tainted arguments."""
        return iter(())

    def check_return(
        self, fn: FunctionInfo, node: ast.Return, taints: set[Taint]
    ) -> Iterator[tuple[ast.AST, str]]:
        """``fn`` returns a tainted value."""
        return iter(())

    def check_store(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        owner: Optional[str],
        attr: str,
        taints: set[Taint],
    ) -> Iterator[tuple[ast.AST, str]]:
        """A tainted value was stored into ``owner.attr``."""
        return iter(())


class FlowAnalysis:
    """Run one :class:`FlowSpec` over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex, spec: FlowSpec) -> None:
        self.index = index
        self.spec = spec
        self.summaries: dict[str, Summary] = {
            q: Summary() for q in index.functions
        }
        #: (class qualname, attr) -> taints stored into it anywhere.
        self.attr_taints: dict[tuple[str, str], set[Taint]] = {}

    # ------------------------------------------------------------------
    def run(self) -> list[FlowFinding]:
        for _ in range(MAX_ROUNDS):
            before = self._state_snapshot()
            for fn in self.index.functions.values():
                self._analyze(fn, report=None)
            if self._state_snapshot() == before:
                break
        findings: list[FlowFinding] = []
        for fn in self.index.functions.values():
            self._analyze(fn, report=findings)
        # Deterministic order, one finding per (location, message).
        seen: set[tuple[str, int, int, str]] = set()
        out: list[FlowFinding] = []
        for f in sorted(
            findings,
            key=lambda f: (
                f.fn.module,
                getattr(f.node, "lineno", 0),
                getattr(f.node, "col_offset", 0),
                f.message,
            ),
        ):
            key = (
                f.fn.module,
                getattr(f.node, "lineno", 0),
                getattr(f.node, "col_offset", 0),
                f.message,
            )
            if key not in seen:
                seen.add(key)
                out.append(f)
        return out

    def _state_snapshot(self) -> tuple:
        return (
            tuple(
                (q, s.snapshot()) for q, s in sorted(self.summaries.items())
            ),
            tuple(
                (k, frozenset(v))
                for k, v in sorted(self.attr_taints.items())
            ),
        )

    # ------------------------------------------------------------------
    # Per-function abstract interpretation
    # ------------------------------------------------------------------
    def _analyze(
        self, fn: FunctionInfo, report: Optional[list[FlowFinding]]
    ) -> None:
        spec = self.spec
        env: dict[str, set[Taint]] = {}
        for i, name in enumerate(fn.param_names()):
            taints = {Taint(f"{_PARAM}{i}>", f"{fn.module}:0")}
            lbl = spec.param_source(fn, name)
            if lbl is not None:
                line = getattr(fn.node, "lineno", 0)
                taints.add(Taint(lbl, f"{fn.module}:{line}"))
            env[name] = taints
        summary = self.summaries[fn.qualname]
        ctx = _FnContext(self, fn, env, summary, report)
        ctx.exec_block(fn.body)
        summary.returns |= real(ctx.returns)
        summary.param_flow |= {
            int(t.label[len(_PARAM) : -1])
            for t in ctx.returns
            if t.is_param_marker
        }


class _FnContext:
    """Mutable walk state for one function's analysis."""

    def __init__(
        self,
        analysis: FlowAnalysis,
        fn: FunctionInfo,
        env: dict[str, set[Taint]],
        summary: Summary,
        report: Optional[list[FlowFinding]],
    ) -> None:
        self.a = analysis
        self.fn = fn
        self.env = env
        self.summary = summary
        self.report = report
        self.returns: set[Taint] = set()
        #: The function a ``return`` returns from: ``fn``, or the nested
        #: def whose body is running (``check_return`` judges its name).
        self.returner = fn
        #: Every taint evaluated while executing the current statement —
        #: including values consumed as call arguments whose result was
        #: laundered.  ``check_use`` sees this union, so "passed a
        #: tainted value to something" counts as a use even when nothing
        #: tainted survives the expression.
        self._stmt_acc: set[Taint] = set()

    # -- reporting helpers --------------------------------------------
    def _emit(self, hits: Iterable[tuple[ast.AST, str]]) -> None:
        if self.report is None:
            return
        for node, message in hits:
            self.report.append(FlowFinding(self.fn, node, message))

    # -- statements ----------------------------------------------------
    def exec_block(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def _exec_loop_body(self, body: list[ast.stmt]) -> None:
        # Two passes propagate loop-carried taint (x = f(x) patterns).
        self.exec_block(body)
        self.exec_block(body)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        spec = self.a.spec
        fn = self.fn
        used: set[Taint] = set()
        outer_acc = self._stmt_acc
        self._stmt_acc = set()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                self.eval(decorator)
            self._exec_closure(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            taints = self.eval(value) if value is not None else set()
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for tgt in targets:
                if isinstance(stmt, ast.AugAssign):
                    taints = taints | self.eval(tgt)
                self.assign(tgt, taints, stmt)
            used |= taints
        elif isinstance(stmt, ast.Return):
            taints = self.eval(stmt.value) if stmt.value is not None else set()
            self.returns |= taints
            if self.report is not None:
                self._emit(spec.check_return(self.returner, stmt, real(taints)))
            used |= taints
        elif isinstance(stmt, ast.Expr):
            used |= self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            used |= self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            used |= self.eval(stmt.test)
            self._exec_loop_body(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taints = self.eval(stmt.iter)
            self.assign(stmt.target, iter_taints, stmt)
            self._exec_loop_body(stmt.body)
            self.exec_block(stmt.orelse)
            used |= iter_taints
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                t = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, t, stmt)
                used |= t
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                used |= self.eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert,)):
            used |= self.eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            pass
        # Imports, Pass, Break, Continue, Global, Nonlocal: no dataflow.
        used |= self._stmt_acc
        self._stmt_acc = outer_acc
        if self.report is not None and real(used):
            self._emit(spec.check_use(fn, stmt, real(used)))

    def _exec_closure(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        """Run a nested def's or a lambda's body here: its default
        values are evaluated in the enclosing statement and seed their
        parameters, the body sees the enclosing locals, and neither its
        locals nor its returns leak into the enclosing function (a
        lambda's body counts as used by the statement holding it)."""
        env, returns, returner = self.env, self.returns, self.returner
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        params = {a.arg: set() for a in positional + args.kwonlyargs}
        params.update({a.arg: set() for a in (args.vararg, args.kwarg) if a})
        defaulted = positional[len(positional) - len(args.defaults) :]
        for a, default in zip(defaulted, args.defaults):
            params[a.arg] = self.eval(default)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            params[a.arg] = self.eval(default)
        self.env = {**env, **params}
        self.returns = set()
        if isinstance(node, ast.Lambda):
            self.eval(node.body)
        else:
            self.returner = dataclasses.replace(
                self.fn,
                qualname=f"{returner.qualname}.<locals>.{node.name}",
                name=node.name,
                node=node,
                body=node.body,
                args=args,
            )
            self.exec_block(node.body)
        self.env, self.returns, self.returner = env, returns, returner

    def assign(self, target: ast.expr, taints: set[Taint], stmt: ast.stmt) -> None:
        spec = self.a.spec
        if isinstance(target, ast.Name):
            # Strong update: assignment replaces a local's taints.
            self.env[target.id] = set(taints)
        elif isinstance(target, ast.Attribute):
            owner: Optional[str] = None
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.fn.cls is not None
            ):
                owner = self.fn.cls
                key = (owner, target.attr)
                store = self.a.attr_taints.setdefault(key, set())
                store |= real(taints)
            else:
                owner = self.a.index.infer_type(
                    target.value, self.a.index.local_types(self.fn), self.fn
                )
                if owner is not None:
                    key = (owner, target.attr)
                    store = self.a.attr_taints.setdefault(key, set())
                    store |= real(taints)
            if self.report is not None and real(taints):
                self._emit(
                    spec.check_store(self.fn, stmt, owner, target.attr, real(taints))
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, taints, stmt)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taints, stmt)
        elif isinstance(target, ast.Subscript):
            # Storing into a container: taint the container variable.
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, set()) | taints

    # -- expressions ---------------------------------------------------
    def eval(self, e: Optional[ast.expr]) -> set[Taint]:
        if e is None:
            return set()
        spec = self.a.spec
        out: set[Taint] = set()
        lbl = spec.source_label(e, self.fn, self.a.index)
        if lbl is not None:
            out.add(Taint(lbl, f"{self.fn.module}:{getattr(e, 'lineno', 0)}"))
        if isinstance(e, ast.Name):
            out |= self.env.get(e.id, set())
        elif isinstance(e, ast.Attribute):
            out |= self.eval(e.value)
            if (
                isinstance(e.value, ast.Name)
                and e.value.id == "self"
                and self.fn.cls is not None
            ):
                for c in self.a.index.mro(self.fn.cls):
                    out |= self.a.attr_taints.get((c, e.attr), set())
            else:
                t = self.a.index.infer_type(
                    e.value, self.a.index.local_types(self.fn), self.fn
                )
                if t is not None:
                    for c in self.a.index.mro(t):
                        out |= self.a.attr_taints.get((c, e.attr), set())
        elif isinstance(e, ast.Call):
            out |= self._eval_call(e)
        elif isinstance(e, ast.Lambda):
            self._exec_closure(e)
        elif isinstance(e, ast.Constant):
            pass
        else:
            for child in ast.iter_child_nodes(e):
                if isinstance(child, ast.expr):
                    out |= self.eval(child)
                elif isinstance(child, ast.comprehension):
                    t = self.eval(child.iter)
                    self.assign(child.target, t, ast.Pass())
                    for cond in child.ifs:
                        self.eval(cond)
                elif isinstance(child, ast.keyword):
                    out |= self.eval(child.value)
        self._stmt_acc |= out
        return out

    def _eval_call(self, e: ast.Call) -> set[Taint]:
        spec = self.a.spec
        index = self.a.index
        site = index.call_of.get(id(e))
        target = site.target if site is not None else None

        arg_taints = [self.eval(a) for a in e.args]
        kw_taints = {kw.arg: self.eval(kw.value) for kw in e.keywords}
        recv_taints: set[Taint] = set()
        if isinstance(e.func, ast.Attribute):
            recv_taints = self.eval(e.func.value)
        else:
            self.eval(e.func)

        if self.report is not None:
            self._emit(
                spec.check_call(
                    self.fn,
                    e,
                    target,
                    [real(t) for t in arg_taints + list(kw_taints.values())],
                )
            )

        if spec.sanitizes(target, e):
            return set()

        out: set[Taint] = set()
        callee = site.callee if site is not None else None
        if callee is not None and callee in index.functions:
            fi = index.functions[callee]
            summary = self.a.summaries[callee]
            out |= summary.returns
            # Positional mapping: methods called through an attribute
            # receiver have ``self`` at position 0.
            offset = 1 if (fi.is_method and isinstance(e.func, ast.Attribute)) else 0
            names = fi.param_names()
            for i in summary.param_flow:
                j = i - offset
                if j == -1:
                    out |= recv_taints
                elif 0 <= j < len(arg_taints):
                    out |= arg_taints[j]
                elif i < len(names) and names[i] in kw_taints:
                    out |= kw_taints[names[i]]
            if fi.is_stub():
                # Protocol/ABC stub: assume args may flow to the result
                # (the concrete implementor is unknown statically).
                for t in arg_taints:
                    out |= t
                for t in kw_taints.values():
                    out |= t
                out |= recv_taints
        elif callee is not None and callee in index.classes:
            # Construction: the instance carries its argument taints.
            for t in arg_taints:
                out |= t
            for t in kw_taints.values():
                out |= t
        else:
            # Unresolved call: argument taints conservatively reach the
            # result (``float(draw)`` stays tainted).
            for t in arg_taints:
                out |= t
            for t in kw_taints.values():
                out |= t
            out |= recv_taints
        return out


def analyze(index: ProjectIndex, spec: FlowSpec) -> list[FlowFinding]:
    """Convenience: run ``spec`` to fixpoint and report its sinks."""
    return FlowAnalysis(index, spec).run()


__all__ = [
    "FlowAnalysis",
    "FlowFinding",
    "FlowSpec",
    "MAX_ROUNDS",
    "Summary",
    "Taint",
    "analyze",
    "real",
]
