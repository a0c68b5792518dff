"""Per-layer attribution from outside the program.

An interpreter profile hook folds call/return events on the fly by the
layer that owns each frame's file.  C builtins, the standard library and
numpy work on behalf of their caller and are charged to the caller's
layer.  A span is a maximal interval spent inside one layer entered from
another; spans are aggregated per (entry function, parent span's entry
function) and never stored one by one, so memory stays bounded however
long the traced pass runs.

The hook costs a fixed amount per call and per return, which inflates
layers made of many small calls; ``trace.overhead_ratio`` states by how
much the traced pass was slowed.  End-to-end metrics never come from a
traced pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from layers import LAYERS, layer_of


class LayerTracer:
    """Fold one traced call into per-layer self time, boundary
    crossings and aggregated spans.

    ``watch`` maps a code object to a name; for each the tracer counts
    returns and how many of them returned a true value (the useful
    outcomes of a memo lookup, read where the work happens).
    """

    def __init__(self, src_root: str, harness_root: str, watch: dict) -> None:
        self._src_root = src_root
        self._harness_root = harness_root
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: (entry code, parent entry code or None) -> [count, total seconds]
        self._spans: dict[tuple, list] = {}
        self._code_layer: dict = {}
        self.watched = {name: [0, 0] for name in watch.values()}
        self._watch = {code: self.watched[name] for code, name in watch.items()}
        self.total_s = 0.0

    def run(self, fn: Callable[[], object]) -> object:
        """Call ``fn()`` under the hook; the hook is gone when this returns."""
        clock = time.perf_counter
        src_root, harness_root = self._src_root, self._harness_root
        code_layer = self._code_layer
        self_s, calls, spans, watch = self.self_s, self.calls, self._spans, self._watch
        stack: list = []  # layer in force when each open frame was entered
        open_spans: list = []  # (entry code, start) of frames that crossed a boundary
        cur = "other"
        last = clock()

        def hook(frame, event, arg):
            nonlocal cur, last
            if event == "call":
                code = frame.f_code
                try:
                    layer = code_layer[code]
                except KeyError:
                    layer = code_layer[code] = layer_of(
                        code.co_filename, src_root, harness_root
                    )
                stack.append(cur)
                if layer is not None and layer != cur:
                    now = clock()
                    self_s[cur] += now - last
                    last = now
                    cur = layer
                    calls[layer] += 1
                    open_spans.append((code, now))
            elif event == "return":
                seen = watch.get(frame.f_code)
                if seen is not None:
                    seen[0] += 1
                    if arg:
                        seen[1] += 1
                if not stack:
                    return  # the frame that installed the hook
                prev = stack.pop()
                if prev != cur:
                    now = clock()
                    self_s[cur] += now - last
                    last = now
                    cur = prev
                    code, start = open_spans.pop()
                    key = (code, open_spans[-1][0] if open_spans else None)
                    rec = spans.get(key)
                    if rec is None:
                        spans[key] = [1, now - start]
                    else:
                        rec[0] += 1
                        rec[1] += now - start

        started = last
        sys.setprofile(hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            end = clock()
            self_s[cur] += end - last
            self.total_s += end - started

    def _name(self, code) -> Optional[str]:
        if code is None:
            return None
        layer = self._code_layer.get(code) or "other"
        return f"{layer}:{getattr(code, 'co_qualname', code.co_name)}"

    def layer_table(self) -> dict[str, dict]:
        """``{layer: {self_s, share, calls}}`` for every layer in LAYERS."""
        total = self.total_s or 1.0
        return {
            layer: {
                "self_s": self.self_s.get(layer, 0.0),
                "share": self.self_s.get(layer, 0.0) / total,
                "calls": self.calls.get(layer, 0),
            }
            for layer in LAYERS
        }

    def span_table(self, top: int = 200) -> list[dict]:
        """Aggregated spans, largest total first."""
        rows = [
            {
                "span": self._name(code),
                "parent": self._name(parent),
                "count": n,
                "total_s": total,
            }
            for (code, parent), (n, total) in self._spans.items()
        ]
        rows.sort(key=lambda r: r["total_s"], reverse=True)
        return rows[:top]
