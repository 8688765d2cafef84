"""Span tracer that wraps the package's layer boundaries from outside.

Hooks replace module attributes at the call site, the name the calling
code actually looks up: ``lshaped.engine`` imports its helpers with
``from ... import``, so patching the defining module would miss every call.
Each wrapped call becomes a span (name, start, end, parent) kept in memory;
self time is a span's duration minus the time its child spans cover.  The
cut-distance hook is called about a hundred thousand times per clustered
solve, so it only adds to a count and a total.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, layer name); "simplex" spans are split into master and
# subproblem solves by their parent span
HOOKS = (
    ("lshaped.engine", "solve_lp", "simplex"),
    ("lshaped.engine", "solve_subproblem", "engine.subproblem"),
    ("lshaped.engine", "make_optimality_cut", "cuts.make"),
    ("lshaped.engine", "apply_scheme", "aggregation.apply"),
    ("lshaped.engine", "granulate", "aggregation.granulate"),
    ("lshaped.aggregation", "kmedoids_cluster", "aggregation.kmedoids"),
    ("lshaped.aggregation", "aggregate_cuts", "cuts.aggregate"),
    ("lshaped.aggregation", "aggregation_distance", "cuts.distance"),
)
SUMMED = {"cuts.distance"}
ROOT = "engine"


class Tracer:
    """Collects spans and per-solve self times, call counts and master sizes."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._solve = 0
        self._reset_totals()

    def _reset_totals(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.master_rows_max = 0
        self.master_cols_max = 0

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # reserved so parents precede children
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (self._solve, name, start, end, parent)

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapped

    def simplex_span(self, fn):
        def wrapped(lp, *args, **kwargs):
            in_sub = bool(self._stack) and self._stack[-1][0] == "engine.subproblem"
            if not in_sub:
                rows, cols = lp.A.shape
                self.master_rows_max = max(self.master_rows_max, rows)
                self.master_cols_max = max(self.master_cols_max, cols)
            frame = self._enter("simplex.sub" if in_sub else "simplex.master")
            try:
                return fn(lp, *args, **kwargs)
            finally:
                self._exit(frame)

        return wrapped

    def summed(self, name: str, fn):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook that still exists; restore them on exit."""
        saved = []
        self.absent = []
        try:
            for module_name, attr, name in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if name == "simplex":
                    hook = self.simplex_span(original)
                elif name in SUMMED:
                    hook = self.summed(name, original)
                else:
                    hook = self.span(name, original)
                saved.append((module, attr, original))
                setattr(module, attr, hook)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def solve(self, fn, *args):
        """Run one solve as the root span; returns (result, per-solve totals)."""
        self._solve += 1
        self._reset_totals()
        self._stack = []
        result = self.span(ROOT, fn)(*args)
        totals = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "master_rows_max": self.master_rows_max,
            "master_cols_max": self.master_cols_max,
        }
        return result, totals
