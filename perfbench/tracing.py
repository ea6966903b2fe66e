"""Spans recorded from outside the library, around the public function of each layer.

The tracer replaces module attributes at the names their callers look up
(``cubefix.solver.select_query_point`` is what the solve loop calls, not
``cubefix.balanced.select_query_point``), and restores them on exit.  Spans
stay in memory until the traced phase ends.

Elimination cannot be wrapped this way: ``solve`` binds ``eliminate`` as the
default of its ``eliminate_fn`` argument at import time.  It is timed through
the public ``on_round`` hook instead: the span runs from the end of the
round's oracle query to the hook call, which covers the sign vector, the
elimination and the halving check.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import cubefix.balanced
import cubefix.solver
import cubefix.total
from cubefix.oracles import ContractionOracle
from cubefix.solver import CandidateSet

ORACLE = "oracles.call"


def _rows(T, *_args, **_kw) -> dict:
    return {"rows": len(T)}


def _grid(n, k, *_args, **_kw) -> dict:
    rows = (n // 2 + 1) ** k
    return {"rows": rows, "bytes": rows * k * 8}


def _coverage(cols, q, signs, *_args, **_kw) -> dict:
    return {"rows": len(cols[0]) * len(signs)}


class Tracer:
    """In-memory span recorder; one solve at a time, no threads.

    A span is ``[name, start, end, parent index or -1, attributes]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._oracle_depth = 0
        self._query_end = 0.0

    def _open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1,
                           attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, attrs=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name, attrs(*args, **kwargs) if attrs else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_oracle(self, call):
        def wrapper(oracle, x):
            idx = self._open(ORACLE, {"oracle": oracle.name})
            self._oracle_depth += 1
            try:
                return call(oracle, x)
            finally:
                self._oracle_depth -= 1
                end = self._close(idx)
                if self._oracle_depth == 0:
                    self._query_end = end
        return wrapper

    def on_round(self, rec, before, after) -> None:
        """``on_round`` hook: one ``solver.round`` mark, plus the elimination span."""
        now = perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["solver.round", now, now, parent, {}])
        if after is not None:
            self.spans.append(["solver.eliminate", self._query_end, now, parent,
                               {"rows": len(before), "kept": len(after)}])

    @contextmanager
    def installed(self):
        """Patch every traced attribute for the duration of the block."""
        solve_unit_cube = cubefix.total.solve_unit_cube

        def total_inner(*args, **kwargs):
            return solve_unit_cube(*args, on_round=self.on_round, **kwargs)

        initial = CandidateSet.__dict__["initial"]
        patches = [
            (cubefix.solver, "select_query_point",
             self.wrap(cubefix.solver.select_query_point, "balanced.select", _rows)),
            (cubefix.solver, "even_grid",
             self.wrap(cubefix.solver.even_grid, "geometry.even_grid", _grid)),
            (cubefix.balanced, "coverage_counts",
             self.wrap(cubefix.balanced.coverage_counts, "balanced.coverage", _coverage)),
            (cubefix.balanced, "find_balanced_point",
             self.wrap(cubefix.balanced.find_balanced_point, "balanced.exact", _rows)),
            (cubefix.total, "solve_total",
             self.wrap(cubefix.total.solve_total, "total.solve")),
            (cubefix.total, "solve_unit_cube", total_inner),
            (ContractionOracle, "__call__", self._wrap_oracle(ContractionOracle.__call__)),
            (CandidateSet, "initial", classmethod(self.wrap(initial.__func__, "solver.init"))),
        ]
        saved = []
        try:
            for owner, attr, new in patches:
                if attr not in vars(owner):
                    raise RuntimeError(f"trace point {owner.__name__}.{attr} no longer exists")
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, **attrs}) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-layer totals over a list of spans.

    Returns, per span name, ``calls``, total seconds ``s``, ``self_s`` (the
    duration not covered by direct child spans) and the sum of every numeric
    attribute; plus the oracle figures, which depend on nesting:
    ``outer`` (solver-level queries), ``outer_s``, ``leaf_s`` (the instance's
    own map: oracle calls with no oracle call inside) and ``watch_self_s``
    (self time of the total-search watcher oracle).
    """
    child_s = [0.0] * len(spans)
    has_oracle_child = [False] * len(spans)
    for name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == ORACLE:
                has_oracle_child[parent] = True
    out: dict = {}
    oracle = {"outer": 0, "outer_s": 0.0, "leaf_s": 0.0, "watch_self_s": 0.0}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_s[i]
        for key, val in attrs.items():
            if isinstance(val, (int, float)):
                agg[key] = agg.get(key, 0) + val
        if name != ORACLE:
            continue
        if parent < 0 or spans[parent][0] != ORACLE:
            oracle["outer"] += 1
            oracle["outer_s"] += dur
        if not has_oracle_child[i]:
            oracle["leaf_s"] += dur
        if attrs["oracle"].startswith("total("):
            oracle["watch_self_s"] += dur - child_s[i]
    out["oracle"] = oracle
    return out
