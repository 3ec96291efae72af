"""Spans around the calls one layer of polyextremal makes into the next.

The tracer patches module attributes, so it sees a call exactly where the
calling module looks the function up: ``supports.try_simplex`` as
``enumerate_supports`` calls it, ``linalg.solve_real`` as ``polytope`` and
``supports`` call it, the library as ``cli`` calls it.  Spans stay in memory
as (name, start, end, parent) rows of process CPU time, the clock of every
other timing here, and are written once, at the end.  The
program itself is not changed; ``restore`` puts every attribute back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager

from speed import clock

# (module, attribute, span name): the boundaries between layers.
BOUNDARIES = (
    ("polytope", "enumerate_vertices", "polytope.enumerate_vertices"),
    ("polytope", "solve_real", "linalg.solve_real"),
    ("polytope", "rank", "linalg.rank"),
    ("polytope", "interior_point", "linalg.interior_point"),
    ("polytope", "recession_direction", "linalg.recession_direction"),
    ("supports", "try_simplex", "supports.try_simplex"),
    ("supports", "try_strip", "supports.try_strip"),
    ("supports", "solve_real", "linalg.solve_real"),
    ("supports", "rank", "linalg.rank"),
    ("supports", "orthonormal_basis", "linalg.orthonormal_basis"),
    ("extremal", "lu_factor", "linalg.lu_factor"),
    ("cli", "from_json", "polytope.from_json"),
    ("cli", "enumerate_supports", "supports.enumerate_supports"),
    ("cli", "support_records", "supports.support_records"),
    ("cli", "eval_extremal", "extremal.eval_extremal"),
    ("cli", "eval_extremal_many", "extremal.eval_extremal_many"),
)


class Tracer:
    """Collects spans; ``install`` wraps the boundaries, ``restore`` unwraps."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, function, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def install(self, package) -> None:
        for module_name, attribute, name in BOUNDARIES:
            module = getattr(package, module_name)
            original = getattr(module, attribute)
            self._patched.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def roots(self) -> list[int]:
        """Index of the outermost span of each span."""
        root = []
        for index, (_, _, _, parent) in enumerate(self.spans):
            root.append(index if parent < 0 else root[parent])
        return root

    def totals(self, root_name: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds, optionally only
        inside outermost spans called ``root_name``.  Self time is a span's
        duration minus that of its direct children."""
        roots = self.roots()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            if root_name is not None and self.spans[roots[index]][0] != root_name:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start and end in seconds, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")
