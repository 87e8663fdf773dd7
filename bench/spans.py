"""Per-layer spans, recorded from outside the library.

Tracer.install() replaces each traced public function with a wrapper in
every hardy_spectral module namespace that holds it, so calls made
through `from .linalg import cholesky_solve` are caught as well as calls
inside the defining module. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module-qualified names, relative to the hardy_spectral package
TRACED = (
    "wgr.parse_wgr", "suite.run_suite", "report.emit_report",
    "content.neumann_content_exact", "content.neumann_content_sweep",
    "content.dirichlet_content_exact", "content.isoperimetric_exact",
    "content.level_set_quotient",
    "resistance.effective_resistance",
    "spectral.laplacian", "spectral.neumann_eigenvalue",
    "spectral.dirichlet_eigenvalue", "spectral.harmonic_extension",
    "linalg.cholesky_solve", "linalg.jacobi_eigen",
    "graph.validate", "graph.pinch",
)
# functions whose first argument is a matrix; its order is summed as work
ROWS = ("linalg.cholesky_solve", "linalg.jacobi_eigen")

PACKAGE = "hardy_spectral"


class Tracer:
    """Span recorder. A span is (op, parent, name, start, end, rows);
    `parent` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        with_rows = name in ROWS

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rows = np.shape(args[0])[0] if with_rows else 0
                spans[sid] = (self.op, parent, name, start, end, rows)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded module of the
        package that refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in TRACED:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Gzipped JSON lines, one span per line: [op, parent, name,
        start_us, end_us, rows], raw times in microseconds from the first
        span; a span's id is its line number from 0."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for op, parent, name, start, end, rows in self.spans:
                out.write(json.dumps([op, parent, name, round((start - origin) * 1e6),
                                      round((end - origin) * 1e6), rows]) + "\n")


def layer_totals(spans: list, scale_by_op: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per traced function: call count, summed self time in ms (span time
    minus the time its child spans cover, scaled by its operation's
    calibration factor) and summed rows."""
    child_ms = defaultdict(float)
    for span in spans:
        op, parent, name, start, end, rows = span
        if parent >= 0:
            child_ms[parent] += (end - start) * 1000.0
    totals = {name: {"calls": 0, "self_ms": 0.0, "rows": 0} for name in TRACED}
    for sid, span in enumerate(spans):
        op, parent, name, start, end, rows = span
        t = totals[name]
        t["calls"] += 1
        t["self_ms"] += ((end - start) * 1000.0 - child_ms[sid]) * scale_by_op[op]
        t["rows"] += rows
    return totals
