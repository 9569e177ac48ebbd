"""Layer tracing from outside the program.

curvlab is not edited.  `Tracer.installed()` rebinds, for the duration of a
`with` block, the names through which one curvlab module calls into another
(for example `curvlab.checks.point_geometry_at`), and `Jet.__mul__` reaches
`curvlab.jets.jet_product` through the module global, so rebinding that
name traces every jet product.  Each call becomes a span: name, start, end
and the index of its parent span.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  A module appears once per name it imported.
SPANS = (
    ("curvlab.jets", "jet_product", "jets.product"),
    ("curvlab.jets", "jet_elementary", "jets.elementary"),
    ("curvlab.expressions", "jet_elementary", "jets.elementary"),
    ("curvlab.geometry", "jet_elementary", "jets.elementary"),
    ("curvlab.checks", "jet_elementary", "jets.elementary"),
    ("curvlab.geometry", "evaluate_immersion", "immersions.evaluate"),
    ("curvlab.checks", "point_geometry_at", "geometry.point"),
    ("curvlab.geometry", "point_geometry_at", "geometry.point"),
    ("curvlab.geometry", "gauss_rank_at", "geometry.rank"),
    ("curvlab.checks", "gauss_rank_at", "geometry.rank"),
    ("curvlab.checks", "canonical_frame_at", "geometry.canonical"),
    ("curvlab.geometry", "canonical_frame_at", "geometry.canonical"),
    ("curvlab.checks", "alignment_pack_at", "geometry.alignment"),
    ("curvlab.checks", "complex_pack_at", "geometry.complex"),
    ("curvlab.checks", "curvature_pack_at", "geometry.curvature"),
    ("curvlab.checks", "scalar_field_jet", "geometry.scalar_field"),
    ("curvlab.checks", "laplace_beltrami_of_jet", "geometry.laplace"),
    ("curvlab.geometry", "laplace_beltrami_of_jet", "geometry.laplace"),
    ("curvlab.checks", "gradient_norm2_of_jet", "geometry.laplace"),
    ("curvlab.scenario", "evaluate_point", "checks.evaluate_point"),
    ("curvlab.scenario", "aggregate_check", "checks.aggregate"),
    ("curvlab.scenario", "growth_check_result", "checks.growth"),
    ("curvlab.scenario", "probe_check_result", "checks.probe"),
    ("curvlab.scenario", "run_scenario", "scenario.run"),
    ("curvlab.scenario", "emit_report", "scenario.emit"),
    ("curvlab.immersions.GridSpec", "points", "immersions.grid"),
)
# evaluate_expression serves jets (per point) and numpy arrays (grid masks,
# quadrature); the span name follows the type of the first variable.
EXPRESSION_CALLERS = ("curvlab.immersions", "curvlab.checks")
# _GraphFields.fields evaluates every quadrature cell once; it is wrapped only
# to count cells, so its time stays with the growth and probe spans.
CELL_COUNTER = ("curvlab.checks._GraphFields", "fields")


def _resolve(path: str):
    """Import a dotted path that may end in a class inside a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans of the calls made while installed, kept in memory until `take()`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.cells = 0

    def _wrap(self, fn, name=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name or name_of(args), clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _count_cells(self, fn):
        @functools.wraps(fn)
        def counted(self_, axes, *args, **kwargs):
            self.cells += int(axes[0].size)
            return fn(self_, axes, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        from curvlab.jets import Jet

        def expression_span(args):
            return "expressions.jet_eval" if isinstance(args[1][0], Jet) else "expressions.array_eval"

        patches = [(path, attr, functools.partial(self._wrap, name=name))
                   for path, attr, name in SPANS]
        patches += [(path, "evaluate_expression", functools.partial(self._wrap, name_of=expression_span))
                    for path in EXPRESSION_CALLERS]
        patches.append((*CELL_COUNTER, self._count_cells))
        saved = []
        try:
            for path, attr, wrap in patches:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> tuple[dict, Counter]:
        """Self seconds and call counts per span name; clears the spans."""
        self_time = defaultdict(float)
        calls = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            self_time[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        calls["checks.quad_cells"] = self.cells
        self.spans.clear()
        self.cells = 0
        return dict(self_time), calls

