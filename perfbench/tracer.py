"""In-memory spans around the calls the benchmark makes into each layer.

Nothing here edits the library: the benchmark wraps the objects it hands to
the solvers (objective, oracle, model instances, constraint sets) by setting
instance attributes, and swaps two module-level functions the solver modules
call (``modelcg.models.pdhg_solve``, ``modelcg.solver.armijo_search``) for
the length of one traced pass.

A span is (layer, name, start, end, parent, solve id, info). A layer's self
time is its spans' durations minus the time their child spans cover, so the
self times of one solve add up to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "solve", "info")

    def __init__(self, layer, name, parent, solve):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.solve = solve
        self.info = {}
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1

    def wrap(self, layer, name, fn, info=None):
        """``fn`` with a span around each call. ``info(span, args, kwargs,
        result)`` may attach small facts about the call to the span."""

        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else -1, self.solve_id)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                info(span, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def layer_self_times(self):
        out = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            out[s.layer] += t
        return out

    def select(self, layer=None, name=None):
        return [
            s for s in self.spans
            if (layer is None or s.layer == layer) and (name is None or s.name == name)
        ]


def leaf_sets(constraint):
    """The constraint itself and every set nested in a product set."""
    yield constraint
    for sub in getattr(constraint, "sets", ()):
        yield from leaf_sets(sub)


def trace_constraint(tracer, constraint):
    for s in leaf_sets(constraint):
        kind = type(s).__name__.lower()
        for method in ("lmo", "project", "contains"):
            setattr(s, method, tracer.wrap("geometry", f"{method}.{kind}", getattr(s, method)))


def _pdhg_info(span, args, kwargs, result):
    span.info["iterations"] = int(result.iterations)
    span.info["converged"] = bool(result.converged)


def _armijo_info(span, args, kwargs, result):
    span.info["backtracks"] = int(result.backtracks)


@contextlib.contextmanager
def traced_library(tracer):
    """Swap in traced versions of the two module-level functions the solver
    modules call, and restore them afterwards."""
    import modelcg.models as models
    import modelcg.solver as solver

    saved = (models.pdhg_solve, solver.armijo_search)
    models.pdhg_solve = tracer.wrap("inner", "pdhg_solve", saved[0], _pdhg_info)
    solver.armijo_search = tracer.wrap("solver", "linesearch", saved[1], _armijo_info)
    try:
        yield
    finally:
        models.pdhg_solve, solver.armijo_search = saved
