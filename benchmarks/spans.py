"""Span recording for the traced run, from outside the library.

Tracing replaces public functions at every hyperconvex module attribute
that holds them (so intra-package callers such as ``hypermetrics`` calling
``ball_sup`` or ``distance_evaluator`` see the wrapper), records one span
per call, and restores the originals on exit.  Evaluator factories also
wrap the callable they return, so row counts and evaluation time inside
``ball_sup`` are attributed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, kind)
TARGETS = (
    ("hypermetrics", "ball_sup", "hypermetrics.ball_sup", "sup"),
    ("hypermetrics", "hausdorff", "hypermetrics.hausdorff", "plain"),
    ("hypermetrics", "attouch_wets", "hypermetrics.attouch_wets", "plain"),
    ("hypermetrics", "aw_origin", "hypermetrics.aw_origin", "plain"),
    ("hypermetrics", "sup_distance_gap", "hypermetrics.sup_distance_gap", "plain"),
    ("hypermetrics", "truncated_hausdorff", "hypermetrics.truncated_hausdorff", "plain"),
    ("projection", "distance_evaluator", "projection.evaluator_build", "dist_factory"),
    ("projection", "truncated_distance_evaluator", "projection.evaluator_build", "trunc_factory"),
    ("projection", "min_norm_point", "projection.min_norm_point", "plain"),
    ("projection", "metric_projection", "projection.metric_projection", "plain"),
    ("projection", "truncated_distance", "projection.truncated_distance", "plain"),
    ("projection", "contains", "projection.contains", "plain"),
    ("config", "default_tolerances", "config.default_tolerances", "plain"),
    ("grassmann", "gap", "grassmann.gap", "plain"),
    ("grassmann", "chart_flat", "grassmann.chart_flat", "plain"),
    ("grassmann", "chart_flat_inv", "grassmann.chart_flat_inv", "plain"),
    ("bundle", "chart_convex", "bundle.chart_convex", "plain"),
    ("bundle", "chart_convex_inv", "bundle.chart_convex_inv", "plain"),
    ("independence", "independence_radius", "independence.independence_radius", "plain"),
)


def _shape_of(s):
    pts = getattr(s, "points", None)
    if pts is None:
        return None
    return int(pts.shape[1]), int(pts.shape[0])


class Tracer:
    """Collects spans as [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = {**(span[5] or {}), **attrs}
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, attrs=None, on_result=None):
        idx = self.open(name, attrs)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(idx, {"error": type(exc).__name__})
            raise
        self.close(idx, on_result(out) if on_result else None)
        return out

    # -- installation -------------------------------------------------------

    def _wrapper(self, fn, name: str, kind: str):
        tracer = self

        def wrap_eval(f, span_name, shape):
            def traced_eval(X):
                rows = int(np.atleast_2d(X).shape[0])
                return tracer.call(span_name, f, (X,), {}, {"rows": rows, "shape": shape})

            return traced_eval

        if kind == "sup":
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, on_result=lambda r: {"evals": int(r.evals), "certified": bool(r.certified)})
        elif kind == "dist_factory":
            def traced(s, *args, **kwargs):
                shape = _shape_of(s)
                f = tracer.call(name, fn, (s,) + args, kwargs, {"shape": shape})
                return wrap_eval(f, "projection.distance_eval", shape)
        elif kind == "trunc_factory":
            def traced(s, *args, **kwargs):
                shape = _shape_of(s)
                f = tracer.call(name, fn, (s,) + args, kwargs, {"shape": shape})
                return wrap_eval(f, "projection.truncated_eval", shape)
        else:
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every hyperconvex module attribute bound to it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "hyperconvex" or k.startswith("hyperconvex.")]
        for mod_name, attr, name, kind in TARGETS:
            home = sys.modules.get(f"hyperconvex.{mod_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                if f"{mod_name}.{attr}" not in self.missing:
                    self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = self._wrapper(fn, name, kind)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op, **(attrs or {})}) + "\n")


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not double counted), self seconds (duration minus
    direct children), summed rows and evals, errors and uncertified counts,
    and per-(n, m) rows and seconds for evaluator spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _a in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _op, attrs) in enumerate(spans):
        agg = out[name]
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            agg["s"] += dur
        if attrs:
            if "rows" in attrs:
                agg["rows"] += attrs["rows"]
                if attrs.get("shape"):
                    n, m = attrs["shape"]
                    agg[f"rows.n{n}m{m}"] += attrs["rows"]
                    agg[f"s.n{n}m{m}"] += dur
            if "evals" in attrs:
                agg["evals"] += attrs["evals"]
                agg["uncertified"] += 0 if attrs["certified"] else 1
            if "error" in attrs:
                agg["fail"] += 1
    return out
