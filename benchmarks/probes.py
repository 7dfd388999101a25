"""Baseline probes for the traced run, on fixed inputs so counts repeat.

Each probe belongs to the workload whose layers it describes; the other
workloads report its metrics as 0.
"""

from __future__ import annotations

import time

import numpy as np

import hyperconvex as hc
from oracles import projector_distance
from spans import Tracer, aggregate

PROBE_SEED = 20241001
HAUSDORFF_CELLS = ((8, 16), (8, 17))
EVAL_ROWS = 64
FAIL_SCALES = (("1e2", 1e2), ("1e4", 1e4), ("1e6", 1e6))
FAIL_TRIALS = 100
CHART_TRIALS = 400


def readme_pair() -> dict:
    """attouch_wets on the README segments [0, 10 e1] and [0, 20 e1]."""
    a = hc.Polytope(np.array([[0.0, 0.0], [10.0, 0.0]]))
    b = hc.Polytope(np.array([[0.0, 0.0], [20.0, 0.0]]))
    with Tracer() as tr:
        t0 = time.perf_counter()
        hc.attouch_wets(a, b)
        total = time.perf_counter() - t0
    agg = aggregate(tr.spans)
    sup = agg.get("hypermetrics.ball_sup", {})
    return {
        "baseline.readme_pair.attouch_wets.s": (total, "s"),
        "baseline.readme_pair.ball_sup.calls": (sup.get("calls", 0), "count"),
        "baseline.readme_pair.ball_sup.evals": (sup.get("evals", 0), "count"),
        "baseline.readme_pair.ball_sup.s": (sup.get("s", 0.0), "s"),
    }


def hausdorff_cliff() -> dict:
    """hausdorff on one random pair on each side of the m = 16 route switch."""
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    for n, m in HAUSDORFF_CELLS:
        a = hc.Polytope(rng.standard_normal((m, n)))
        b = hc.Polytope(rng.standard_normal((m, n)))
        t0 = time.perf_counter()
        hc.hausdorff(a, b)
        out[f"baseline.hausdorff.s.n{n}m{m}"] = (time.perf_counter() - t0, "s")
    return out


def evaluator_cliff() -> dict:
    """distance_evaluator build time and per-row cost on one random
    polytope on each side of the m = 16 route switch at n = 8."""
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    for n, m in HAUSDORFF_CELLS:
        poly = hc.Polytope(rng.standard_normal((m, n)))
        X = 1.5 * rng.standard_normal((EVAL_ROWS, n))
        t0 = time.perf_counter()
        ev = hc.distance_evaluator(poly)
        t1 = time.perf_counter()
        ev(X)
        t2 = time.perf_counter()
        out[f"baseline.evaluator_build.s.n{n}m{m}"] = (t1 - t0, "s")
        out[f"baseline.distance_eval.us_per_row.n{n}m{m}"] = (1e6 * (t2 - t1) / EVAL_ROWS, "us")
    return out


def chart_residuals() -> dict:
    """chart_convex -> chart_convex_inv round trips on random charts whose
    v is w with its first direction turned towards the complement by an
    angle with cosine 10^-U(0, 5), so cond(W V^T) spans 1 to 1e5: the
    largest residual as a multiple of its tau_geom limit, and how many
    round trips exceed the limit."""
    rng = np.random.default_rng(PROBE_SEED)
    tau_geom = hc.ToleranceConfig().tau_geom
    worst, over = 0.0, 0
    for _ in range(CHART_TRIALS):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0].T
        Wb = Q[:k]
        Vb = Wb.copy()
        cos = 10.0 ** -rng.uniform(0.0, 5.0)
        Vb[0] = cos * Q[0] + np.sqrt(1.0 - cos * cos) * Q[k]
        omega = rng.standard_normal(n)
        omega -= Wb.T @ (Wb @ omega)
        body = rng.standard_normal((k + 2, k)) @ Wb
        w = hc.Subspace(Wb)
        back = hc.chart_convex_inv(w, hc.chart_convex(w, hc.ChartTriple(hc.Subspace(Vb), omega, hc.Polytope(body))))
        res = max(
            float(np.linalg.norm(np.asarray(back.offset) - omega)),
            float(np.abs(np.asarray(back.body.points) - body).max()),
            projector_distance(np.asarray(back.direction.basis), Vb),
        )
        ratio = res / (tau_geom * max(1.0, float(np.linalg.norm(omega)), float(np.abs(body).max())))
        worst, over = max(worst, ratio), over + (ratio > 1.0)
    return {
        "baseline.chart_convex.max_residual_over_tol": (worst, "ratio"),
        "baseline.chart_convex.over_tol": (float(over), "count"),
    }


def projection_failures() -> dict:
    """Share of metric_projection calls raising ConvergenceError on random
    polytopes (n 2-5, m 2-9) with coordinates at a fixed scale."""
    out = {}
    for label, scale in FAIL_SCALES:
        rng = np.random.default_rng(PROBE_SEED)
        fails = 0
        for _ in range(FAIL_TRIALS):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 10))
            P = scale * rng.standard_normal((m, n))
            x = scale * rng.standard_normal(n)
            try:
                hc.metric_projection(hc.Polytope(P), x)
            except hc.ConvergenceError:
                fails += 1
        out[f"baseline.projection_fail_share.scale{label}"] = (fails / FAIL_TRIALS, "ratio")
    return out


PROBES = {
    "aw-sweep": (readme_pair,),
    "polytope-batch": (hausdorff_cliff, evaluator_cliff),
    "small-queries": (projection_failures, chart_residuals),
}


def names() -> list[tuple[str, str]]:
    """(metric name, unit) of every probe metric, without running anything."""
    rows = [
        ("baseline.readme_pair.attouch_wets.s", "s"),
        ("baseline.readme_pair.ball_sup.calls", "count"),
        ("baseline.readme_pair.ball_sup.evals", "count"),
        ("baseline.readme_pair.ball_sup.s", "s"),
    ]
    rows += [(f"baseline.hausdorff.s.n{n}m{m}", "s") for n, m in HAUSDORFF_CELLS]
    rows += [(f"baseline.evaluator_build.s.n{n}m{m}", "s") for n, m in HAUSDORFF_CELLS]
    rows += [(f"baseline.distance_eval.us_per_row.n{n}m{m}", "us") for n, m in HAUSDORFF_CELLS]
    rows += [(f"baseline.projection_fail_share.scale{label}", "ratio") for label, _ in FAIL_SCALES]
    rows += [("baseline.chart_convex.max_residual_over_tol", "ratio"), ("baseline.chart_convex.over_tol", "count")]
    return rows


def run(workload: str) -> dict:
    out = {name: (0.0, unit) for name, unit in names()}
    for probe in PROBES[workload]:
        out.update(probe())
    return out
