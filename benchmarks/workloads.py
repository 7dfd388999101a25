"""The three benchmark workloads, as rounds of operations drawn from a seed.

A round is a fixed list of operation slots whose shapes come from a fixed
stream; the seed and the round index draw only the orthogonal map applied
to each slot, so the cost of a slot is the same in every round and seed
(the harness relies on this when it takes a slot's fastest latency).  Inputs
come from this file's own numpy generators, never from the library's
generators or suites.  Every operation carries a check built on
``oracles`` that never calls back into the library.

Calls go through ``hc.<name>`` at call time so that the traced run sees
the wrappers installed on the package attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hyperconvex as hc
import oracles as orc

@dataclass
class Op:
    family: str
    call: Callable[[], Any]
    # check(output, outputs of earlier keyed ops in the round) -> None or reason
    check: Callable[[Any, dict], str | None]
    key: str | None = None
    interval: bool = False


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _frame(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k orthonormal rows in R^n."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return (q * np.sign(np.diag(r))).T.copy()


def _check_rng(seed: int, wl: int, r: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, 100 + wl, r, i])


# ---------------------------------------------------------------------------
# aw-sweep

# Fixed stream for shapes: seeds rotate them, so cost per seed stays flat.
SHAPE_SEED = 0x5EED5
SEGMENT_LENGTHS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
SUP_BUDGET = 100_000
LINE_PARAMS = dict(eps_sup=1e-2, budget=300_000)


def _aw_op(family, a, b, lower_fn, upper=1.0, truth=None, params=None, key=None, origin=False):
    fn = "aw_origin" if origin else "attouch_wets"

    def call():
        return getattr(hc, fn)(a, b, params)

    def check(iv, outs):
        return orc.check_interval(iv, lower=lower_fn() if lower_fn else -math.inf, upper=upper, truth=truth)

    return Op(family, call, check, key=key, interval=True)


def _with_cross(op: Op, other_key: str, what: str) -> Op:
    base = op.check

    def check(iv, outs):
        bad = base(iv, outs)
        if bad is None and other_key in outs:
            bad = orc.check_overlap(iv, outs[other_key], what)
        return bad

    op.check = check
    return op


def aw_round(seed: int, r: int) -> list[Op]:
    """Shapes come from a fixed stream, the same in every round; the seed
    and the round index draw the orthogonal transform applied to each
    pair.  Every quantity here is invariant under orthogonal maps, so the
    inputs change with the seed and the round but the cost of a round
    does not, and ops_per_s does not depend on how many rounds fit."""
    tpl = [np.random.default_rng([SHAPE_SEED, 1, k]) for k in range(5)]  # one stream per section
    rng = np.random.default_rng([seed, 1, r])
    ops: list[Op] = []
    crng = lambda i: _check_rng(seed, 1, r, i)

    # nested segments [0, L u] vs [0, 2L u]; exact value known
    for L in SEGMENT_LENGTHS:
        u = _unit(rng, 2)
        a = hc.Polytope(np.array([[0.0, 0.0], L * u]))
        b = hc.Polytope(np.array([[0.0, 0.0], 2 * L * u]))
        ops.append(_aw_op("aw.segment", a, b, None, truth=orc.segment_aw(L)))

    # polytope vs small translate under AW (one pair also swapped, for
    # symmetry); three rotations of one translate pair under sup gap, which
    # gives the median a block of equal-cost slots
    for i, (n, m) in enumerate(((2, 3), (3, 4))):
        R = _frame(rng, n, n)
        P = tpl[0].standard_normal((m, n)) @ R.T
        v = 0.15 * _unit(tpl[0], n) @ R.T
        a, b = hc.Polytope(P), hc.Polytope(P + v)
        h = orc.hausdorff(P, P + v)
        low = lambda a=a, b=b, i=i, anc=(P, P + v): orc.aw_lower(a, b, crng(i), anchors=anc)
        ops.append(_aw_op("aw.translate", a, b, low, upper=min(1.0, h), key=f"tr{i}"))
        if i == 0:
            ops.append(_with_cross(_aw_op("aw.translate", b, a, low, upper=min(1.0, h)), f"tr{i}", "AW symmetry"))
    P0, v0 = tpl[1].standard_normal((4, 3)), 0.15 * _unit(tpl[1], 3)
    for i in range(3):
        R = _frame(rng, 3, 3)
        P, v = P0 @ R.T, v0 @ R.T
        ops.append(_sdg_op("sdg.translate", hc.Polytope(P), hc.Polytope(P + v), 2.0, orc.hausdorff(P, P + v), crng(10 + i), (P, P + v)))

    # polytope vs independent polytope
    for i, (n, m, how, radius) in enumerate(((2, 4, "aw", None), (3, 4, "aw", None), (2, 4, "sdg", 3.0), (3, 4, "sdg", 1.0))):
        R = _frame(rng, n, n)
        P, Q = tpl[2].standard_normal((m, n)) @ R.T, tpl[2].standard_normal((m, n)) @ R.T
        a, b = hc.Polytope(P), hc.Polytope(Q)
        h = orc.hausdorff(P, Q)
        if how == "aw":
            low = lambda a=a, b=b, i=i, anc=(P, Q): orc.aw_lower(a, b, crng(20 + i), anchors=anc)
            ops.append(_aw_op("aw.independent", a, b, low, upper=min(1.0, h)))
        else:
            ops.append(_sdg_op("sdg.independent", a, b, radius, h, crng(20 + i), (P, Q)))

    # flats and subspaces
    d = _frame(rng, 2, 1)
    e = np.array([-d[0, 1], d[0, 0]])
    s, f = hc.Subspace(d), hc.Flat(0.3 * e, d)
    ops.append(_aw_op("aw.flat", s, f, lambda s=s, f=f: orc.aw_lower(s, f, crng(30), anchors=(d, -d)), upper=0.3))
    R = _frame(rng, 3, 3)
    V = _frame(tpl[3], 3, 2)
    W = np.linalg.qr((V + 0.2 * tpl[3].standard_normal(V.shape)).T)[0].T @ R.T
    V = V @ R.T
    s1, s2 = hc.Subspace(V), hc.Subspace(W)
    ops.append(_aw_op("aw.flat", s1, s2, lambda s1=s1, s2=s2: orc.aw_lower(s1, s2, crng(31), anchors=(V, W))))
    R = _frame(rng, 3, 3)
    P = tpl[3].standard_normal((4, 3)) @ R.T
    line = hc.Flat(0.5 * tpl[3].standard_normal(3) @ R.T, _frame(tpl[3], 3, 1) @ R.T)
    poly = hc.Polytope(P)
    far = max(orc.set_projector(poly)(np.zeros(3))[1], orc.set_projector(line)(np.zeros(3))[1])
    ops.append(_sdg_op("sdg.flat", poly, line, 2.0, 2.0 + far, crng(32), (P,)))

    # origin-containing pairs: aw_origin cross-checked against attouch_wets,
    # plus truncated_hausdorff
    for i, n in enumerate((2, 3)):
        R = _frame(rng, n, n)
        d1, d2 = _frame(tpl[4], n, 1) @ R.T, _frame(tpl[4], n, 1) @ R.T
        s1, s2 = hc.Subspace(d1), hc.Subspace(d2)
        low = lambda s1=s1, s2=s2, i=i, anc=(d1, d2): orc.aw_lower(s1, s2, crng(40 + i), anchors=anc)
        ops.append(_aw_op("aw.origin", s1, s2, low, key=f"os{i}", origin=True))
        ops.append(_with_cross(_aw_op("aw.origin-ambient", s1, s2, low), f"os{i}", "attouch_wets vs aw_origin"))
        ops.append(_th_op("th.subspace", s1, s2, 2.0, truth=2.0 * orc.gap(d1, d2)))
    R = _frame(rng, 2, 2)
    P = tpl[4].standard_normal((4, 2))
    P = (P - P.mean(axis=0)) @ R.T
    a, b = hc.Polytope(P), hc.Polytope(1.1 * P)
    low = lambda a=a, b=b, anc=(P, 1.1 * P): orc.aw_lower(a, b, crng(45), anchors=anc)
    ops.append(_aw_op("aw.origin", a, b, low, upper=min(1.0, orc.hausdorff(P, 1.1 * P)), key="op", origin=True))
    ops.append(_with_cross(_aw_op("aw.origin-ambient", a, b, low), "op", "attouch_wets vs aw_origin"))
    ops.append(_th_op("th.polytope", a, b, 1.0, lower_pts=(P, 1.1 * P)))

    # nearby lines in R^3 and R^4 at a loose width and a small budget; the
    # random frame is the orientation, the shape is fixed
    params = hc.AWParams(**LINE_PARAMS)
    for i, n in enumerate((3, 4)):
        F = _frame(rng, n, 3)
        a = hc.Flat(0.5 * F[1], F[:1])
        b = hc.Flat(0.5 * F[1] + 0.05 * F[2], (math.cos(0.05) * F[0] + math.sin(0.05) * F[1])[None, :])
        low = lambda a=a, b=b, i=i, anc=(F,): orc.aw_lower(a, b, crng(50 + i), anchors=anc)
        ops.append(_aw_op("aw.lines", a, b, low, params=params))
    return ops


def _sdg_op(family, a, b, radius, upper, rng, anchors):
    def call():
        return hc.sup_distance_gap(a, b, radius, budget=SUP_BUDGET)

    def check(iv, outs):
        return orc.check_interval(iv, lower=orc.sup_gap_lower(a, b, radius, rng, anchors=anchors), upper=upper)

    return Op(family, call, check, interval=True)


def _th_op(family, a, b, radius, truth=None, lower_pts=None):
    """truncated_hausdorff; for polytopes, every point x of a ∩ rB has
    d(x, b ∩ rB) >= d(x, b), so generators pulled into the ball give a
    lower bound (the origin is in both hulls, so the pulled points stay in)."""

    def call():
        return hc.truncated_hausdorff(a, b, radius, budget=SUP_BUDGET)

    def check(iv, outs):
        lower = -math.inf
        if lower_pts is not None:
            lower = 0.0
            for src, dst in ((lower_pts[0], lower_pts[1]), (lower_pts[1], lower_pts[0])):
                nrm = np.linalg.norm(src, axis=1, keepdims=True)
                pulled = src * np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
                lower = max(lower, max(orc.hull_projection(dst, x)[1] for x in pulled))
        return orc.check_interval(iv, lower=lower, upper=2.0 * radius, truth=truth)

    return Op(family, call, check, interval=True)


def aw_warmup() -> list[Op]:
    rng = np.random.default_rng(7)
    a = hc.Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = hc.Polytope(np.array([[0.0, 0.0], [2.0, 0.0]]))
    P = rng.standard_normal((3, 2))
    c, d = hc.Polytope(P), hc.Polytope(P + 0.1)
    s1, s2 = hc.Subspace(_frame(rng, 2, 1)), hc.Subspace(_frame(rng, 2, 1))
    ok = lambda out, outs: None
    return [
        Op("warm", lambda: hc.attouch_wets(a, b), ok),
        Op("warm", lambda: hc.sup_distance_gap(c, d, 1.0, budget=SUP_BUDGET), ok),
        Op("warm", lambda: hc.aw_origin(s1, s2), ok),
        Op("warm", lambda: hc.truncated_hausdorff(s1, s2, 1.0), ok),
    ]


# ---------------------------------------------------------------------------
# polytope-batch

# (n, m, evaluator ops per round, hausdorff ops per round).  The n = 4
# cells straddle the m > 16 route switch (face enumeration up to m = 16,
# a per-row Wolfe loop above); at n = 8 one evaluator build at m = 16
# takes seconds, so the traced run times the n8 cliff as a probe instead.
# hausdorff is left out where it would take a large share of the round
# (n4 m14, n4 m16, n6 m12).  A round takes about a second, so a run holds
# enough rounds for per-slot minima.
GRID = (
    (2, 4, 4, 4),
    (3, 6, 4, 4),
    (4, 8, 3, 2),
    (4, 14, 1, 0),
    (4, 16, 1, 0),
    (4, 17, 4, 2),
    (4, 24, 4, 2),
    (6, 12, 1, 0),
    (12, 32, 2, 1),
)
BLOCK_ROWS = 64


def batch_round(seed: int, r: int) -> list[Op]:
    """One generator cloud, query block and hausdorff pair per grid cell,
    from a fixed stream; the seed and round index draw the orthogonal map
    applied to each slot (distances are invariant under it), so slots of a
    cell cost the same."""
    tpl = np.random.default_rng([SHAPE_SEED, 2])
    rng = np.random.default_rng([seed, 2, r])
    evals, hds = [], []
    for n, m, k_eval, k_h in GRID:
        P0 = tpl.standard_normal((m, n))
        X0 = 1.5 * tpl.standard_normal((BLOCK_ROWS, n))
        A0, B0 = tpl.standard_normal((m, n)), tpl.standard_normal((m, n)) + 0.5 * _unit(tpl, n)
        for _ in range(k_eval):
            R = _frame(rng, n, n)
            P = P0 @ R.T
            evals.append(_eval_op(n, m, hc.Polytope(P), P, X0 @ R.T))
        for _ in range(k_h):
            R = _frame(rng, n, n)
            hds.append(_hausdorff_op(n, m, A0 @ R.T, B0 @ R.T))
    # interleave the evaluator and hausdorff slots in a fixed order
    ops, i, j = [], 0, 0
    while i < len(evals) or j < len(hds):
        if i < len(evals):
            ops.append(evals[i])
            i += 1
        if j < len(hds):
            ops.append(hds[j])
            j += 1
    return ops


def _eval_op(n, m, poly, P, X):
    def call():
        return hc.distance_evaluator(poly)(X)

    def check(d, outs):
        ref = np.array([orc.hull_projection(P, x)[1] for x in X])
        scale = float(np.abs(P).max() + np.abs(X).max())
        for v, rv in zip(np.asarray(d), ref):
            bad = orc.check_distance(float(v), float(rv), scale)
            if bad:
                return bad
        return None

    return Op(f"eval.n{n}m{m}", call, check)


def _hausdorff_op(n, m, P, Q):
    a, b = hc.Polytope(P), hc.Polytope(Q)

    def check(h, outs):
        return orc.check_distance(float(h), orc.hausdorff(P, Q), float(np.abs(P).max() + np.abs(Q).max()), "hausdorff")

    return Op(f"hausdorff.n{n}m{m}", lambda: hc.hausdorff(a, b), check)


def batch_warmup() -> list[Op]:
    rng = np.random.default_rng(7)
    ok = lambda out, outs: None
    ops = []
    for n, m in ((2, 4), (4, 17)):
        P = rng.standard_normal((m, n))
        ops.append(_eval_op(n, m, hc.Polytope(P), P, rng.standard_normal((8, n))))
        ops.append(_hausdorff_op(n, m, P, rng.standard_normal((m, n))))
    for op in ops:
        op.check = ok
    return ops


# ---------------------------------------------------------------------------
# small-queries

# Polytope coordinates are scaled by 10^U(0, SCALE_DECADES).  Wolfe's
# method raises ConvergenceError on many polytopes scaled by 1e3 or more;
# that defect is measured on fixed inputs by the traced run's probe
# (baseline.projection_fail_share.*) rather than as failed ops here.
SCALE_DECADES = 2.0
# (family, slots per round)
QUERY_MIX = (
    ("construct", 3),
    ("proj.flat", 4),
    ("trunc.flat", 4),
    ("independence_radius", 3),
    ("gap", 5),
    ("proj.polytope", 35),
    ("contains.polytope", 15),
    ("chart.flat", 5),
    ("trunc.polytope", 20),
    ("chart.convex", 8),
)


def _scaled_cloud(tpl):
    """Generators for n in 2..8, m in 2..24, coordinates scaled by 10^U(0, SCALE_DECADES)."""
    n = int(tpl.integers(2, 9))
    m = int(tpl.integers(2, 25))
    scale = 10.0 ** tpl.uniform(0.0, SCALE_DECADES)
    return scale * tpl.standard_normal((m, n)), scale


def queries_round(seed: int, r: int) -> list[Op]:
    """Shapes, query points and radii come from a fixed stream, the same in
    every round; the seed and the round index draw one orthogonal map per
    slot, applied to everything in the slot (every checked quantity is
    invariant under it).  About a quarter of the slots are cheap calls
    (construction, flats, radii, gaps), half are polytope projections and
    containment, and a quarter truncated polytope distances and charts."""
    tpl = np.random.default_rng([SHAPE_SEED, 3])
    rng = np.random.default_rng([seed, 3, r])
    tau_geom = hc.ToleranceConfig().tau_geom
    ops: list[Op] = []
    for family, count in QUERY_MIX:
        for i in range(count):
            ops.append(_QUERY_SLOTS[family](tpl, rng, i, tau_geom))
    return ops


def _construct_slot(tpl, rng, i, tau_geom):
    return _construct_op(tpl, rng, ("polytope", "flat", "subspace")[i % 3])


def _proj_flat_slot(tpl, rng, i, tau_geom):
    kind = ("flat", "subspace")[i % 2]
    s, scale, R = _random_flat(tpl, rng, kind)
    x = 1.5 * scale * tpl.standard_normal(s.ambient_dim) @ R.T
    return _projection_op(f"proj.{kind}", s, x, scale)


def _trunc_flat_slot(tpl, rng, i, tau_geom):
    kind = ("flat", "subspace")[i % 2]
    s, scale, R = _random_flat(tpl, rng, kind)
    nu = orc.set_projector(s)(np.zeros(s.ambient_dim))[1]
    L = nu + scale * tpl.uniform(0.1, 2.0)
    x = 1.5 * scale * tpl.standard_normal(s.ambient_dim) @ R.T
    return _truncated_op(f"trunc.{kind}", s, x, L, scale)


def _radius_slot(tpl, rng, i, tau_geom):
    n = int(tpl.integers(2, 9))
    k = int(tpl.integers(1, n + 1))
    return _radius_op(tpl.standard_normal((k + 1, n)) @ _frame(rng, n, n).T)


def _gap_slot(tpl, rng, i, tau_geom):
    n = int(tpl.integers(2, 9))
    k = int(tpl.integers(1, n))
    V = _frame(tpl, n, k)
    if i % 2 == 1 and k + 1 < n:
        W = _frame(tpl, n, k + 1)
    else:
        W = np.linalg.qr((V + 10.0 ** tpl.uniform(-6, 0) * tpl.standard_normal(V.shape)).T)[0].T
    R = _frame(rng, n, n)
    V, W = V @ R.T, W @ R.T
    return _gap_op(hc.Subspace(V), hc.Subspace(W), V, W)


def _proj_polytope_slot(tpl, rng, i, tau_geom):
    P, scale = _scaled_cloud(tpl)
    x = 1.5 * scale * tpl.standard_normal(P.shape[1])
    R = _frame(rng, P.shape[1], P.shape[1])
    return _projection_op("proj.polytope", hc.Polytope(P @ R.T), x @ R.T, scale)


def _contains_slot(tpl, rng, i, tau_geom):
    P, scale = _scaled_cloud(tpl)
    if i % 2 == 0:
        x, expect = tpl.dirichlet(np.ones(P.shape[0])) @ P, True
    else:
        c = P.mean(axis=0)
        reach = float(np.linalg.norm(P - c, axis=1).max())
        x, expect = c + (reach + scale) * _unit(tpl, P.shape[1]), False
    R = _frame(rng, P.shape[1], P.shape[1])
    return _contains_op(hc.Polytope(P @ R.T), x @ R.T, 1e-6 * scale, expect)


def _trunc_polytope_slot(tpl, rng, i, tau_geom):
    P, scale = _scaled_cloud(tpl)
    nrm = np.linalg.norm(P, axis=1)
    L = float(tpl.uniform(nrm.min(), nrm.max()))
    x = 1.5 * scale * tpl.standard_normal(P.shape[1])
    R = _frame(rng, P.shape[1], P.shape[1])
    return _truncated_op("trunc.polytope", hc.Polytope(P @ R.T), x @ R.T, L, scale)


def _chart_flat_slot(tpl, rng, i, tau_geom):
    return _chart_flat_op(*_chart_pair(tpl, rng), tau_geom)


def _chart_convex_slot(tpl, rng, i, tau_geom):
    return _chart_convex_op(*_chart_pair(tpl, rng), tau_geom)


_QUERY_SLOTS = {
    "construct": _construct_slot,
    "proj.flat": _proj_flat_slot,
    "trunc.flat": _trunc_flat_slot,
    "independence_radius": _radius_slot,
    "gap": _gap_slot,
    "proj.polytope": _proj_polytope_slot,
    "contains.polytope": _contains_slot,
    "chart.flat": _chart_flat_slot,
    "trunc.polytope": _trunc_polytope_slot,
    "chart.convex": _chart_convex_slot,
}


def _random_flat(tpl, rng, kind):
    n = int(tpl.integers(2, 9))
    k = int(tpl.integers(1, n))
    scale = 10.0 ** tpl.uniform(0.0, 6.0)
    basis = _frame(tpl, n, k)
    base = scale * tpl.standard_normal(n)
    R = _frame(rng, n, n)
    if kind == "subspace":
        return hc.Subspace(basis @ R.T), scale, R
    return hc.Flat(base @ R.T, basis @ R.T), scale, R


def _projection_op(family, s, x, scale):
    proj = orc.set_projector(s)

    def check(out, outs):
        point, dist = out
        ref_point, ref_dist = proj(x)
        return orc.check_projection(point, dist, ref_point, ref_dist, scale)

    return Op(family, lambda: hc.metric_projection(s, x), check)


def _contains_op(s, x, tol, expect):
    def check(out, outs):
        ref = orc.set_projector(s)(x)[1] <= tol
        if bool(out) != expect or ref != expect:
            return f"contains returned {out}, expected {expect} (reference {ref})"
        return None

    return Op("contains.polytope", lambda: hc.contains(s, x, tol), check)


def _truncated_op(family, s, x, L, scale):
    def check(out, outs):
        _, ref = orc.truncated_projection(orc.set_projector(s), x, L)
        return orc.check_distance(float(out), ref, scale, "truncated distance")

    return Op(family, lambda: hc.truncated_distance(s, x, L), check)


def _gap_op(v, w, V, W):
    return Op("gap", lambda: hc.gap(v, w), lambda out, outs: orc.check_gap(float(out), orc.gap(V, W)))


def _chart_pair(tpl, rng):
    """w, a nearby v of the same dimension, an offset orthogonal to w and
    body coordinates, drawn from the fixed stream and then rotated."""
    n = int(tpl.integers(3, 7))
    k = int(tpl.integers(1, n))
    Wb = _frame(tpl, n, k)
    Vb = np.linalg.qr((Wb + 0.3 * tpl.standard_normal(Wb.shape)).T)[0].T
    omega = tpl.standard_normal(n)
    omega -= Wb.T @ (Wb @ omega)
    coords = tpl.standard_normal((k + 2, k))
    R = _frame(rng, n, n)
    return Wb @ R.T, Vb @ R.T, omega @ R.T, coords


def _chart_flat_op(Wb, Vb, omega, coords, tau_geom):
    w, v = hc.Subspace(Wb), hc.Subspace(Vb)

    def call():
        f = hc.chart_flat(w, v, omega)
        return hc.chart_flat_inv(w, f)

    def check(out, outs):
        v2, om2 = out
        res = max(float(np.linalg.norm(np.asarray(om2) - omega)), orc.projector_distance(np.asarray(v2.basis), Vb))
        return orc.check_residual(res, tau_geom * max(1.0, float(np.linalg.norm(omega))), "chart_flat round-trip")

    return Op("chart.flat", call, check)


def _chart_convex_op(Wb, Vb, omega, coords, tau_geom):
    w, v = hc.Subspace(Wb), hc.Subspace(Vb)
    body = coords @ Wb
    triple = hc.ChartTriple(v, omega, hc.Polytope(body))

    def call():
        b = hc.chart_convex(w, triple)
        return hc.chart_convex_inv(w, b)

    def check(out, outs):
        res = max(
            float(np.linalg.norm(np.asarray(out.offset) - omega)),
            float(np.abs(np.asarray(out.body.points) - body).max()),
            orc.projector_distance(np.asarray(out.direction.basis), Vb),
        )
        scale = max(1.0, float(np.linalg.norm(omega)), float(np.abs(body).max()))
        return orc.check_residual(res, tau_geom * scale, "chart_convex round-trip")

    return Op("chart.convex", call, check)


def _radius_op(pts):
    def check(out, outs):
        return orc.check_distance(float(out), orc.independence_radius(pts), 1.0, "independence radius")

    return Op("independence_radius", lambda: hc.independence_radius(pts), check)


def _construct_op(tpl, rng, kind):
    n = int(tpl.integers(2, 9))
    R = _frame(rng, n, n)
    if kind == "polytope":
        P = tpl.standard_normal((int(tpl.integers(2, 25)), n)) @ R.T
        call = lambda: hc.Polytope(P)
        check = lambda out, outs: None if np.array_equal(out.points, P) else "points changed"
    else:
        basis = _frame(tpl, n, int(tpl.integers(1, n))) @ R.T
        base = tpl.standard_normal(n) @ R.T
        if kind == "flat":
            call = lambda: hc.Flat(base, basis)
            check = lambda out, outs: None if np.array_equal(out.base, base) and np.array_equal(out.basis, basis) else "data changed"
        else:
            call = lambda: hc.Subspace(basis)
            check = lambda out, outs: None if np.array_equal(out.basis, basis) else "basis changed"
    return Op(f"construct.{kind}", call, check)


def queries_warmup() -> list[Op]:
    ops = queries_round(7, 0)
    for op in ops:
        op.check = lambda out, outs: None
    return ops


WORKLOADS = {
    "aw-sweep": (aw_round, aw_warmup),
    "polytope-batch": (batch_round, batch_warmup),
    "small-queries": (queries_round, queries_warmup),
}
