"""Hyperspace metrics on convex sets, reported as enclosing intervals.

Exact routes are used wherever the geometry admits one: generator-based
Hausdorff distance for polytope pairs, and a spectral reduction for a pair
of subspaces cut by a common ball (inside the ball the truncated distance
to a subspace coincides with the plain orthogonal residual, so the
one-sided sup is an operator norm).  Everything else runs through a
hierarchical branch-and-bound over box covers of the ball: boxes are
evaluated at centers clamped into the domain, bounded above through
Lipschitz slack, corner values (for convex objectives) and global caps,
then split along their widest axis until the requested width is certified.

Every interval returned encloses the true value.  certified=False marks a
width request missed because an evaluation budget ran out; the enclosure
itself still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import HyperconvexError
from .intervals import Interval
from .projection import (
    _clamp_rows,
    contains,
    distance_evaluator,
    flat_min_norm_point,
    truncated_distance_evaluator,
)
from .sets import (
    ConvexSet,
    Flat,
    Polytope,
    Subspace,
    as_flat,
    check_same_ambient,
)


@dataclass(frozen=True)
class AWParams:
    """Knobs for the localized-convergence metric estimators.

    eps_sup is the width requested from each inner sup estimate, j_cap the
    largest ball index scanned (past it the result can widen by at most
    1/(j_cap+1)), budget the evaluation allowance per inner estimate.
    """

    eps_sup: float = 1e-3
    j_cap: int = 64
    budget: int = 1_500_000

    def __post_init__(self):
        if not self.eps_sup > 0:
            raise HyperconvexError("eps_sup must be positive")
        if self.j_cap < 1:
            raise HyperconvexError("j_cap must be at least 1")
        if self.budget < 1000:
            raise HyperconvexError("budget too small to certify anything")


# ---------------------------------------------------------------------------
# certified sup over a ball (branch and bound)


@dataclass(frozen=True)
class SupEstimate:
    lo: float
    hi: float
    certified: bool
    evals: int


_CHUNK = 1 << 17


def _eval_chunked(f: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> np.ndarray:
    if X.shape[0] <= _CHUNK:
        return np.asarray(f(X), dtype=float)
    parts = [np.asarray(f(X[i : i + _CHUNK]), dtype=float) for i in range(0, X.shape[0], _CHUNK)]
    return np.concatenate(parts)


def _corner_signs(dim: int) -> np.ndarray:
    grid = np.indices((2,) * dim).reshape(dim, -1).T
    return grid * 2.0 - 1.0


def ball_sup(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    radius: float,
    *,
    lip: float,
    eps: float,
    hub: float = np.inf,
    stop_below: float = -np.inf,
    stop_above: float = np.inf,
    convex: bool = False,
    budget: int = 1_500_000,
    seeds: np.ndarray | None = None,
) -> SupEstimate:
    """Certified estimate of sup f over the closed radius-ball in R^dim.

    f maps row batches to values and must be lip-Lipschitz on R^dim (it is
    evaluated outside the ball only for the convex corner bound).  hub is an
    optional known upper bound for the sup.  Early exits: once the lower
    bound reaches stop_above, or once the upper bound drops to stop_below,
    the estimate returns without tightening further; both exits still
    return a valid enclosure.

    Soundness of the center evaluation: clamping a box center into the ball
    is non-expansive, so the clamped center is within the box half-diagonal
    of every domain point of the box.
    """
    if dim == 0:
        v = float(_eval_chunked(f, np.zeros((1, 0)))[0])
        return SupEstimate(v, v, True, 1)

    signs = _corner_signs(dim) if convex and dim <= 8 else None
    C = np.zeros((1, dim))
    H = np.full((1, dim), float(radius))
    lb = -np.inf
    resolved = -np.inf
    evals = 0

    if seeds is not None and seeds.size:
        Y = _clamp_rows(np.asarray(seeds, dtype=float).reshape(-1, dim), radius)
        lb = float(_eval_chunked(f, Y).max())
        evals += Y.shape[0]

    while True:
        m = C.shape[0]
        vals = _eval_chunked(f, _clamp_rows(C, radius))
        evals += m
        lb = max(lb, float(vals.max()))

        rho = np.linalg.norm(H, axis=1)
        ub = vals + lip * rho
        if signs is not None and m * signs.shape[0] <= (1 << 18):
            corners = (C[:, None, :] + signs[None, :, :] * H[:, None, :]).reshape(-1, dim)
            cvals = _eval_chunked(f, corners).reshape(m, -1).max(axis=1)
            evals += corners.shape[0]
            np.minimum(ub, cvals, out=ub)
        if hub < np.inf:
            np.minimum(ub, hub, out=ub)

        hi_now = max(resolved, float(ub.max()), lb)
        if lb >= stop_above:
            return SupEstimate(lb, hi_now, True, evals)

        threshold = max(lb + eps, stop_below)
        active = ub > threshold
        if not active.all():
            inactive_max = float(ub[~active].max()) if (~active).any() else -np.inf
            resolved = max(resolved, inactive_max)
        if not active.any():
            return SupEstimate(lb, max(resolved, lb), True, evals)
        if evals >= budget:
            return SupEstimate(lb, hi_now, False, evals)

        C, H, ub = C[active], H[active], ub[active]
        cap = 1 << 15
        if C.shape[0] > cap:
            # split only the worst offenders this round; the rest stay active
            order = np.argsort(ub)[::-1]
            keepC, keepH = C[order[cap:]], H[order[cap:]]
            C, H = C[order[:cap]], H[order[:cap]]
        else:
            keepC = keepH = None

        rows = np.arange(C.shape[0])
        axis = H.argmax(axis=1)
        Hc = H.copy()
        Hc[rows, axis] *= 0.5
        C1 = C.copy()
        C1[rows, axis] -= Hc[rows, axis]
        C2 = C.copy()
        C2[rows, axis] += Hc[rows, axis]
        C = np.concatenate([C1, C2])
        H = np.concatenate([Hc, Hc])
        # drop children entirely outside the ball
        inner = np.clip(np.abs(C) - H, 0.0, None)
        keep = np.linalg.norm(inner, axis=1) <= radius
        C, H = C[keep], H[keep]
        if keepC is not None:
            C = np.concatenate([C, keepC])
            H = np.concatenate([H, keepH])
        if C.shape[0] == 0:
            return SupEstimate(lb, max(resolved, lb), True, evals)


# ---------------------------------------------------------------------------
# exact pieces


def _canonical_points(p: Polytope) -> np.ndarray:
    return np.unique(p.points, axis=0)


def same_representation(a: ConvexSet, b: ConvexSet) -> bool:
    """True when the two descriptions are literally the same set data."""
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        pa, pb = _canonical_points(a), _canonical_points(b)
        return pa.shape == pb.shape and np.array_equal(pa, pb)
    if isinstance(a, Subspace) and isinstance(b, Subspace):
        return np.array_equal(a.basis, b.basis)
    if isinstance(a, Flat) and isinstance(b, Flat):
        return np.array_equal(a.basis, b.basis) and np.array_equal(a.base, b.base)
    return False


def hausdorff(a: ConvexSet, b: ConvexSet, tol: ToleranceConfig | None = None) -> float:
    """Hausdorff distance between two polytopes.

    Both one-sided sups are attained at generators because the distance to
    a convex set is convex, so the value is the largest distance_evaluator
    value at the generators.  It is exact when both polytopes take the
    face-enumeration route; a larger polytope's distances come from the
    batched Wolfe solver, each certified by its Wolfe gap g to within
    sqrt(2 g) (see distance_evaluator).
    """
    if not (isinstance(a, Polytope) and isinstance(b, Polytope)):
        raise HyperconvexError("hausdorff takes polytope pairs only")
    check_same_ambient(a, b)
    d_ab = float(distance_evaluator(b)(a.points).max())
    d_ba = float(distance_evaluator(a)(b.points).max())
    return max(d_ab, d_ba)


def _flat_pair_cap(a: ConvexSet, b: ConvexSet, radius: float) -> float:
    """Sound bound for sup over the radius-ball of |d(.,a) - d(.,b)|,
    flats/subspaces only.  Exact for translates (identical direction data)."""
    fa, fb = as_flat(a), as_flat(b)
    Pa = fa.basis.T @ fa.basis
    Pb = fb.basis.T @ fb.basis
    off = float(np.linalg.norm((fb.base - fa.base) - Pa @ (fb.base - fa.base)))
    if np.array_equal(fa.basis, fb.basis):
        return off
    eta = float(np.linalg.norm(Pa - Pb, 2))
    return off + eta * (radius + float(np.linalg.norm(fb.base)))


def _radius_free_cap(a: ConvexSet, b: ConvexSet) -> float:
    """Bound valid for every radius at once (inf when none is known): the
    Hausdorff distance of a polytope pair, the offset of two translates."""
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        return hausdorff(a, b)
    if not isinstance(a, Polytope) and not isinstance(b, Polytope):
        fa, fb = as_flat(a), as_flat(b)
        if np.array_equal(fa.basis, fb.basis):
            return _flat_pair_cap(a, b, 0.0)
    return np.inf


def _gap_cap(a: ConvexSet, b: ConvexSet, radius: float, free_cap: float) -> float:
    """Bound for sup over the radius-ball of |d(.,a) - d(.,b)|, given
    free_cap = _radius_free_cap(a, b)."""
    if free_cap < np.inf or isinstance(a, Polytope) or isinstance(b, Polytope):
        return free_cap
    return _flat_pair_cap(a, b, radius)


# ---------------------------------------------------------------------------
# probe points (deterministic exploration; all lower bounds are sound
# because they come from genuine evaluations inside the domain)

_PROBE_SEED = 0x5EED
_LADDER = (1, 2, 3, 5, 8, 13, 21, 34, 55)


def _unit_directions(a: ConvexSet, b: ConvexSet, n: int, rng: np.random.Generator) -> np.ndarray:
    rows = []
    for s in (a, b):
        if isinstance(s, Polytope):
            rows.append(s.points)
        else:
            fl = as_flat(s)
            if fl.basis.size:
                rows.append(fl.basis)
                rows.append(-fl.basis)
            if fl.base.any():
                rows.append(fl.base[None, :])
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        diff = (a.points[:, None, :] - b.points[None, :, :]).reshape(-1, n)
        rows.append(diff)
    rows.append(rng.standard_normal((max(4 * n, 16), n)))
    V = np.concatenate(rows) if rows else np.zeros((0, n))
    nrm = np.linalg.norm(V, axis=1)
    V = V[nrm > 1e-12] / nrm[nrm > 1e-12, None]
    return V


def _ambient_probes(a: ConvexSet, b: ConvexSet, radius: float) -> np.ndarray:
    n = check_same_ambient(a, b)
    rng = np.random.default_rng(_PROBE_SEED)
    dirs = _unit_directions(a, b, n, rng)
    rows = [radius * dirs, -radius * dirs]
    for s in (a, b):
        if isinstance(s, Polytope):
            rows.append(s.points)
        else:
            rows.append(as_flat(s).base[None, :])
    rows.append(np.zeros((1, n)))
    ball = rng.standard_normal((96, n))
    ball /= np.linalg.norm(ball, axis=1, keepdims=True)
    ball *= radius * rng.random((96, 1)) ** (1.0 / n)
    rows.append(ball)
    return np.concatenate(rows)


def _explore_terms(
    obj: Callable[[np.ndarray], np.ndarray], a: ConvexSet, b: ConvexSet, j_cap: int
) -> float:
    """Sound lower bound for max_j min(1/j, sup over jB of obj)."""
    n = check_same_ambient(a, b)
    rng = np.random.default_rng(_PROBE_SEED)
    dirs = _unit_directions(a, b, n, rng)
    radii = [float(j) for j in _LADDER if j <= j_cap] + [float(j_cap)]
    rows = [r * dirs for r in radii] + [-r * dirs for r in radii]
    for s in (a, b):
        if isinstance(s, Polytope):
            rows.append(s.points)
    X = _clamp_rows(np.concatenate(rows), float(j_cap))
    vals = _eval_chunked(obj, X)
    nrm = np.linalg.norm(X, axis=1)
    j_of = np.clip(np.ceil(nrm - 1e-9), 1, j_cap)
    best = np.minimum(1.0 / j_of, vals)
    return float(max(best.max(), 0.0))


# ---------------------------------------------------------------------------
# one-sided sups over truncated sets


def _coord_map(src: Flat | Subspace, r: float):
    """(dim, coord radius, embed) presenting src ∩ rB as an isometric image
    of a coordinate ball."""
    if isinstance(src, Subspace):
        B = src.basis
        return B.shape[0], r, lambda C: np.atleast_2d(C) @ B
    p = flat_min_norm_point(src)
    nu = float(np.linalg.norm(p))
    rho = math.sqrt(max(r * r - nu * nu, 0.0))
    B = src.basis
    return B.shape[0], rho, lambda C: p + np.atleast_2d(C) @ B


def _subspace_pair_one_sided(src: Subspace, dst: Subspace, r: float) -> float:
    """Exact sup_{x in src∩rB} d(x, dst∩rB).

    Inside the ball the projection onto dst stays inside the ball, so the
    truncated distance equals the orthogonal residual and the sup is r
    times an operator norm.
    """
    if src.dim == 0:
        return 0.0
    n = src.ambient_dim
    N = src.basis @ (np.eye(n) - dst.basis.T @ dst.basis)
    return r * float(np.linalg.norm(N, 2))


def _one_sided_sup(
    src: ConvexSet,
    dst: ConvexSet,
    r: float,
    eps: float,
    *,
    stop_below: float,
    stop_above: float,
    budget: int,
) -> SupEstimate:
    """sup_{x in src∩rB} d(x, dst∩rB) for src a flat, subspace, or polytope
    contained in the ball (the objective is convex, so polytope sups sit at
    generators)."""
    g = truncated_distance_evaluator(dst, r)
    if isinstance(src, Polytope):
        pts = _canonical_points(src)
        v = float(g(pts).max())
        return SupEstimate(v, v, True, pts.shape[0])
    dim, rho, embed = _coord_map(src, r)
    n = src.ambient_dim
    g0 = float(g(np.zeros((1, n)))[0])
    hub = r + g0

    def f(C: np.ndarray) -> np.ndarray:
        return g(embed(C))

    rng = np.random.default_rng(_PROBE_SEED)
    if dim:
        extra = rng.standard_normal((2 * dim + 16, dim))
        extra *= rho / np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-12)
        seeds = np.concatenate([np.zeros((1, dim)), rho * np.eye(dim), -rho * np.eye(dim), extra])
    else:
        seeds = None
    return ball_sup(
        f, dim, rho, lip=1.0, eps=eps, hub=hub,
        stop_below=stop_below, stop_above=stop_above,
        convex=True, budget=budget, seeds=seeds,
    )


def _ambient_sup_estimate(
    a: ConvexSet,
    b: ConvexSet,
    fa: Callable[[np.ndarray], np.ndarray],
    fb: Callable[[np.ndarray], np.ndarray],
    r: float,
    eps: float,
    *,
    stop_below: float,
    stop_above: float,
    budget: int,
    hub: float,
) -> SupEstimate:
    """sup over the r-ball of |fa - fb|, with fa and fb the distance
    evaluators of a and b."""
    n = check_same_ambient(a, b)

    def obj(X: np.ndarray) -> np.ndarray:
        return np.abs(fa(X) - fb(X))

    return ball_sup(
        obj, n, r, lip=2.0, eps=eps, hub=hub,
        stop_below=stop_below, stop_above=stop_above,
        convex=False, budget=budget, seeds=_ambient_probes(a, b, r),
    )


def _th_estimate(
    a: ConvexSet,
    b: ConvexSet,
    r: float,
    eps: float,
    cfg: ToleranceConfig,
    free_cap: float,
    *,
    stop_below: float = -np.inf,
    stop_above: float = np.inf,
    budget: int = 1_500_000,
) -> SupEstimate:
    """Hausdorff distance between a∩rB and b∩rB, both sets containing the
    origin (callers check), given free_cap = _radius_free_cap(a, b).
    Dispatches to the cheapest sound route."""
    if same_representation(a, b):
        return SupEstimate(0.0, 0.0, True, 0)
    if isinstance(a, Subspace) and isinstance(b, Subspace):
        v = max(_subspace_pair_one_sided(a, b, r), _subspace_pair_one_sided(b, a, r))
        return SupEstimate(v, v, True, 0)

    def cut(s: ConvexSet) -> bool:
        return isinstance(s, Polytope) and float(
            np.linalg.norm(_canonical_points(s), axis=1).max()
        ) > r

    if isinstance(a, Polytope) and isinstance(b, Polytope) and not cut(a) and not cut(b):
        v = free_cap  # the Hausdorff distance of the pair
        return SupEstimate(v, v, True, a.points.shape[0] + b.points.shape[0])
    if cut(a) or cut(b):
        # ball cuts a hull: fall back on the ambient identity, which equals
        # the truncated Hausdorff distance for origin-containing sets
        hub = min(_gap_cap(a, b, r, free_cap), r + cfg.tau_geom)
        return _ambient_sup_estimate(
            a, b, distance_evaluator(a), distance_evaluator(b), r, eps,
            stop_below=stop_below, stop_above=stop_above, budget=budget, hub=hub,
        )
    e1 = _one_sided_sup(
        a, b, r, eps, stop_below=stop_below, stop_above=stop_above, budget=budget // 2
    )
    if e1.lo >= stop_above:
        return SupEstimate(e1.lo, max(e1.hi, 2 * r), e1.certified, e1.evals)
    e2 = _one_sided_sup(
        b, a, r, eps,
        stop_below=max(stop_below, e1.lo),
        stop_above=stop_above,
        budget=max(budget - e1.evals, budget // 2),
    )
    return SupEstimate(
        max(e1.lo, e2.lo), max(e1.hi, e2.hi), e1.certified and e2.certified, e1.evals + e2.evals
    )


def truncated_hausdorff(
    a: ConvexSet,
    b: ConvexSet,
    radius: float,
    eps: float = 1e-3,
    tol: ToleranceConfig | None = None,
    budget: int = 1_500_000,
) -> Interval:
    """Certified interval for the Hausdorff distance between a ∩ rB and
    b ∩ rB.  Requires both sets to contain the origin (up to tau_geom),
    which makes the exact dispatch routes valid."""
    cfg = resolve(tol)
    check_same_ambient(a, b)
    if not radius > 0:
        raise HyperconvexError("radius must be positive")
    for s in (a, b):
        if not contains(s, np.zeros(s.ambient_dim), cfg.tau_geom):
            raise HyperconvexError("truncated_hausdorff requires origin-containing sets")
    if same_representation(a, b):
        return Interval(0.0, 0.0)
    est = _th_estimate(a, b, radius, eps, cfg, _radius_free_cap(a, b), budget=budget)
    return Interval(est.lo, min(est.hi, max(est.lo, 2 * radius)), est.certified)


# ---------------------------------------------------------------------------
# sup of the distance-function gap over a ball


def sup_distance_gap(
    a: ConvexSet,
    b: ConvexSet,
    radius: float,
    eps: float = 1e-3,
    tol: ToleranceConfig | None = None,
    budget: int = 3_000_000,
) -> Interval:
    """Certified interval for sup over the radius-ball of |d(.,a) - d(.,b)|.

    Subspace pairs ride the truncated-Hausdorff identity (origin sets), all
    other pairs are estimated directly on the ambient grid.
    """
    cfg = resolve(tol)
    check_same_ambient(a, b)
    if not radius > 0:
        raise HyperconvexError("radius must be positive")
    if not eps > 0:
        raise HyperconvexError("eps must be positive")
    if same_representation(a, b):
        return Interval(0.0, 0.0)
    free_cap = _radius_free_cap(a, b)
    if isinstance(a, Subspace) and isinstance(b, Subspace):
        est = _th_estimate(a, b, radius, eps, cfg, free_cap, budget=budget)
        return Interval(est.lo, est.hi, est.certified)
    est = _ambient_sup_estimate(
        a, b, distance_evaluator(a), distance_evaluator(b), radius, eps,
        stop_below=-np.inf, stop_above=np.inf, budget=budget,
        hub=_gap_cap(a, b, radius, free_cap),
    )
    return Interval(est.lo, est.hi, est.certified)


# ---------------------------------------------------------------------------
# localized-convergence metric (scan of ball-indexed terms)


def _j_sweep(
    term: Callable[[int, float, float], SupEstimate],
    caps: Callable[[float], float],
    h_const: float,
    params: AWParams,
    run_lo0: float,
) -> Interval:
    """Certified max over j of min(1/j, s_j), s_j estimated by term(j, ...).

    caps(j) bounds s_j alone, h_const bounds every s_j at once.  run_lo0 is
    a sound exploration lower bound used to dominate plateau terms early.
    """
    eps = params.eps_sup
    run_lo = run_lo0
    run_hi = run_lo0
    certified = True
    j = 1
    while j <= params.j_cap:
        inv_j = 1.0 / j
        tail_all = min(inv_j, h_const)
        if tail_all <= run_lo + eps:
            return Interval(run_lo, max(run_hi, tail_all), certified)
        cap_j = min(inv_j, caps(float(j)))
        if cap_j <= run_lo + eps:
            run_hi = max(run_hi, cap_j)
            j += 1
            continue
        est = term(j, run_lo, inv_j)
        if est.lo >= inv_j:
            run_lo = max(run_lo, inv_j)
            run_hi = max(run_hi, inv_j)
        else:
            run_lo = max(run_lo, min(inv_j, est.lo))
            run_hi = max(run_hi, min(inv_j, est.hi, cap_j))
            if not est.certified:
                certified = False
        j += 1
    tail = min(1.0 / (params.j_cap + 1), h_const)
    return Interval(run_lo, max(run_hi, tail), certified)


def attouch_wets(
    a: ConvexSet,
    b: ConvexSet,
    params: AWParams | None = None,
    tol: ToleranceConfig | None = None,
) -> Interval:
    """Certified interval for the localized-convergence distance

        sup over j >= 1 of min(1/j, sup over the j-ball of |d(.,a) - d(.,b)|),

    estimated on the ambient grid without assuming anything about where the
    sets sit.  Width is at most eps_sup, plus 1/(j_cap+1) when the scan is
    truncated by j_cap.
    """
    p = params or AWParams()
    check_same_ambient(a, b)
    if same_representation(a, b):
        return Interval(0.0, 0.0)
    fa = distance_evaluator(a)
    fb = distance_evaluator(b)

    def obj(X: np.ndarray) -> np.ndarray:
        return np.abs(fa(X) - fb(X))

    run_lo0 = _explore_terms(obj, a, b, p.j_cap)
    h_const = _radius_free_cap(a, b)

    def term(j: int, stop_below: float, stop_above: float) -> SupEstimate:
        return _ambient_sup_estimate(
            a, b, fa, fb, float(j), p.eps_sup,
            stop_below=stop_below, stop_above=stop_above,
            budget=p.budget, hub=_gap_cap(a, b, float(j), h_const),
        )

    return _j_sweep(term, lambda r: _gap_cap(a, b, r, h_const), h_const, p, run_lo0)


def _origin_samples(s: ConvexSet, r: float, rng: np.random.Generator) -> np.ndarray:
    """A few points of s ∩ rB (valid for origin-containing s: scaling a
    generator toward the origin stays inside the hull)."""
    n = s.ambient_dim
    if isinstance(s, Polytope):
        P = _canonical_points(s)
        nrm = np.linalg.norm(P, axis=1)
        scale = np.minimum(1.0, r / np.maximum(nrm, 1e-300))
        return P * scale[:, None]
    fl = as_flat(s)
    p = flat_min_norm_point(fl)
    nu = float(np.linalg.norm(p))
    if nu > r:
        return np.zeros((0, n))
    k = fl.dim
    if k == 0:
        return p[None, :]
    rho = math.sqrt(max(r * r - nu * nu, 0.0))
    extra = rng.standard_normal((2 * k + 8, k))
    extra *= rho / np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-12)
    C = np.concatenate([rho * np.eye(k), -rho * np.eye(k), extra])
    return p + C @ fl.basis


def _explore_origin(a: ConvexSet, b: ConvexSet, j_cap: int) -> float:
    rng = np.random.default_rng(_PROBE_SEED)
    best = 0.0
    js = [j for j in _LADDER if j <= j_cap] + [j_cap]
    for j in js:
        r = float(j)
        for src, dst in ((a, b), (b, a)):
            pts = _origin_samples(src, r, rng)
            if pts.shape[0] == 0:
                continue
            v = float(truncated_distance_evaluator(dst, r)(pts).max())
            best = max(best, min(1.0 / j, v))
    return best


def aw_origin(
    a: ConvexSet,
    b: ConvexSet,
    params: AWParams | None = None,
    tol: ToleranceConfig | None = None,
) -> Interval:
    """Certified interval for the localized-convergence distance between two
    origin-containing sets, evaluated through ball truncations:

        sup over j >= 1 of min(1/j, hausdorff(a ∩ jB, b ∩ jB)).

    For origin-containing sets this equals the ambient-grid value computed
    by attouch_wets; the two implementations share no estimation route for
    subspace and contained-polytope pairs, which makes their agreement a
    meaningful cross-check.
    """
    cfg = resolve(tol)
    p = params or AWParams()
    check_same_ambient(a, b)
    for s in (a, b):
        if not contains(s, np.zeros(s.ambient_dim), cfg.tau_geom):
            raise HyperconvexError("aw_origin requires both sets to contain the origin")
    if same_representation(a, b):
        return Interval(0.0, 0.0)

    run_lo0 = _explore_origin(a, b, p.j_cap)
    h_const = _radius_free_cap(a, b)

    def term(j: int, stop_below: float, stop_above: float) -> SupEstimate:
        return _th_estimate(
            a, b, float(j), p.eps_sup, cfg, h_const,
            stop_below=stop_below, stop_above=stop_above, budget=p.budget,
        )

    return _j_sweep(term, lambda r: _gap_cap(a, b, r, h_const), h_const, p, run_lo0)
