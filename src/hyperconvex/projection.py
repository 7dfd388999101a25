"""Metric projections and distances onto the representable convex sets.

Flats and subspaces project by orthogonal linear algebra.  Polytopes project
via the minimum-norm point of the shifted generator set, computed with a
Wolfe-style active-set scheme whose duality gap doubles as the certificate:
the variational-inequality residual of the returned point is bounded by the
final gap.

Batched polytope distances (distance_evaluator) take one of two routes,
chosen by the number of generator subsets that face enumeration examines
(_face_pieces): up to _ENUM_MAX_PIECES they enumerate every candidate face,
which is exact per point; above it they run the same Wolfe scheme on a block
of rows in lockstep (_min_norm_rows), certified by each row's Wolfe gap.  The
switch sits at 25 pieces, where the measured evaluator traffic of the tests,
demos and benchmark rounds costs least (see _ENUM_MAX_PIECES).
Single points (metric_projection, Dykstra) stay on the scalar min_norm_point.

Ball-truncated sets (set intersected with a centered closed ball) are needed
by the hyperspace metrics; flats and subspaces admit exact closed forms for
those, polytopes fall back to Dykstra's alternating projections, which
converge to the metric projection onto the intersection.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import (
    ConvergenceError,
    EmptyIntersectionError,
    HyperconvexError,
)
from .sets import ConvexSet, Flat, Polytope, Subspace, check_same_ambient

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# minimum-norm point (Wolfe active set)


def _affine_minimizer(Q: np.ndarray) -> np.ndarray:
    """Coefficients alpha (sum 1, sign-free) minimizing ||alpha @ Q||."""
    s = Q.shape[0]
    if s == 1:
        return np.ones(1)
    bordered = np.zeros((s + 1, s + 1))
    bordered[0, 1:] = 1.0
    bordered[1:, 0] = 1.0
    bordered[1:, 1:] = Q @ Q.T
    rhs = np.zeros(s + 1)
    rhs[0] = 1.0
    sol, *_ = np.linalg.lstsq(bordered, rhs, rcond=None)
    return sol[1:]


def min_norm_point(points: np.ndarray, gap_tol: float, max_iter: int):
    """Minimum-norm point of conv(rows of points).

    Returns (w, gap) where gap = <w,w> - min_i <p_i, w> is the Wolfe duality
    gap at exit; every generator a then satisfies <-w, a - w> >= -gap, so gap
    bounds the variational-inequality residual of w.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    scale2 = max(1.0, float(sq.max()))
    # below ~64 eps * scale2 the gap is numerically indistinguishable from 0
    tol = max(gap_tol, 64.0 * _EPS * scale2)

    active = [int(np.argmin(sq))]
    lam = np.ones(1)
    w = points[active[0]].copy()

    for _ in range(max_iter):
        dots = points @ w
        gap = float(w @ w - dots.min())
        if gap <= tol:
            return w, max(gap, 0.0)
        j = int(np.argmin(dots))
        if j in active:
            # no generator improves; stall is at rounding level or a bug
            if gap <= 1e5 * 64.0 * _EPS * scale2:
                return w, max(gap, 0.0)
            raise ConvergenceError(
                "minimum-norm point stalled above tolerance", best=w, residual=gap
            )
        active.append(j)
        lam = np.append(lam, 0.0)
        # minor cycles: shrink back to a corral (all-positive affine minimizer)
        for _ in range(m + 2):
            Q = points[active]
            alpha = _affine_minimizer(Q)
            if np.all(alpha > -1e-13):
                lam = np.clip(alpha, 0.0, None)
                lam /= lam.sum()
                w = lam @ Q
                break
            neg = alpha < -1e-13
            t = lam[neg] / (lam[neg] - alpha[neg])
            theta = min(float(t.min()), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            lam = np.clip(lam, 0.0, None)
            drop = lam <= 1e-13
            if not drop.any():
                drop = lam == lam.min()
            keep = ~drop
            if not keep.any():
                keep[int(np.argmax(lam))] = True
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam /= lam.sum()
        else:
            raise ConvergenceError(
                "minor cycle failed to restore a corral",
                best=w,
                residual=float(w @ w - (points @ w).min()),
            )
    dots = points @ w
    raise ConvergenceError(
        "minimum-norm point iteration cap exceeded",
        best=w,
        residual=float(w @ w - dots.min()),
    )


# Rows solved together by _min_norm_rows: its arrays hold about
# _WOLFE_ROWS * m * n floats, however many rows the caller passes.
_WOLFE_ROWS = 1024
# Affine coefficients above this come from a nearly singular bordered
# system; such rows are solved again by pseudo-inverse, with lstsq's cutoff.
# LU stays the first solve: pinv on every row made the polytope-batch
# benchmark 1.5x slower (330 against 495 ops/s, two runs each, 2-vCPU Xeon
# VM).  On random, flat and integer-lattice polytopes no system exceeds 1e3.
# On polytopes 1e-9 thick in R^4 (16 seeds of 17 points, 60 rows each), the
# batched route failed 3 blocks at 1e3, each where the scalar min_norm_point
# failed on some row too, and 6 blocks at 1e8.
_ALPHA_MAX = 1e3


def _solve_e0(A: np.ndarray) -> np.ndarray:
    """x_i with A[i] x_i = e_0 for every matrix of the stack A (rows, s, s).

    e_0 goes in as one column per matrix: numpy before 2.0 reads a 1-D
    right-hand side as a matrix whenever A is a stack.
    """
    B = np.zeros(A.shape[:-1] + (1,))
    B[:, 0] = 1.0
    return np.linalg.solve(A, B)[..., 0]


def _slot_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the slot axis 1, one slot after another.

    Zero padding slots then leave a row's sum bit for bit as it is; a plain
    sum would switch to pairwise grouping once the padded width reaches 8.
    """
    return a.cumsum(axis=1)[:, -1]


def _affine_minimizer_rows(Qs: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """_affine_minimizer for a stack of generator sets.

    Row i of Qs (rows, k, n) holds its set in its first cnt[i] slots; the
    coefficients of the other slots are 0.  Rows are solved in groups of
    equal count, so a row's result does not depend on the other rows.
    """
    alpha = np.zeros(Qs.shape[:2])
    for c in np.unique(cnt):
        rows = np.flatnonzero(cnt == c)
        if c == 1:
            alpha[rows, 0] = 1.0
            continue
        S = Qs[rows, :c]
        A = np.ones((rows.size, c + 1, c + 1))
        A[:, 0, 0] = 0.0
        A[:, 1:, 1:] = S @ S.transpose(0, 2, 1)
        try:
            sol = _solve_e0(A)
        except np.linalg.LinAlgError:
            # some system is exactly singular: solve the others by LU
            sol = np.full((rows.size, c + 1), np.nan)
            regular = np.linalg.slogdet(A)[0] != 0
            if regular.any():
                sol[regular] = _solve_e0(A[regular])
        bad = ~(np.abs(sol[:, 1:]) <= _ALPHA_MAX).all(axis=1)
        if bad.any():
            sol[bad] = np.linalg.pinv(A[bad], rcond=_EPS * (c + 1))[:, :, 0]
        alpha[rows, :c] = sol[:, 1:]
    return alpha


def _min_norm_rows(pts: np.ndarray, X: np.ndarray, gap_tol: float, max_iter: int):
    """min_norm_point(pts - x, gap_tol, max_iter) for every row x of X.

    The rows run in lockstep, _WOLFE_ROWS at a time, each with its own
    active slots and weights; a row leaves the block once its Wolfe gap
    meets its tolerance.  Returns (W, gaps).  ConvergenceError names the
    worst row of the block that failed.
    """
    X = np.asarray(X, dtype=float)
    W = np.empty(X.shape)
    gaps = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _WOLFE_ROWS):
        block = slice(start, start + _WOLFE_ROWS)
        W[block], gaps[block] = _wolfe_block(pts, X[block], gap_tol, max_iter)
    return W, gaps


def _block_error(message: str, Q: np.ndarray, W: np.ndarray, rows: np.ndarray):
    """ConvergenceError for the rows of a block with the largest Wolfe gap."""
    gap = (W[rows] * W[rows]).sum(axis=1) - (Q[rows] @ W[rows, :, None])[:, :, 0].min(axis=1)
    worst = int(np.argmax(gap))
    return ConvergenceError(message, best=W[rows[worst]], residual=float(gap[worst]))


def _wolfe_block(pts: np.ndarray, X: np.ndarray, gap_tol: float, max_iter: int):
    """_min_norm_rows on one block of rows."""
    m, n = pts.shape
    Q = pts[None, :, :] - X[:, None, :]  # (rows, m, n): generators shifted per row
    sq = np.einsum("bij,bij->bi", Q, Q)
    scale2 = np.maximum(1.0, sq.max(axis=1))
    tol = np.maximum(gap_tol, 64.0 * _EPS * scale2)
    stall_tol = 1e5 * 64.0 * _EPS * scale2

    b = X.shape[0]
    W_out = np.empty((b, n))
    gap_out = np.empty(b)
    ids = np.arange(b)  # block row of each live row
    first = sq.argmin(axis=1)
    idx = np.zeros((b, m), dtype=np.intp)  # active generators, in the front slots
    idx[:, 0] = first
    lam = np.zeros(idx.shape)
    lam[:, 0] = 1.0
    cnt = np.ones(b, dtype=np.intp)
    W = Q[ids, first]

    for _ in range(max_iter):
        dots = (Q @ W[:, :, None])[:, :, 0]
        gap = (W * W).sum(axis=1) - dots.min(axis=1)
        j = dots.argmin(axis=1)
        active = np.arange(m) < cnt[:, None]
        done = gap <= tol
        # no generator improves: a stall at rounding level, or a failure
        stalled = ~done & ((idx == j[:, None]) & active).any(axis=1)
        if (stalled & (gap > stall_tol)).any():
            raise _block_error(
                "minimum-norm point stalled above tolerance", Q, W,
                np.flatnonzero(stalled & (gap > stall_tol)),
            )
        done |= stalled
        if done.any():
            W_out[ids[done]] = W[done]
            gap_out[ids[done]] = np.maximum(gap[done], 0.0)
            live = ~done
            if not live.any():
                return W_out, gap_out
            ids, Q, W, idx, lam, cnt, j, tol, stall_tol = (
                v[live] for v in (ids, Q, W, idx, lam, cnt, j, tol, stall_tol)
            )
        rows = np.arange(ids.size)
        idx[rows, cnt] = j
        lam[rows, cnt] = 0.0
        cnt += 1

        # minor cycles: shrink back to a corral (all-positive affine minimizer)
        pend = rows
        for _ in range(m + 2):
            k = int(cnt[pend].max())
            sub = idx[pend, :k]
            valid = np.arange(k) < cnt[pend, None]
            Qs = Q[pend[:, None], sub]
            alpha = _affine_minimizer_rows(Qs, cnt[pend])
            corral = ((alpha > -1e-13) | ~valid).all(axis=1)
            if corral.any():
                c = np.clip(alpha[corral], 0.0, None)
                c /= _slot_sum(c)[:, None]
                lam[pend[corral], :k] = c
                W[pend[corral]] = _slot_sum(c[:, :, None] * Qs[corral])
            pend, sub, valid, alpha = pend[~corral], sub[~corral], valid[~corral], alpha[~corral]
            if pend.size == 0:
                break
            lm = lam[pend, :k]
            neg = valid & (alpha < -1e-13)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(neg, lm / (lm - alpha), np.inf)
            theta = np.minimum(t.min(axis=1), 1.0)[:, None]
            lm = np.clip((1.0 - theta) * lm + theta * alpha, 0.0, None)
            drop = valid & (lm <= 1e-13)
            none = ~drop.any(axis=1)
            if none.any():
                lmin = np.where(valid, lm, np.inf).min(axis=1, keepdims=True)
                drop[none] = (valid & (lm == lmin))[none]
            keep = valid & ~drop
            empty = np.flatnonzero(~keep.any(axis=1))
            keep[empty, lm[empty].argmax(axis=1)] = True
            # move the kept slots to the front, in order
            order = np.argsort(~keep, axis=1, kind="stable")
            lm = np.take_along_axis(np.where(keep, lm, 0.0), order, axis=1)
            idx[pend, :k] = np.take_along_axis(sub, order, axis=1)
            lam[pend, :k] = lm / _slot_sum(lm)[:, None]
            cnt[pend] = keep.sum(axis=1)
        else:
            raise _block_error("minor cycle failed to restore a corral", Q, W, pend)
    raise _block_error("minimum-norm point iteration cap exceeded", Q, W, np.arange(ids.size))


# ---------------------------------------------------------------------------
# projections


def _project_flat(base: np.ndarray, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    return base + (basis @ (x - base)) @ basis


def metric_projection(s: ConvexSet, x, tol: ToleranceConfig | None = None):
    """Nearest point of the set to x and the distance.

    Returns (point, dist).  For flats and subspaces the residual is exactly
    orthogonal to the direction span; for polytopes the Wolfe gap at exit
    bounds the variational-inequality residual.
    """
    cfg = resolve(tol)
    x = np.asarray(x, dtype=float)
    check_same_ambient(s, x)
    if isinstance(s, Polytope):
        pts = np.unique(s.points, axis=0)
        cap = max(10 * pts.shape[0] * s.ambient_dim, 50)
        w, _ = min_norm_point(pts - x, gap_tol=cfg.tau_geom**2, max_iter=cap)
        return x + w, float(np.linalg.norm(w))
    if isinstance(s, Flat):
        point = _project_flat(s.base, s.basis, x)
        return point, float(np.linalg.norm(x - point))
    point = (s.basis @ x) @ s.basis
    return point, float(np.linalg.norm(x - point))


def nearest_point(s: ConvexSet, tol: ToleranceConfig | None = None):
    """(p, nu): the point of the set closest to the origin and its norm."""
    p, nu = metric_projection(s, np.zeros(s.ambient_dim), tol)
    return p, nu


def project_hyperplane(a, x) -> np.ndarray:
    """Project x onto the hyperplane through a orthogonal to a."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    check_same_ambient(a, x)
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        raise HyperconvexError("zero vector defines no hyperplane")
    return x + a - (float(x @ a) / nrm2) * a


def contains(s: ConvexSet, x, tol: float) -> bool:
    """True iff d(x, set) <= tol."""
    _, dist = metric_projection(s, x)
    return dist <= tol


# ---------------------------------------------------------------------------
# ball-truncated distances


def _clamp_rows(y: np.ndarray, radius: float) -> np.ndarray:
    nrm = np.linalg.norm(y, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(nrm > radius, radius / np.where(nrm > 0, nrm, 1.0), 1.0)
    return y * scale


def flat_min_norm_point(f: Flat) -> np.ndarray:
    """Closed-form nearest point of a flat to the origin."""
    return f.base - (f.basis @ f.base) @ f.basis


def _dykstra_polytope_ball(pts, x, radius, move_tol, max_iter=20000):
    """Projection of x onto conv(pts) ∩ radius-ball via Dykstra."""
    b = x.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    gap_tol = move_tol**2
    cap = max(10 * pts.shape[0] * pts.shape[1], 50)
    for _ in range(max_iter):
        z = b + p
        w, _ = min_norm_point(pts - z, gap_tol=gap_tol, max_iter=cap)
        a = z + w
        p = z - a
        z = a + q
        b_next = _clamp_rows(z, radius)
        q = z - b_next
        if np.linalg.norm(b_next - b) < move_tol and np.linalg.norm(a - b_next) < move_tol:
            return b_next
        b = b_next
    raise ConvergenceError(
        "alternating projections did not converge", best=b, residual=float(np.linalg.norm(a - b))
    )


def truncated_distance(s: ConvexSet, x, L: float, tol: ToleranceConfig | None = None) -> float:
    """d(x, set ∩ closed ball of radius L around the origin)."""
    cfg = resolve(tol)
    x = np.asarray(x, dtype=float)
    check_same_ambient(s, x)
    if not L > 0:
        raise HyperconvexError("truncation radius must be positive")
    if isinstance(s, Subspace):
        point = _clamp_rows((s.basis @ x) @ s.basis, L)
        return float(np.linalg.norm(x - point))
    if isinstance(s, Flat):
        p = flat_min_norm_point(s)
        nu = float(np.linalg.norm(p))
        if nu > L + cfg.tau_geom:
            raise EmptyIntersectionError(
                f"flat misses the ball: d(0, flat) = {nu:.6g} > {L:.6g}"
            )
        rho = float(np.sqrt(max(L * L - nu * nu, 0.0)))
        v = (s.basis @ (x - p)) @ s.basis
        point = p + _clamp_rows(v, rho)
        return float(np.linalg.norm(x - point))
    # polytope
    pts = np.unique(s.points, axis=0)
    if float(np.linalg.norm(pts, axis=1).max()) <= L:
        # ball does not cut the hull
        _, dist = metric_projection(s, x, cfg)
        return dist
    _, nu = nearest_point(s, cfg)
    if nu > L + cfg.tau_geom:
        raise EmptyIntersectionError(
            f"polytope misses the ball: d(0, hull) = {nu:.6g} > {L:.6g}"
        )
    point = _dykstra_polytope_ball(pts, x, L, move_tol=max(cfg.tau_geom, 1e-12))
    return float(np.linalg.norm(x - point))


# ---------------------------------------------------------------------------
# vectorized distance evaluators (used by the certified sup estimators)


# Face pieces above which distance_evaluator runs _min_norm_rows instead of
# enumerating faces.  Enumeration builds its faces once per evaluator, about
# 55 us a piece (0.6 ms at n3m4, 2.8 ms at n3m6), and then pays per row;
# the batched solver pays per row and per Wolfe iteration.  Per-row cost at
# 1k, 4k and 16k rows on one Xeon core, OpenBLAS on one thread, enumerated
# vs batched in us (repeat runs on a shared VM moved these by up to 25%):
#   n3m4 (11 pieces)  1.1-1.4 vs 1.9-2.4    n2m5 (20)  1.8-1.9 vs 1.9-2.5
#   n3m5 (25)         2.2-2.5 vs 2.3-2.6    n2m6 (35)  2.7-3.1 vs 2.7-3.3
#   n3m6 (50)         5.3-6.9 vs 4.8-6.0    n2m7 (56)  4.4-5.7 vs 2.5-3.1
#   n4m8 (210)       20-24    vs 4.2-4.8    n6m12 (3289) 388-482 vs 7.4-11
# Calls of 1-64 rows (hausdorff, single evaluations) are ruled by the face
# build and favour the batched solver at 20 pieces and more.  Of the evaluator
# calls that meet 12-50 pieces in the test suite, the demos and four rounds
# each of aw-sweep and polytope-batch, ball_sup batches of 5k-55k rows on
# n2m5 carry 99% of the rows; the rest are calls of 1-64 rows on n2m6,
# n3m5, n3m6 and n4m5-n6m5.  Replayed on both routes, that traffic cost
# 6-13% less with the switch at 20-25 pieces than at 40 (three replays),
# and the benchmark rounds' share cost the same for any switch from 11 to 40.
_ENUM_MAX_PIECES = 25


def _face_pieces(m: int, n: int) -> int:
    """Number of generator subsets _polytope_pieces examines."""
    return sum(math.comb(m, s) for s in range(2, min(m, n + 1) + 1))


def _polytope_pieces(pts: np.ndarray):
    """Affine pieces (p0, D, M) of every low-dimensional face candidate.

    d(x, hull) equals the minimum over affinely independent generator
    subsets S of ||x - proj_aff(S)(x)|| restricted to projections whose
    barycentric coordinates are all nonnegative: the minimal face containing
    the true projection contributes exactly d(x, hull), every other feasible
    subset yields a point inside the hull and so cannot undercut it.
    """
    m, n = pts.shape
    pieces = []
    for size in range(2, min(m, n + 1) + 1):
        for idx in itertools.combinations(range(m), size):
            p0 = pts[idx[0]]
            D = (pts[list(idx[1:])] - p0).T  # (n, size-1)
            sv = np.linalg.svd(D, compute_uv=False)
            if sv[-1] <= 1e-12 * max(float(sv[0]), 1.0):
                continue
            pieces.append((p0, D, np.linalg.pinv(D)))
    return pieces


def distance_evaluator(s: ConvexSet) -> Callable[[np.ndarray], np.ndarray]:
    """Batch map X (rows) -> d(x_i, set).

    Flats, subspaces and polytopes with at most _ENUM_MAX_PIECES face pieces
    are exact per point: the polytope branch enumerates candidate faces,
    independently of the Wolfe solver.  Larger polytopes run _min_norm_rows:
    a row's Wolfe gap g at exit certifies its distance to within sqrt(2 g),
    and g is at most 64 eps max(1, max_i |p_i - x|^2) unless the solver
    stalls at rounding level.  Property tests compare both routes with
    metric_projection.
    """
    if isinstance(s, Subspace):
        P = s.basis.T @ s.basis

        def f_sub(X: np.ndarray) -> np.ndarray:
            X = np.atleast_2d(X)
            return np.linalg.norm(X - X @ P, axis=1)

        return f_sub
    if isinstance(s, Flat):
        P = s.basis.T @ s.basis
        base = s.base

        def f_flat(X: np.ndarray) -> np.ndarray:
            Xc = np.atleast_2d(X) - base
            return np.linalg.norm(Xc - Xc @ P, axis=1)

        return f_flat
    pts = np.unique(s.points, axis=0)
    if pts.shape[0] == 1:
        p0 = pts[0]

        def f_point(X: np.ndarray) -> np.ndarray:
            return np.linalg.norm(np.atleast_2d(X) - p0, axis=1)

        return f_point
    if _face_pieces(*pts.shape) > _ENUM_MAX_PIECES:
        cap = max(10 * pts.shape[0] * pts.shape[1], 50)

        def f_wolfe(X: np.ndarray) -> np.ndarray:
            W, _ = _min_norm_rows(pts, np.atleast_2d(X), gap_tol=1e-18, max_iter=cap)
            return np.linalg.norm(W, axis=1)

        return f_wolfe
    pieces = _polytope_pieces(pts)

    def f_poly(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        best = np.linalg.norm(X[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
        for p0, D, M in pieces:
            U = (X - p0) @ M.T
            lam0 = 1.0 - U.sum(axis=1)
            feas = (U >= -1e-12).all(axis=1) & (lam0 >= -1e-12)
            if feas.any():
                d = np.linalg.norm(X - (p0 + U @ D.T), axis=1)
                np.minimum(best, np.where(feas, d, np.inf), out=best)
        return best

    return f_poly


def truncated_distance_evaluator(s: ConvexSet, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batch map X -> d(x_i, set ∩ radius-ball); exact closed forms where
    available, row-wise Dykstra for ball-cut polytopes."""
    if isinstance(s, Subspace):
        P = s.basis.T @ s.basis

        def f_sub(X: np.ndarray) -> np.ndarray:
            X = np.atleast_2d(X)
            return np.linalg.norm(X - _clamp_rows(X @ P, radius), axis=1)

        return f_sub
    if isinstance(s, Flat):
        p = flat_min_norm_point(s)
        nu = float(np.linalg.norm(p))
        if nu > radius:
            raise EmptyIntersectionError("flat misses the ball")
        rho = float(np.sqrt(max(radius * radius - nu * nu, 0.0)))
        P = s.basis.T @ s.basis

        def f_flat(X: np.ndarray) -> np.ndarray:
            X = np.atleast_2d(X)
            V = (X - p) @ P
            return np.linalg.norm(X - (p + _clamp_rows(V, rho)), axis=1)

        return f_flat
    pts = np.unique(s.points, axis=0)
    if float(np.linalg.norm(pts, axis=1).max()) <= radius:
        return distance_evaluator(s)

    def f_cut(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            out[i] = truncated_distance(s, row, radius)
        return out

    return f_cut
