"""Metric projections and distances onto the representable convex sets.

Flats and subspaces project by orthogonal linear algebra, through the same
closed forms: a subspace is the flat through the origin (a Flat whose base
is the origin), so each routine has one branch for polytopes and one for
the rest.  Polytopes project via the minimum-norm point of the shifted
generator set, computed with a Wolfe-style active-set scheme whose duality
gap doubles as the certificate: the variational-inequality residual of the
returned point is bounded by the final gap.

Batched distances come from one residual map per set kind (_residual_rows),
X -> X - P(X) with P the metric projection, which each set builds on first
use and keeps (its _residuals); distance_evaluator returns its row norms,
and the certified ball sups read the residual directions too.
Flats and subspaces take the closed form.  Polytopes take one of two
routes, chosen by the number of generator subsets that face enumeration
examines (_face_pieces), and both work through _BLOCK_ROWS rows at a time.
Up to _ENUM_MAX_PIECES pieces they enumerate every candidate face, exact
per point: one stacked SVD packs the affine maps of all pieces side by
side (_polytope_pieces), so a block costs one matrix product, one min over
the slots and one einsum over all pieces.  Above it they run the same Wolfe
scheme on the rows of a block in lockstep
(_min_norm_rows), certified by each row's Wolfe gap; a max query (hausdorff)
gives it a floor, below which rows stop early.  A lockstep pass costs about
0.1 ms at one row and 0.2-0.4 ms at 64, mostly numpy's per-call overhead,
so a pass issues as few numpy calls as it can, and a block runs as many
passes as its slowest row needs.  So each batched row starts where
min_norm_point's first pass would take it at best: at its nearest
generator, or at the nearest point of a segment from it where that is
nearer (_wolfe_seed, one O(rows m n) step).  Single points stay on the
scalar min_norm_point, which pays numpy's per-call overhead too; it keeps
the nearest-generator start, as the seed's numpy calls (about 20 us) cost
a third to a half of a whole call there (34-62 us for 6 to 24 generators
in R^3 to R^8).  Both
solvers share one stopping rule (_limits) and one corral solve
(_corral_solve: each system divided by its largest entry, LU, and the
pseudo-inverse as the fallback), which the scalar solver calls with a stack
of one system and the batched one once per group of equal corral size.
Both solvers' arithmetic is pinned bit for bit, by
tests/test_wolfe_reference.py and tests/test_wolfe_block_reference.py.
All routes read Polytope.unique_points.
Non-finite points, rows of the public batch maps and contains tolerances
raise HyperconvexError, points that are not vectors of the set's dimension
(sets._point) and batch rows that are not a 2-D array as wide as the set's
space DimensionMismatchError; ball_sup reads the sets' residual maps,
which do not check.

Ball-truncated sets (set intersected with a centered closed ball) get their
batch distance map from one builder (_truncated_rows) for every kind: a
closed form for flats and subspaces, and the multiplier identity for
polytopes.  When C meets the r-ball, the nearest point of C ∩ rB to x is
P_C(t* x) with t* = 1 / (1 + mu), mu the ball's KKT multiplier, and the t in
[0, 1] with |P_C(t x)| <= r form [0, t*] (Bauschke and Combettes, Convex
Analysis and Monotone Operator Theory, 2011).  A polytope row needs P_C(0)
only when P_C(x) leaves the ball.  truncated_distance_evaluator returns that
map and truncated_distance evaluates it at one point.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyIntersectionError,
    HyperconvexError,
)
from .sets import ConvexSet, Flat, Polytope, _point

_EPS = float(np.finfo(float).eps)
# the rounding allowance, in units of a computation's scale, of the Wolfe
# solvers' stopping rule (_limits) and of hypermetrics._box_bounds
_ROUNDING = 64.0 * _EPS
_ZERO = np.zeros(1)  # the weight of a generator entering the corral


# ---------------------------------------------------------------------------
# minimum-norm point (Wolfe active set)


def _wolfe_cap(pts: np.ndarray) -> int:
    """Major-iteration cap of the Wolfe solvers for the generators pts."""
    return max(10 * pts.shape[0] * pts.shape[1], 50)


def _limits(scale2, n: int):
    """The stopping rule of both Wolfe solvers for a query in R^n, from
    scale2 = max(1, max_i |p_i - x|^2), a float or one per query: the gap
    floor 64 eps scale2, below which a gap is numerically 0; the stall
    level 1e5 times that, below which a major iteration that fails to
    lower |w|^2 is a stall at rounding level; and the floor allowance of
    _min_norm_rows."""
    gap_floor = _ROUNDING * scale2
    return gap_floor, 1e5 * gap_floor, _ROUNDING * (n + 1) * scale2**0.5


# A weight at or below this leaves the corral; coefficients above minus it
# make a corral.
_CORRAL_CUT = 1e-13

# Affine coefficients above this come from a nearly singular bordered
# system, solved again by pseudo-inverse.  LU stays the first solve: pinv
# on every row made the polytope-batch benchmark 1.5x slower (330 against
# 495 ops/s, two runs each, 2-vCPU Xeon VM).  On random, flat and
# integer-lattice polytopes no system exceeds 1e3.
_ALPHA_MAX = 1e3


@functools.lru_cache(maxsize=None)
def _e0(size: int) -> np.ndarray:
    """e_0 of R^size as a read-only (1, size, 1) column, which numpy 1.x
    also reads as one column per matrix of a stack."""
    return np.broadcast_to(np.eye(size, 1), (1, size, 1))


def _corral_solve(S: np.ndarray) -> np.ndarray:
    """The corral solve of both Wolfe solvers: for each system S[i] of the
    stack S (rows, c, n) on its own, the coefficients (sum 1, sign-free)
    that minimize ||alpha_i @ S[i]||.

    Each system is divided by its largest entry, which is never 0 (a zero
    generator ends either solver at once): alpha does not change, and S S^T
    no longer grows like scale^2 beside the border of ones.  LU solves the
    bordered systems, and the pseudo-inverse, with lstsq's cutoff, those
    that LU finds singular or that have a coefficient above _ALPHA_MAX, as
    repeated or dependent generators give.
    """
    r, c = S.shape[:2]
    S = S / abs(S).max(axis=(1, 2), keepdims=True)
    A = np.ones((r, c + 1, c + 1))
    A[:, 0, 0] = 0.0
    A[:, 1:, 1:] = S @ S.transpose(0, 2, 1)
    try:
        alpha = np.linalg.solve(A, _e0(c + 1))[:, 1:, 0]
    except np.linalg.LinAlgError:
        # some system is exactly singular: solve the others by LU
        alpha = np.full((r, c), np.nan)
        regular = np.linalg.slogdet(A)[0] != 0
        if regular.any():
            alpha[regular] = np.linalg.solve(A[regular], _e0(c + 1))[:, 1:, 0]
    if not abs(alpha).max() <= _ALPHA_MAX:  # also when a coefficient is NaN
        bad = ~(abs(alpha) <= _ALPHA_MAX).all(axis=1)
        alpha[bad] = np.linalg.pinv(A[bad], rcond=_EPS * (c + 1))[:, 1:, 0]
    return alpha


def min_norm_point(points: np.ndarray, gap_tol: float, max_iter: int):
    """Minimum-norm point of conv(rows of points).

    Returns (w, gap) where gap = <w,w> - min_i <p_i, w> is the Wolfe duality
    gap at exit; every generator a then satisfies <-w, a - w> >= -gap, so gap
    bounds the variational-inequality residual of w.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    sq = np.einsum("ij,ij->i", points, points)
    gap_floor, stall_tol, _ = _limits(max(1.0, float(sq.max())), n)
    tol = max(gap_tol, gap_floor)

    active = [int(sq.argmin())]
    lam = np.ones(1)
    w = points[active[0]].copy()
    w2_last = math.inf  # |w|^2 at the previous major iteration

    for _ in range(max_iter):
        dots = points @ w
        w2 = float(w @ w)
        j = int(dots.argmin())
        gap = w2 - float(dots[j])
        # a major iteration that did not lower |w|^2 near rounding level
        # would cycle through the same corrals until the cap
        if gap <= tol or (w2 >= w2_last and gap <= stall_tol):
            return w, max(gap, 0.0)
        w2_last = w2
        if j in active:
            # no generator improves; stall is at rounding level or a bug
            if gap <= stall_tol:
                return w, max(gap, 0.0)
            raise ConvergenceError(
                "minimum-norm point stalled above tolerance", best=w, residual=gap
            )
        active.append(j)
        # minor cycles: shrink back to a corral (all-positive affine minimizer)
        for _ in range(m + 2):
            Q = points[active]
            alpha = _corral_solve(Q[None])[0]
            # min is NaN, and so not a corral, when alpha holds a NaN
            if alpha.min() > -_CORRAL_CUT:
                lam = np.maximum(alpha, 0.0)
                lam /= lam.sum()
                w = lam @ Q
                break
            if lam.size < alpha.size:
                lam = np.concatenate((lam, _ZERO))
            neg = alpha < -_CORRAL_CUT
            t = lam[neg] / (lam[neg] - alpha[neg])
            theta = min(float(t.min()), 1.0)
            lam = np.maximum((1.0 - theta) * lam + theta * alpha, 0.0)
            drop = lam <= _CORRAL_CUT
            if not drop.any():
                drop = lam == lam.min()
            keep = ~drop
            if not keep.any():
                keep[int(lam.argmax())] = True
            active = [a for a, k in zip(active, keep.tolist()) if k]
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


# Rows evaluated together by both polytope kernels, however many rows the
# caller passes: _min_norm_rows' arrays hold about _BLOCK_ROWS * m * n
# floats, and face enumeration's _BLOCK_ROWS * K * (kmax + 1 + n) for K pieces
# of up to kmax coordinates.
_BLOCK_ROWS = 1024


def _slot_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the slot axis 1, one slot after another.

    Zero padding slots then leave a row's sum bit for bit as it is; a plain
    sum would switch to pairwise grouping once the padded width reaches 8.
    """
    return a.cumsum(axis=1)[:, -1]


def _affine_minimizer_rows(Qs: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """_corral_solve for a stack of generator sets of unequal counts.

    Row i of Qs (rows, k, n) holds its set in its first cnt[i] slots; the
    coefficients of the other slots are 0.  Rows are solved in groups of
    equal count, so a row's result does not depend on the other rows.
    """
    sizes = np.bincount(cnt).tolist()
    if sizes[-1] == cnt.size and len(sizes) == Qs.shape[1] + 1:
        return _corral_solve(Qs)  # every row fills every slot
    alpha = np.zeros(Qs.shape[:2])
    order = np.argsort(cnt, kind="stable")  # each count's rows, in row order
    start = 0
    for c, size in enumerate(sizes):
        if not size:
            continue
        rows = slice(None) if size == cnt.size else order[start : start + size]
        start += size
        alpha[rows, :c] = _corral_solve(Qs[rows, :c])
    return alpha


def _min_norm_rows(
    pts: np.ndarray, X: np.ndarray, gap_tol: float, max_iter: int, floor: float | None = None
):
    """The minimum-norm point of conv(pts - x) for every row x of X, with
    min_norm_point's stopping rule (_limits) and certificate (the Wolfe
    gap) but from another start.

    The rows run in lockstep, _BLOCK_ROWS at a time, each with its own
    active slots and weights.  A row starts at its nearest generator, or at
    the nearest point of a segment from it where that is nearer
    (_wolfe_seed), where min_norm_point starts at the nearest generator; so
    a row may take fewer major iterations and end at another point, within
    both solvers' certificates.  Returns (W, gaps).  ConvergenceError names
    the worst row of the block that failed.

    A floor asks only for the largest distance over the rows (a max query):
    a row whose |w| falls below the floor leaves early with its current w
    and gap, as |w| bounds its distance from above.  After each major
    iteration the floor rises to the largest certified lower bound of a row
    in play, min_i <p_i - x, w> / |w| (weak duality), less a rounding
    allowance of 64 eps (n + 1) max(1, max_i |p_i - x|) that covers the
    rounding of that bound and of the |w| it is compared with, so a row
    whose |w| could still be the largest distance runs to its end with the
    arithmetic it would have without a floor.  A row that leaves below the
    floor is not checked for a stall.  The floor carries from block to
    block.  Without a floor every row runs to its end.
    """
    X = np.asarray(X, dtype=float)
    W = np.empty(X.shape)
    gaps = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        W[block], gaps[block], floor = _wolfe_block(pts, X[block], gap_tol, max_iter, floor)
    return W, gaps


def _block_error(message: str, Q: np.ndarray, W: np.ndarray, rows: np.ndarray):
    """ConvergenceError for the rows of a block with the largest Wolfe gap."""
    gap = (W[rows] * W[rows]).sum(axis=1) - (Q[rows] @ W[rows, :, None])[:, :, 0].min(axis=1)
    worst = int(np.argmax(gap))
    return ConvergenceError(message, best=W[rows[worst]], residual=float(gap[worst]))


def _wolfe_seed(Q: np.ndarray, sq: np.ndarray):
    """The starting corral of each row of _wolfe_block: (idx, lam, cnt, W)
    for the shifted generators Q (rows, m, n) and their squared norms sq.

    A row starts at its nearest generator q_f, or, where one is strictly
    nearer, at the nearest point q_f + t (q_j - q_f) of a segment from q_f
    with 0 < t < 1.  That point is the segment's minimum-norm point, so
    {f, j} with weights (1 - t, t) is a corral.  With e = q_f - q_j,
    t = <q_f, e> / |e|^2 and the point lies |q_f|^2 - t <q_f, e> from the
    origin squared, so the segment with the largest t <q_f, e> wins (the
    first on a tie).  Segments with <q_f, e> <= 0 or |e|^2 <= <q_f, e>
    give t = 0 (t >= 1 only by rounding, as q_f is nearest), and no
    division by |e|^2 = 0.  idx and lam get at least 2 slots.
    """
    b, m = sq.shape
    rows = np.arange(b)
    first = sq.argmin(axis=1)
    qf = Q[rows, first]
    E = qf[:, None] - Q
    ee = np.einsum("bij,bij->bi", E, E)
    num = np.einsum("bij,bj->bi", E, qf)
    np.maximum(num, 0.0, out=num)
    ee[ee <= num] = np.inf
    t = num / ee
    j = np.multiply(num, t, out=num).argmax(axis=1)
    tj = t[rows, j]
    idx = np.zeros((b, max(m, 2)), dtype=np.intp)  # active generators, in the front slots
    idx[:, 0], idx[:, 1] = first, j
    lam = np.zeros(idx.shape)
    lam[:, 0], lam[:, 1] = 1.0 - tj, tj
    return idx, lam, (tj > 0) + 1, qf - tj[:, None] * E[rows, j]


def _wolfe_block(pts: np.ndarray, X: np.ndarray, gap_tol: float, max_iter: int, floor=None):
    """_min_norm_rows on one block of rows: (W, gaps, the raised floor)."""
    m, n = pts.shape
    Q = pts[None, :, :] - X[:, None, :]  # (rows, m, n): generators shifted per row
    sq = np.einsum("bij,bij->bi", Q, Q)
    gap_floor, stall, allow = _limits(np.maximum(1.0, sq.max(axis=1)), n)
    # per row, one array for one gather: gap tolerance, stall level, floor allowance
    lim = np.stack((np.maximum(gap_tol, gap_floor), stall, allow), axis=1)

    b = X.shape[0]
    W_out = np.empty((b, n))
    gap_out = np.empty(b)
    ids = np.arange(b)  # block row of each live row
    rows, slots = np.arange(b), np.arange(m)
    idx, lam, cnt, W = _wolfe_seed(Q, sq)
    w2_last = np.full(b, np.inf)  # |w|^2 at the previous major iteration

    for _ in range(max_iter):
        dots = (Q @ W[:, :, None])[:, :, 0]
        w2 = (W * W).sum(axis=1)
        j = dots.argmin(axis=1)
        low = dots[rows, j]
        gap = w2 - low
        done = gap <= lim[:, 0]
        if floor is not None:
            nw = np.sqrt(w2)
            lower = np.zeros(nw.shape)
            np.divide(low, nw, out=lower, where=nw > 0)
            floor = max(floor, float((lower - lim[:, 2]).max()))
            # rows that cannot hold the largest distance leave as they are
            done |= nw < floor
        # no generator improves: a stall at rounding level, or a failure
        k = int(cnt.max())
        stalled = ~done & ((idx[:, :k] == j[:, None]) & (slots[:k] < cnt[:, None])).any(axis=1)
        if (stalled & (gap > lim[:, 1])).any():
            raise _block_error(
                "minimum-norm point stalled above tolerance", Q, W,
                np.flatnonzero(stalled & (gap > lim[:, 1])),
            )
        # a major iteration that did not lower |w|^2 near rounding level would
        # cycle through the same corrals until the cap
        done |= stalled | ((w2 >= w2_last) & (gap <= lim[:, 1]))
        if done.any():
            W_out[ids[done]] = W[done]
            gap_out[ids[done]] = np.maximum(gap[done], 0.0)
            live = np.flatnonzero(~done)
            if not live.size:
                return W_out, gap_out, floor
            ids, w2, cnt, j = ids[live], w2[live], cnt[live], j[live]
            Q, W, idx, lam, lim = (v.take(live, axis=0) for v in (Q, W, idx, lam, lim))
            rows = rows[: live.size]
        w2_last = w2
        idx[rows, cnt] = j
        lam[rows, cnt] = 0.0
        cnt += 1

        # minor cycles: shrink back to a corral (all-positive affine minimizer)
        pend = rows
        for _ in range(m + 2):
            have = cnt[pend]
            k = int(have.max())
            sub = idx[pend, :k]
            Qs = Q[pend[:, None], sub]
            alpha = _affine_minimizer_rows(Qs, have)
            # alpha is 0 past a row's count, so the test needs no slot mask
            corral = (alpha > -_CORRAL_CUT).all(axis=1)
            every = corral.all()
            if every or corral.any():
                met = slice(None) if every else corral  # a slice skips the gathers
                c = np.maximum(alpha[met], 0.0)
                c /= _slot_sum(c)[:, None]
                lam[pend[met], :k] = c
                W[pend[met]] = _slot_sum(c[:, :, None] * Qs[met])
                if every:
                    break
                left = ~corral
                pend, sub, alpha = pend[left], sub[left], alpha[left]
            valid = slots[:k] < cnt[pend, None]
            lm = lam[pend, :k]
            t = np.full(lm.shape, np.inf)
            np.divide(lm, lm - alpha, out=t, where=alpha < -_CORRAL_CUT)
            theta = np.minimum(t.min(axis=1), 1.0)[:, None]
            lm = np.maximum((1.0 - theta) * lm + theta * alpha, 0.0)
            drop = valid & (lm <= _CORRAL_CUT)
            none = ~drop.any(axis=1)
            if none.any():
                lmin = np.where(valid, lm, np.inf).min(axis=1, keepdims=True)
                drop[none] = (valid & (lm == lmin))[none]
            keep = valid & ~drop
            held = keep.any(axis=1)
            if not held.all():
                empty = np.flatnonzero(~held)
                keep[empty, lm[empty].argmax(axis=1)] = True
            # move the kept slots to the front, in order
            order = np.argsort(~keep, axis=1, kind="stable")
            at = rows[: pend.size, None]
            lm = np.where(keep, lm, 0.0)[at, order]
            idx[pend, :k] = sub[at, order]
            lam[pend, :k] = lm / _slot_sum(lm)[:, None]
            cnt[pend] = keep.sum(axis=1)
        else:
            raise _block_error("minor cycle failed to restore a corral", Q, W, pend)
    raise _block_error("minimum-norm point iteration cap exceeded", Q, W, np.arange(ids.size))


# ---------------------------------------------------------------------------
# projections


def _finite_rows(s: ConvexSet, X) -> np.ndarray:
    """X, the rows passed to a public batch map of s, as a float array once
    checked to be 2-D (one row may come as a vector), finite and as wide as
    the ambient space of s."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim > 2:
        raise DimensionMismatchError(f"query rows must form a 2-D array, not {X.ndim}-D")
    if X.shape[1] != s.ambient_dim:
        raise DimensionMismatchError(f"query rows must have {s.ambient_dim} columns, not {X.shape[1]}")
    if not np.isfinite(X).all():
        raise HyperconvexError("query rows must be finite")
    return X


def metric_projection(s: ConvexSet, x, tol: ToleranceConfig | None = None):
    """Nearest point of the set to x and the distance.

    Returns (point, dist).  For flats and subspaces the residual is exactly
    orthogonal to the direction span; for polytopes the Wolfe gap at exit
    bounds the variational-inequality residual.
    """
    cfg = resolve(tol)
    x = _point(x, s.ambient_dim, "query point")
    if isinstance(s, Polytope):
        pts = s.unique_points
        w, _ = min_norm_point(pts - x, gap_tol=cfg.tau_geom**2, max_iter=_wolfe_cap(pts))
        return x + w, math.sqrt(w @ w)
    base = s.base
    point = base + (s.basis @ (x - base)) @ s.basis
    r = x - point
    return point, math.sqrt(r @ r)


def nearest_point(s: ConvexSet, tol: ToleranceConfig | None = None):
    """(p, nu): the point of the set closest to the origin and its norm."""
    return metric_projection(s, np.zeros(s.ambient_dim), tol)


def project_hyperplane(a, x) -> np.ndarray:
    """Project x onto the hyperplane through a orthogonal to a."""
    a = _point(a, np.size(a), "hyperplane vector")
    x = _point(x, a.size, "query point")
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        raise HyperconvexError("zero vector defines no hyperplane")
    return x + a - (float(x @ a) / nrm2) * a


def contains(s: ConvexSet, x, tol: float, tolerances: ToleranceConfig | None = None) -> bool:
    """True iff d(x, set) <= tol, projecting under the given tolerances."""
    if not math.isfinite(tol):
        raise HyperconvexError("containment tolerance must be finite")
    return metric_projection(s, x, tolerances)[1] <= tol


# ---------------------------------------------------------------------------
# ball-truncated distances


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=-1) for a float array, bit for bit.

    norm takes sqrt(add.reduce(X * X, axis=-1)), and numpy's add.reduce sums
    fewer than 8 terms left to right (from 8 on, pairwise).  So for a
    trailing axis shorter than 8 the squared columns are added plane by plane
    in that order, which gives the same bits without reducing a short axis:
    a (2000, 3) stack took 12 us against norm's 47, a (4, 2000, 3) stack 43
    against 181 (best of 7, one core of a 2-vCPU Xeon VM, numpy 2.4.6).
    Longer axes make the one add.reduce call that norm makes, and so do up
    to 64 k rows of k > 1 columns, whose planes cost more calls than the
    reduction does (a (2, 3, 3) stack: 4.5 against 1.9 us).
    """
    k = X.shape[-1]
    if not 0 < k < 8 or (k > 1 and X.size <= 64 * k * k):
        return np.sqrt(np.add.reduce(X * X, axis=-1))
    s = X[..., 0] * X[..., 0]
    for j in range(1, k):
        s += X[..., j] * X[..., j]
    return np.sqrt(s)


def _clamp_rows(y: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(the rows of y clamped into the radius-ball, their norms), radius >= 0.
    When every row is inside, y itself comes back."""
    t = _row_norms(y)
    out = t > radius
    if out.any():
        y = y * np.where(out, radius / np.where(out, t, 1.0), 1.0)[..., None]
        t = _row_norms(y)
    return y, t


def flat_min_norm_point(f: Flat) -> np.ndarray:
    """Closed-form nearest point of a flat to the origin."""
    return f.base - (f.basis @ f.base) @ f.basis


def truncated_distance(s: ConvexSet, x, L: float, tol: ToleranceConfig | None = None) -> float:
    """d(x, set ∩ closed ball of radius L around the origin).

    The value is x's row of the batch map truncated_distance_evaluator
    builds, with the caller's tolerances.
    """
    x = _point(x, s.ambient_dim, "query point")
    return float(_truncated_rows(s, L, resolve(tol))(x[None, :])[0])


# ---------------------------------------------------------------------------
# vectorized distance evaluators (used by the certified sup estimators)


# Face pieces above which distance_evaluator runs _min_norm_rows instead of
# enumerating faces.  Enumeration builds its pieces once per evaluator and
# then pays per row and piece; the batched solver pays per row and Wolfe
# iteration.  Per-row cost of the one-product face kernel against the
# batched solver (each row started on an edge, _wolfe_seed) at 1k, 4k and
# 16k rows, then a build (_residual_rows) plus one 64-row call, on one Xeon
# core with OpenBLAS on one thread (two runs on a shared 2-vCPU VM, rows
# 1.5 N(0, I) around N(0, I) generators):
#   n3m4 (11 pieces)  0.2-0.4 vs 1.2-2.0 us   0.10-0.20 vs 0.30      ms
#   n2m5 (20)         0.2-0.5 vs 1.0-1.6 us   0.11-0.21 vs 0.34-0.46 ms
#   n3m5 (25)         0.5-0.9 vs 2.0-3.1 us   0.14-0.22 vs 0.59-0.78 ms
#   n2m6 (35)         0.3-0.7 vs 1.3-1.5 us   0.14      vs 0.30-0.33 ms
#   n3m6 (50)         0.6-1.2 vs 1.4-1.8 us   0.21-0.22 vs 0.51-0.54 ms
#   n2m7 (56)         0.6-0.8 vs 1.6-2.0 us   0.18-0.19 vs 0.51-0.63 ms
#   n4m8 (210)        3.9-5.9 vs 3.0-3.2 us   0.94-0.97 vs 0.58-0.61 ms
# The switch was set at 25 against the per-piece loop an earlier kernel
# replaced; this kernel wins per row and a build plus 64 rows up to 56
# pieces and loses both at 210, but a higher switch moves
# polytope-batch's n3m6 cells to another route and wants its own
# measurement.  It also keeps a block's
# _BLOCK_ROWS * K * (kmax + 1 + n) floats small: 0.35 GB at n6m12 (3289 pieces).
_ENUM_MAX_PIECES = 25


def _face_pieces(m: int, n: int) -> int:
    """Number of generator subsets _polytope_pieces examines."""
    return sum(math.comb(m, s) for s in range(2, min(m, n + 1) + 1))


@functools.lru_cache(maxsize=None)
def _piece_table(m: int, n: int):
    """The generator subsets _polytope_pieces examines for m points in R^n,
    cached per (m, n) and read-only: (idx, low, own).  Row i of idx holds
    subset i padded to kmax + 1 indices with its first: the generators
    alone, then the subsets of 2 to kmax + 1 points, each size in
    itertools.combinations order.  For the subsets of two or more points,
    own[i, j] marks slot j below the subset's rank (its points less one)
    and low indexes its smallest own singular value in a (subsets, kmax)
    stack.
    """
    kmax = min(m - 1, n)
    rows = [(i,) * (kmax + 1) for i in range(m)]
    for size in range(2, kmax + 2):
        rows += [s + s[:1] * (kmax + 1 - size) for s in itertools.combinations(range(m), size)]
    idx = np.array(rows, dtype=np.intp)
    rank = (idx[m:, 1:] != idx[m:, :1]).sum(axis=1)
    own = np.arange(kmax) < rank[:, None]
    low = (np.arange(rank.size), rank - 1)
    for a in (idx, own, *low):
        a.flags.writeable = False
    return idx, low, own


def _polytope_pieces(pts: np.ndarray):
    """The affine pieces of every face candidate, packed for _residual_rows.

    d(x, hull) equals the minimum over affinely independent generator
    subsets S of ||x - proj_aff(S)(x)|| restricted to projections whose
    barycentric coordinates are all nonnegative: the minimal face containing
    the true projection contributes exactly d(x, hull), every other feasible
    subset yields a point inside the hull and so cannot undercut it.  A
    subset p_0, .., p_k with difference rows D^T = U S V^T gives the piece
    with coordinates M (x - p_0), M = pinv(D) = U S^-1 V^T, and residual
    E (x - p_0), E = I - V V^T, unless its smallest singular value is at
    most 1e-12 max(1, largest).  One SVD factors all of _piece_table's
    subsets, padded with zero rows and read over their own rank (none for
    one point).  The generators come first, as pieces with no coordinates,
    so the nearest generator wins every tie.

    Returns (c, A), with c = pts[0] the anchor, for all K pieces at once:
    A is C-contiguous, one (n + 1, K) plane per slot, and ([X - c, 1] @ A)
    [j, :, i] is slot j of piece i: its kmax coordinates (zero past its own
    k), then 1 minus their sum, then its n residual coordinates.  A plane's
    first n rows are the linear parts, its last the offsets.
    """
    m, n = pts.shape
    c, kmax = pts[0], min(m - 1, n)
    idx, low, own = _piece_table(m, n)
    P = pts[idx]  # (subsets, kmax + 1, n)
    if kmax:
        U, S, Vt = np.linalg.svd(P[m:, 1:] - P[m:, :1], full_matrices=False)
        keep = ~(S[low] <= 1e-12 * np.maximum(S[:, 0], 1.0))
        if not keep.all():
            U, S, Vt, own = U[keep], S[keep], Vt[keep], own[keep]
            P = np.concatenate((P[:m], P[m:][keep]))
    A = np.zeros((kmax + 1 + n, n + 1, P.shape[0]))
    A[kmax + 1 :, :n, :m] = np.eye(n)[:, :, None]  # a generator's residual is x - p
    if kmax:
        # lin = G @ V^T stacks M, -(the sum of M's rows) and V V^T, each
        # over the subset's own rank
        G = np.empty((S.shape[0], kmax + 1 + n, kmax))
        inv = np.divide(1.0, S, out=np.zeros(S.shape), where=own)
        np.multiply(U * own[:, :, None], inv[:, None, :], out=G[:, :kmax])
        np.negative(G[:, :kmax].sum(axis=1), out=G[:, kmax])
        np.multiply(Vt.transpose(0, 2, 1), own[:, None, :], out=G[:, kmax + 1 :])
        lin = G @ Vt
        np.subtract(np.eye(n), lin[:, kmax + 1 :], out=lin[:, kmax + 1 :])
        A[:, :n, m:] = lin.transpose(1, 2, 0)
    # the offsets: -(each slot's linear part at p_0 - c), and 1 for 1 - sum
    np.einsum("jli,il->ji", A[:, :n], P[:, 0] - c, out=A[:, n])
    np.negative(A[:, n], out=A[:, n])
    A[kmax, n] += 1.0
    return c, A


def _residual_rows(s: ConvexSet):
    """Batch map (X, floor=None) -> (R, err): R[i] = x_i - P(x_i), the
    residual of x_i from its nearest point P(x_i) in the set, and err[i] a
    bound on the error of R[i] (None when every row is exact).

    A floor marks a max query, where only the largest |R[i]| counts: the
    Wolfe route then hands it to _min_norm_rows, and a row that leaves
    early below the floor returns a residual whose norm bounds its distance
    from above and stays below the floor, with err[i] from its gap at exit.
    Every other route is exact per row and ignores the floor, so the route
    is picked here alone.  Callers that read every row (ball_sup,
    distance_evaluator) pass no floor.

    Flats and subspaces take the closed form.  Polytopes with at most
    _ENUM_MAX_PIECES face pieces enumerate candidate faces, exact per point
    and independent of the Wolfe solver: _BLOCK_ROWS rows at a time, one
    product [X - c, 1] @ A gives every piece's coordinates, 1 - (their
    sum) and residual, a piece with any of the first below -1e-12 is
    dropped, and R is the residual of the nearest piece left.  Larger
    polytopes run _min_norm_rows, whose min-norm point w of conv(p_i - x)
    is -R; a row's Wolfe gap g at exit puts w within sqrt(2 g) of the exact
    one (|w - w*|^2 <= |w*|^2 - |w|^2 + 2 g <= 2 g), and g is at most
    64 eps max(1, max_i |p_i - x|^2) unless the solver stalls at rounding
    level.
    """
    if not isinstance(s, Polytope):
        P = s.basis.T @ s.basis
        base = s.base

        def r_flat(X: np.ndarray, floor=None):
            if X.shape[0] == 1:  # a one-row block takes two, as in r_poly
                return r_flat(np.concatenate((X, X)))[0][:1], None
            Xc = X - base
            return Xc - Xc @ P, None

        return r_flat
    pts = s.unique_points
    if _face_pieces(*pts.shape) > _ENUM_MAX_PIECES:
        cap = _wolfe_cap(pts)

        def r_wolfe(X: np.ndarray, floor=None):
            W, gaps = _min_norm_rows(pts, X, 1e-18, cap, floor)
            return -W, np.sqrt(2.0 * gaps)

        return r_wolfe
    c, A = _polytope_pieces(pts)
    n = pts.shape[1]

    def r_poly(X: np.ndarray, floor=None):
        # [X - c, 1] and a spare row: a one-row block takes two, as numpy
        # multiplies one row by BLAS gemv, which sums in another order
        Y = np.empty((X.shape[0] + 1, n + 1))
        np.subtract(X, c, out=Y[:-1, :n])
        Y[:, n] = Y[-1] = 1.0
        R = np.empty(X.shape)
        for start in range(0, X.shape[0], _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, X.shape[0] - start)
            # (slots, rows, pieces): numpy reduces over whole planes fast
            Z = (Y[start : start + max(rows, 2)] @ A)[:, :rows]
            d2 = np.einsum("jik,jik->ik", Z[-n:], Z[-n:])
            d2[np.minimum.reduce(Z[:-n]) < -1e-12] = np.inf
            R[start : start + rows] = Z[-n:, np.arange(rows), d2.argmin(axis=1)].T
        return R, None

    return r_poly


def distance_evaluator(s: ConvexSet) -> Callable[[np.ndarray], np.ndarray]:
    """Batch map X (rows) -> d(x_i, set), the row norms of the set's
    residual map (_residual_rows), which the set builds on first use and
    keeps.

    Flats, subspaces and polytopes with at most _ENUM_MAX_PIECES face pieces
    are exact per point; such a polytope evaluates all its face pieces at
    once, _BLOCK_ROWS rows at a time.  Larger polytopes run the batched Wolfe
    solver: a row's Wolfe gap g at exit certifies its distance to within
    sqrt(2 g).
    Property tests compare both routes with metric_projection.  Non-finite
    rows raise HyperconvexError, rows that are not a 2-D array as wide as
    the ambient space DimensionMismatchError.
    """
    residuals = s._residuals
    return lambda X: np.linalg.norm(residuals(_finite_rows(s, X))[0], axis=1)


def _ball_cut_point(project, x, p0, y1, radius, tol):
    """P_C(lo x) within tol of P_C(t* x), for a row whose y1 = P_C(x) leaves
    the ball, with project(y) = P_C(y) and p0 = P_C(0) in the ball.

    The bracket [lo, hi] keeps P_C(lo x) in the ball and P_C(hi x) outside
    until |x| (hi - lo) <= tol, as P_C is 1-Lipschitz.  P_C(t x) is affine in
    t on a face, so a step goes where the chord from P_C(lo x) to P_C(hi x)
    leaves the ball (t* once both ends share its face), tol / 3 toward the
    longer end so the next step can close the bracket.  A step after one
    that did not halve the bracket bisects.
    """
    lo, hi, y_lo, y_hi = 0.0, 1.0, p0, y1
    step = tol / math.sqrt(x @ x)
    last = np.inf
    while hi - lo > step:
        width = hi - lo
        # larger root s of |y_lo + s d| = radius, in [0, 1) as |y_lo| <= radius
        d = y_hi - y_lo
        a, b, c = d @ d, y_lo @ d, min(y_lo @ y_lo - radius * radius, 0.0)
        root = math.sqrt(b * b - a * c)
        t = lo + width * (-c / (b + root) if b > 0 else (root - b) / a)
        t += step / 3 if hi - t > t - lo else -step / 3
        if width > 0.5 * last or not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        last = width
        y = project(t * x)
        if math.sqrt(y @ y) <= radius:
            lo, y_lo = t, y
        else:
            hi, y_hi = t, y
    return y_lo


def _truncated_rows(
    s: ConvexSet, radius: float, cfg: ToleranceConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch map X -> d(x_i, set ∩ radius-ball), behind truncated_distance
    and truncated_distance_evaluator.

    Flats and subspaces use the closed form.  A polytope row is its metric
    projection when that lies in the ball, which the set then meets.  Else
    P_C(0) is solved, once per map, and the row is _ball_cut_point's point.
    The ball may miss the set by tau_geom before EmptyIntersectionError,
    and then meets it in P_C(0).  A polytope that misses the ball raises on
    the first row, as every row's projection then leaves the ball.
    """
    if not radius > 0:
        raise HyperconvexError("truncation radius must be positive")
    if isinstance(s, Polytope):
        pts = s.unique_points
        gap_tol, cap, tol = cfg.tau_geom**2, _wolfe_cap(pts), max(cfg.tau_geom, 1e-12)

        origin = None  # (P_C(0), d(0, C)), solved for the first row that needs it

        def project(y: np.ndarray) -> np.ndarray:
            return y + min_norm_point(pts - y, gap_tol=gap_tol, max_iter=cap)[0]

        def row(x: np.ndarray) -> float:
            nonlocal origin
            w, _ = min_norm_point(pts - x, gap_tol=gap_tol, max_iter=cap)
            y = x + w
            if math.sqrt(y @ y) > radius:
                if origin is None:
                    origin = nearest_point(s, cfg)
                p0, nu = origin
                if nu > radius + cfg.tau_geom:
                    raise EmptyIntersectionError(
                        f"polytope misses the ball: d(0, hull) = {nu:.6g} > {radius:.6g}"
                    )
                if nu > radius:
                    return float(np.linalg.norm(x - p0))
                w = _ball_cut_point(project, x, p0, y, radius, tol) - x
            return math.sqrt(w @ w)

        return lambda X: np.array([row(x) for x in X], dtype=float)
    p = flat_min_norm_point(s)
    nu = float(np.linalg.norm(p))
    if nu > radius + cfg.tau_geom:
        raise EmptyIntersectionError(
            f"flat misses the ball: d(0, flat) = {nu:.6g} > {radius:.6g}"
        )
    rho = float(np.sqrt(max(radius * radius - nu * nu, 0.0)))
    P = s.basis.T @ s.basis

    def f_flat(X: np.ndarray) -> np.ndarray:
        V = (X - p) @ P
        return np.linalg.norm(X - (p + _clamp_rows(V, rho)[0]), axis=1)

    return f_flat


def truncated_distance_evaluator(
    s: ConvexSet, radius: float, tol: ToleranceConfig | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch map X -> d(x_i, set ∩ radius-ball): closed forms for flats and
    subspaces, the multiplier point to max(tau_geom, 1e-12) for polytopes.
    A flat that misses the ball raises EmptyIntersectionError here, a
    polytope on the first row evaluated (see _truncated_rows).  Non-finite
    rows raise HyperconvexError, rows that are not a 2-D array as wide as
    the ambient space DimensionMismatchError."""
    rows = _truncated_rows(s, radius, resolve(tol))
    return lambda X: rows(_finite_rows(s, X))
