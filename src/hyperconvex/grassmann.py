"""Subspace geometry: gap metric, complements, and flat charts.

A flat F with direction space V close to a reference subspace W splits
uniquely as F = V + omega with omega in the orthogonal complement of W,
provided the restriction of the projection onto W to V is a bijection.
The chart functions move between (V, omega) pairs and flats, and are exact
up to roundoff: the recovered omega is re-projected onto the complement of
W to scrub accumulated error.
"""

from __future__ import annotations

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import ChartDomainError, DimensionMismatchError, HyperconvexError
from .intervals import Interval
from .hypermetrics import sup_distance_gap
from .projection import flat_min_norm_point
from .sets import Flat, Subspace, _direction_gap, _point, _row_space, check_same_ambient

_COND_CAP = 1e12


def orthonormal_basis(vectors, tol: ToleranceConfig | None = None) -> Subspace:
    """Subspace spanned by the given row vectors.

    Rank is decided by sets._row_space's cut, the one affine_hull uses; a
    numerically zero span is rejected.
    """
    cfg = resolve(tol)
    A = np.asarray(vectors, dtype=float)
    if A.ndim != 2 or A.shape[0] == 0:
        raise HyperconvexError("expected a nonempty 2d array of row vectors")
    rows = _row_space(A, cfg.tau_rank)
    if rows.shape[0] == 0:
        raise HyperconvexError("vectors span a numerically zero subspace")
    return Subspace(rows)


def projection_matrix(v: Subspace) -> np.ndarray:
    return v.basis.T @ v.basis


def orthogonal_complement(v: Subspace) -> Subspace:
    n = v.ambient_dim
    if v.dim == 0:
        return Subspace(np.eye(n))
    if v.dim == n:
        return Subspace(np.zeros((0, n)))
    _, _, vh = np.linalg.svd(v.basis, full_matrices=True)
    return Subspace(vh[v.dim:])


def gap(v: Subspace, w: Subspace) -> float:
    """Gap distance ||P_V - P_W||_2 (sets._direction_gap), capped at 1, so
    1 for unequal dimensions.  The gap-oracle suite holds it against
    principal angles (suites._principal_angle_gap)."""
    check_same_ambient(v, w)
    return min(_direction_gap(v, w), 1.0)


def gap_direct(
    v: Subspace,
    w: Subspace,
    eps: float = 1e-3,
    tol: ToleranceConfig | None = None,
) -> Interval:
    """Interval for the gap as the Hausdorff distance between the unit-ball
    slices of the two subspaces, through sup_distance_gap at radius 1.

    On subspaces that is the spectral route, which reads gap()'s own
    ||P_v - P_w|| (sets._direction_gap), not ball_sup: the interval is that
    value widened by its rounding allowance (hypermetrics._spectral), and
    checks the routing, not the formula, whose independent oracle is
    suites._principal_angle_gap.  eps is not used on this route.
    """
    return sup_distance_gap(v, w, 1.0, eps, tol)


# ---------------------------------------------------------------------------
# charts


def _chart_values(w: Subspace, v: Subspace, cfg: ToleranceConfig):
    """Singular values of the chart matrix g = B_w B_v^T, largest first
    (none when k = 0), or None when v is outside the chart domain of w.
    The smallest decides the domain, and s[0] / s[-1] is np.linalg.cond(g),
    so one SVD answers both tests of a lift (lift_rows)."""
    check_same_ambient(w, v)
    if w.dim != v.dim:
        raise DimensionMismatchError(
            f"chart domain compares equal dimensions, got {v.dim} and {w.dim}"
        )
    if w.dim == 0:
        return np.ones(0)
    s = np.linalg.svd(w.basis @ v.basis.T, compute_uv=False)
    return s if s[-1] > cfg.tau_rank else None


def in_chart_domain(w: Subspace, v: Subspace, tol: ToleranceConfig | None = None) -> bool:
    """True when the orthogonal projection onto w restricts to a bijection
    from v onto w, i.e. the k x k basis Gram matrix has full rank."""
    return _chart_values(w, v, resolve(tol)) is not None


def lift_point(
    w: Subspace, v: Subspace, x, tol: ToleranceConfig | None = None
) -> np.ndarray:
    """The unique point of v projecting onto x in w; a non-finite x raises
    HyperconvexError.

    Solves the k x k system (B_w B_v^T) c = B_w x and returns c @ B_v.
    """
    cfg = resolve(tol)
    check_same_ambient(w, v)
    x = _point(x, w.ambient_dim, "point to lift")
    outside = "projection onto the reference subspace is singular on v"
    return lift_rows(w, v, x[None, :], cfg, outside)[0]


def lift_rows(w: Subspace, v: Subspace, X: np.ndarray, cfg: ToleranceConfig, outside: str):
    """lift_point for every row of X; ChartDomainError(outside) when v is
    outside the chart domain of w.

    The tests that v is in the chart domain, that the rows lie in w and that
    the chart system is well conditioned run once for all rows, on one SVD;
    each row is solved on its own, as lift_point solves it.
    """
    s = _chart_values(w, v, cfg)
    if s is None:
        raise ChartDomainError(outside)
    resid = np.linalg.norm(X - (X @ w.basis.T) @ w.basis, axis=1)
    if (resid > cfg.tau_geom * np.maximum(1.0, np.linalg.norm(X, axis=1))).any():
        raise ChartDomainError("point to lift is not in the reference subspace")
    if w.dim == 0:
        return np.zeros(X.shape)
    if s[0] / s[-1] > _COND_CAP:
        raise ChartDomainError("chart system is too ill-conditioned to lift reliably")
    g = w.basis @ v.basis.T
    return np.array([np.linalg.solve(g, w.basis @ x) @ v.basis for x in X])


def parallel_subspace(f: Flat):
    """(direction subspace, anchor): the anchor is the nearest point of the
    flat to the origin, so it is orthogonal to the direction span.  Acting
    on a subspace returns the subspace itself with a zero anchor."""
    if isinstance(f, Subspace):
        return f, np.zeros(f.ambient_dim)
    return Subspace(f.basis), flat_min_norm_point(f)


def chart_flat(
    w: Subspace, v: Subspace, omega, tol: ToleranceConfig | None = None
) -> Flat:
    """Flat v + omega for v in the chart domain of w and omega in the
    orthogonal complement of w."""
    cfg = resolve(tol)
    check_same_ambient(w, v)
    omega = _point(omega, w.ambient_dim, "offset")
    if not in_chart_domain(w, v, cfg):
        raise ChartDomainError("direction subspace outside the chart domain")
    check_complement_offset(w, omega, cfg)
    return Flat(omega, v.basis)


def check_complement_offset(w: Subspace, omega: np.ndarray, cfg: ToleranceConfig) -> None:
    """ChartDomainError unless omega lies in the orthogonal complement of w,
    up to tau_geom max(1, |omega|): the offset test of both chart maps."""
    bound = cfg.tau_geom * max(1.0, float(np.linalg.norm(omega)))
    if np.linalg.norm((w.basis @ omega) @ w.basis) > bound:
        raise ChartDomainError("offset must lie in the orthogonal complement of w")


def chart_flat_inv(w: Subspace, f: Flat, tol: ToleranceConfig | None = None):
    """Chart coordinates (v, omega) of a flat: the direction subspace and
    the unique offset in the complement of w with f = v + omega."""
    cfg = resolve(tol)
    check_same_ambient(w, f)
    v, p = parallel_subspace(f)
    if v.dim != w.dim:
        raise ChartDomainError(
            f"flat direction dimension {v.dim} does not match the chart dimension {w.dim}"
        )
    x = ((w.basis @ p) @ w.basis)[None, :]
    omega = p - lift_rows(w, v, x, cfg, "flat direction outside the chart domain")[0]
    # scrub roundoff: omega is in the complement of w by construction
    omega = omega - (w.basis @ omega) @ w.basis
    return v, omega
