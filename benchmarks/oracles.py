"""Independent reference answers for the benchmark's output checks.

Nothing here calls into hyperconvex.  Polytope distances come from
scipy's non-negative least squares, flat distances from numpy lstsq,
subspace gaps from principal angles, and ball-truncated distances from a
bisection on the regularisation path.  Each check returns None when the
output passes and a short reason when it does not.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import nnls

# Absolute slack for interval checks (values are O(1) there).
INTERVAL_SLACK = 1e-7
# Relative slack for distances and nearest points, scaled by the data size.
DIST_RTOL = 1e-6
POINT_RTOL = 1e-5
GAP_ATOL = 1e-7


# ---------------------------------------------------------------------------
# distances


def hull_projection(points: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest point of conv(rows of points) to x, and the distance.

    With Q = points - x scaled to unit size, the NNLS problem
    min_{u >= 0} ||Q^T u||^2 + (1^T u - 1)^2 is solved by u = lam / (1 + d^2),
    where lam are the barycentric weights of the nearest point and d its
    distance, so the nearest point is Q^T u / 1^T u exactly.
    """
    Q = np.asarray(points, dtype=float) - x
    c = float(np.abs(Q).max())
    if c == 0.0:
        return x.copy(), 0.0
    Qs = Q / c
    E = np.vstack([Qs.T, np.ones(Qs.shape[0])])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = nnls(E, f, maxiter=50 * E.shape[1])
    w = (Qs.T @ u) / u.sum()
    return x + c * w, c * float(np.linalg.norm(w))


def flat_projection(base: np.ndarray, basis: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest point of base + span(basis rows) to x, by least squares."""
    r = x - base
    if basis.shape[0] == 0:
        return base.copy(), float(np.linalg.norm(r))
    coef, *_ = np.linalg.lstsq(basis.T, r, rcond=None)
    point = base + basis.T @ coef
    return point, float(np.linalg.norm(x - point))


def set_projector(s):
    """x -> (nearest point, distance) for a hyperconvex set, read from its data."""
    if hasattr(s, "points"):
        pts = np.asarray(s.points, dtype=float)
        return lambda x: hull_projection(pts, x)
    basis = np.asarray(s.basis, dtype=float)
    base = np.asarray(getattr(s, "base", np.zeros(basis.shape[1])), dtype=float)
    return lambda x: flat_projection(base, basis, x)


def distances(s, X: np.ndarray) -> np.ndarray:
    """d(x, s) for each row of X (flats in one least-squares solve)."""
    X = np.atleast_2d(X)
    if hasattr(s, "points"):
        pts = np.asarray(s.points, dtype=float)
        return np.array([hull_projection(pts, x)[1] for x in X])
    basis = np.asarray(s.basis, dtype=float)
    R = X - np.asarray(getattr(s, "base", np.zeros(basis.shape[1])), dtype=float)
    if basis.shape[0]:
        coef, *_ = np.linalg.lstsq(basis.T, R.T, rcond=None)
        R = R - (basis.T @ coef).T
    return np.linalg.norm(R, axis=1)


def truncated_projection(proj, x: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """Nearest point of C ∩ radius-ball to x, given the projector onto C.

    When the ball constraint is active the answer is proj(t x) for the
    t in (0, 1] at which ||proj(t x)|| = radius (the multiplier form
    min ||x - y||^2 + mu ||y||^2 with t = 1/(1 + mu)); that norm is
    monotone in t, so bisection finds it.  Requires C to meet the ball.
    """
    y, _ = proj(x)
    if np.linalg.norm(y) <= radius:
        return y, float(np.linalg.norm(x - y))
    lo, hi = 0.0, 1.0
    y_lo, _ = proj(np.zeros_like(x))
    for _ in range(48):
        t = 0.5 * (lo + hi)
        yt, _ = proj(t * x)
        if np.linalg.norm(yt) <= radius:
            lo, y_lo = t, yt
        else:
            hi = t
    return y_lo, float(np.linalg.norm(x - y_lo))


def hausdorff(a_pts: np.ndarray, b_pts: np.ndarray) -> float:
    """Hausdorff distance of two hulls: both one-sided sups sit at generators."""
    d_ab = max(hull_projection(b_pts, p)[1] for p in a_pts)
    d_ba = max(hull_projection(a_pts, p)[1] for p in b_pts)
    return max(d_ab, d_ba)


def gap(v_basis: np.ndarray, w_basis: np.ndarray) -> float:
    """Gap between subspaces: sine of the largest principal angle (1 when
    the dimensions differ)."""
    if v_basis.shape[0] != w_basis.shape[0]:
        return 1.0
    if v_basis.shape[0] == 0:
        return 0.0
    cosines = np.linalg.svd(v_basis @ w_basis.T, compute_uv=False)
    return math.sqrt(max(0.0, 1.0 - float(cosines.min()) ** 2))


def projector_distance(v_basis: np.ndarray, w_basis: np.ndarray) -> float:
    """||P_V - P_W||_2 from the basis rows."""
    return float(np.linalg.norm(v_basis.T @ v_basis - w_basis.T @ w_basis, 2))


def independence_radius(points: np.ndarray) -> float:
    """sigma_min of the difference matrix, via the Gram eigenvalues, / (4 sqrt k)."""
    D = points[1:] - points[0]
    lam = float(np.linalg.eigvalsh(D @ D.T).min())
    return math.sqrt(max(lam, 0.0)) / (4.0 * math.sqrt(D.shape[0]))


# ---------------------------------------------------------------------------
# sampled lower bounds for suprema


def ball_samples(rng: np.random.Generator, n: int, radius: float, count: int, anchors=()) -> np.ndarray:
    """Points of the closed radius-ball: uniform draws, the anchors clamped
    into the ball, and their scaled copies."""
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rows = [g * radius * rng.random((count, 1)) ** (1.0 / n)]
    for a in anchors:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        nrm = np.linalg.norm(a, axis=1, keepdims=True)
        a = a * np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
        rows.extend([a, 0.5 * a, -a])
    return np.concatenate(rows)


def _climb(obj, X: np.ndarray, radius: float, rng: np.random.Generator, effort: int, cap: float = math.inf) -> float:
    """max of obj over X, then pushed up by a random local search from the
    best rows, staying inside the radius-ball and stopping at cap.  Every
    value is a genuine evaluation, so the result is a lower bound of the
    sup of obj over the ball."""
    vals = obj(X)
    keep = min(4, X.shape[0])
    order = np.argsort(vals)[-keep:]
    P, V = X[order], vals[order]
    sigma = 0.25 * radius
    for step in range(effort):
        if V.max() >= cap:
            break
        Y = P + sigma * rng.standard_normal(P.shape)
        nrm = np.linalg.norm(Y, axis=1, keepdims=True)
        Y *= np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
        W = obj(Y)
        better = W > V
        P[better], V[better] = Y[better], W[better]
        if step % 4 == 3:
            sigma *= 0.5
    return float(max(vals.max(), V.max()))


def _cost(a, b) -> tuple[int, int]:
    """(samples, local-search steps): polytope distances cost one NNLS
    solve per point, flat distances are one vectorised solve."""
    return (32, 16) if hasattr(a, "points") or hasattr(b, "points") else (192, 48)


def sup_gap_lower(a, b, radius: float, rng: np.random.Generator, anchors=()) -> float:
    """Lower bound of sup over the radius-ball of |d(., a) - d(., b)|."""
    count, effort = _cost(a, b)
    obj = lambda X: np.abs(distances(a, X) - distances(b, X))
    return _climb(obj, ball_samples(rng, _dim(a), radius, 3 * count, anchors), radius, rng, 2 * effort)


def aw_lower(a, b, rng: np.random.Generator, j_max: int = 8, anchors=()) -> float:
    """Lower bound of sup_j min(1/j, sup over jB of |d_a - d_b|), one
    ball at a time until 1/j cannot beat the bound found so far."""
    count, effort = _cost(a, b)
    obj = lambda X: np.abs(distances(a, X) - distances(b, X))
    best = 0.0
    for j in range(1, j_max + 1):
        if 1.0 / j <= best:
            break
        X = ball_samples(rng, _dim(a), float(j), count, anchors)
        best = max(best, min(1.0 / j, _climb(obj, X, float(j), rng, effort, cap=1.0 / j)))
    return best


def segment_aw(L: float) -> float:
    """AW distance between [0, L u] and [0, 2L u]: the j-ball term is
    clip(j - L, 0, L)."""
    j_max = int(math.ceil(2 * L)) + 2
    return max(min(1.0 / j, min(max(j - L, 0.0), L)) for j in range(1, j_max + 1))


def _dim(s) -> int:
    return int(s.points.shape[1]) if hasattr(s, "points") else int(s.basis.shape[1])


# ---------------------------------------------------------------------------
# checks (None = pass, str = reason)


def check_interval(iv, lower: float = -math.inf, upper: float = math.inf, truth: float | None = None):
    """The interval must be ordered, reach at least every lower bound, and
    start no higher than every upper bound (and contain truth when known)."""
    s = INTERVAL_SLACK
    if not (iv.lo <= iv.hi + 1e-15):
        return f"unordered interval [{iv.lo}, {iv.hi}]"
    if truth is not None and not (iv.lo - s <= truth <= iv.hi + s):
        return f"[{iv.lo:.9g}, {iv.hi:.9g}] misses the exact value {truth:.9g}"
    if lower > iv.hi + s:
        return f"hi {iv.hi:.9g} below sampled lower bound {lower:.9g}"
    if iv.lo > upper + s:
        return f"lo {iv.lo:.9g} above independent upper bound {upper:.9g}"
    return None


def check_overlap(a, b, what: str):
    s = INTERVAL_SLACK
    if a.lo > b.hi + s or b.lo > a.hi + s:
        return f"{what}: [{a.lo:.9g}, {a.hi:.9g}] and [{b.lo:.9g}, {b.hi:.9g}] are disjoint"
    return None


def check_distance(value: float, ref: float, scale: float, what: str = "distance"):
    if abs(value - ref) > DIST_RTOL * max(1.0, scale):
        return f"{what} {value:.12g} vs reference {ref:.12g}"
    return None


def check_projection(point, dist, ref_point, ref_dist, scale: float):
    bad = check_distance(float(dist), ref_dist, scale)
    if bad:
        return bad
    err = float(np.linalg.norm(np.asarray(point) - ref_point))
    if err > POINT_RTOL * max(1.0, scale):
        return f"nearest point off by {err:.3g}"
    return None


def check_gap(value: float, ref: float):
    if abs(value - ref) > GAP_ATOL:
        return f"gap {value:.12g} vs principal-angle gap {ref:.12g}"
    return None


def check_residual(residual: float, limit: float, what: str):
    if not residual <= limit:
        return f"{what} residual {residual:.3g} above {limit:.3g}"
    return None


# ---------------------------------------------------------------------------
# self-test: every check must reject a perturbed answer


def _iv(lo: float, hi: float):
    return SimpleNamespace(lo=lo, hi=hi)


def self_test() -> list[str]:
    """Run each check on a right answer and on a perturbed one.  Returns the
    list of problems (empty when every check accepts the first and rejects
    the second)."""
    rng = np.random.default_rng(12345)
    problems = []

    def expect(ok, bad, name):
        if ok is not None:
            problems.append(f"{name}: rejected a right answer ({ok})")
        if bad is None:
            problems.append(f"{name}: accepted a perturbed answer")

    # segments: exact value 1/11 for L = 10
    t = segment_aw(10.0)
    if abs(t - 1.0 / 11.0) > 1e-15:
        problems.append(f"segment formula gives {t}, expected 1/11")
    expect(check_interval(_iv(t, t), truth=t), check_interval(_iv(t + 1e-3, t + 2e-3), truth=t), "segment")

    # polytope distance: point at known distance 1 from the unit square
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    p, d = hull_projection(sq, np.array([2.0, 0.5]))
    if abs(d - 1.0) > 1e-12 or np.linalg.norm(p - [1.0, 0.5]) > 1e-12:
        problems.append(f"hull_projection gives {p}, {d}")
    expect(check_projection(p, d, p, d, 1.0), check_projection(p, d * (1 + 1e-4), p, d, 1.0), "projection")

    # truncated distance: square cut by the unit ball, query (2, 2)
    proj = lambda x: hull_projection(sq, x)
    _, dt = truncated_projection(proj, np.array([2.0, 2.0]), 1.0)
    if abs(dt - (2 * math.sqrt(2) - 1)) > 1e-9:
        problems.append(f"truncated_projection gives {dt}")
    expect(check_distance(dt, dt, 1.0), check_distance(dt + 1e-4, dt, 1.0), "truncated distance")

    # Hausdorff of a translate is the translation length
    h = hausdorff(sq, sq + [0.3, 0.4])
    if abs(h - 0.5) > 1e-12:
        problems.append(f"hausdorff oracle gives {h}")
    expect(check_distance(h, 0.5, 1.0), check_distance(h + 1e-3, 0.5, 1.0), "hausdorff")

    # gap: two lines at angle theta
    th = 0.3
    g = gap(np.array([[1.0, 0.0]]), np.array([[math.cos(th), math.sin(th)]]))
    if abs(g - math.sin(th)) > 1e-12:
        problems.append(f"gap oracle gives {g}")
    expect(check_gap(g, math.sin(th)), check_gap(g + 1e-5, math.sin(th)), "gap")

    # sampled lower bound: a hi below the sampled value must be caught
    a = SimpleNamespace(points=sq)
    b = SimpleNamespace(points=sq + [0.5, 0.0])
    lb = sup_gap_lower(a, b, 2.0, rng)
    expect(check_interval(_iv(0.0, 0.5), lower=lb), check_interval(_iv(0.0, lb - 1e-3), lower=lb), "sampled bound")

    # interval overlap
    expect(check_overlap(_iv(0.1, 0.2), _iv(0.2, 0.3), "overlap"), check_overlap(_iv(0.1, 0.2), _iv(0.21, 0.3), "overlap"), "overlap")

    # residual and independence radius
    expect(check_residual(1e-12, 1e-9, "chart"), check_residual(1e-6, 1e-9, "chart"), "chart residual")
    pts = rng.standard_normal((3, 3))
    r = independence_radius(pts)
    ref = float(np.linalg.svd(pts[1:] - pts[0], compute_uv=False)[-1]) / (4 * math.sqrt(2))
    expect(check_distance(r, ref, 1.0), check_distance(r * 1.01, ref, 1.0), "independence radius")
    return problems
