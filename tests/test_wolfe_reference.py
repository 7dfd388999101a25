"""The scalar Wolfe solver against a reference that pins its arithmetic.

_reference_min_norm_point and _reference_affine_minimizer below are the
scalar solver written with np.clip, np.append, separate reductions for the
minimum and its index and a bordered matrix filled from zeros, one system
at a time.  projection.min_norm_point and projection._corral_solve, the
corral solve it shares with the batched solver, issue fewer numpy calls but
must perform the same floating-point operations in the same order, so every
(w, gap) is compared through float.hex, and a failure must raise the same
exception class with the same message and residual.  The fixed cases
include thin triangles that reach the solver's stall and raise branches and
a nearly repeated generator whose corral takes the pseudo-inverse fallback.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import ConvergenceError, Polytope, ToleranceConfig
from hyperconvex.projection import _ALPHA_MAX, _EPS, _corral_solve, _wolfe_cap, min_norm_point

GAP_TOL = ToleranceConfig().tau_geom ** 2  # what metric_projection passes


def _reference_affine_minimizer(Q):
    s = Q.shape[0]
    if s == 1:
        return np.ones(1)
    Q = Q / float(np.abs(Q).max())
    bordered = np.zeros((s + 1, s + 1))
    bordered[0, 1:] = 1.0
    bordered[1:, 0] = 1.0
    bordered[1:, 1:] = Q @ Q.T
    rhs = np.zeros(s + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not (np.abs(sol[1:]) <= _ALPHA_MAX).all():
        sol = np.linalg.pinv(bordered, rcond=_EPS * (s + 1))[:, 0]
    return sol[1:]


def _reference_min_norm_point(points, gap_tol, max_iter):
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    scale2 = max(1.0, float(sq.max()))
    tol = max(gap_tol, 64.0 * _EPS * scale2)
    stall_tol = 1e5 * 64.0 * _EPS * scale2

    active = [int(np.argmin(sq))]
    lam = np.ones(1)
    w = points[active[0]].copy()
    w2_last = math.inf

    for _ in range(max_iter):
        dots = points @ w
        w2 = float(w @ w)
        gap = w2 - float(dots.min())
        if gap <= tol or (w2 >= w2_last and gap <= stall_tol):
            return w, max(gap, 0.0)
        w2_last = w2
        j = int(np.argmin(dots))
        if j in active:
            if gap <= stall_tol:
                return w, max(gap, 0.0)
            raise ConvergenceError(
                "minimum-norm point stalled above tolerance", best=w, residual=gap
            )
        active.append(j)
        lam = np.append(lam, 0.0)
        for _ in range(m + 2):
            Q = points[active]
            alpha = _reference_affine_minimizer(Q)
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


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _outcome(solve, *args):
    """A solver's result as hex strings, or its exception with its residual."""
    try:
        w, gap = solve(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        residual = getattr(exc, "residual", None)
        return ("raise", type(exc).__name__, str(exc), None if residual is None else float(residual).hex())
    return ("ok", _hex(w), float(gap).hex())


def _assert_same(points, gap_tol=GAP_TOL, max_iter=None):
    if max_iter is None:
        max_iter = _wolfe_cap(points)
    got = _outcome(min_norm_point, points, gap_tol, max_iter)
    want = _outcome(_reference_min_norm_point, points, gap_tol, max_iter)
    assert got == want
    return got


def _generators(rng, n, m, kind):
    """m generators in R^n, some of them affinely dependent by kind."""
    if kind == "collinear":
        a, b = rng.normal(size=(2, n))
        return a + rng.uniform(-1.0, 2.0, size=(m, 1)) * (b - a)
    if kind == "coplanar":
        c, u, v = rng.normal(size=(3, n))
        st_ = rng.uniform(-1.0, 1.0, size=(m, 2))
        return c + st_[:, :1] * u + st_[:, 1:] * v
    pts = rng.normal(size=(m, n))
    if kind == "duplicated":
        pts = np.concatenate([pts, pts[rng.integers(0, m, size=3)]])
        pts = pts[rng.permutation(pts.shape[0])]
    return pts


# ---------------------------------------------------------------------------
# fixed cases


def _shifted(points, x):
    pts = Polytope(np.array(points, dtype=float)).unique_points
    return pts - np.array(x, dtype=float)


@pytest.mark.parametrize(
    "points,x,outcome",
    [
        # thin triangles that break the projection laws: two stall above
        # tolerance, one returns a point that misses the variational
        # inequality by 2.27e-8
        ([(0, 0), (1, 0), (-1, -5.96e-8)], (0, -1), "raise"),
        ([(0, 0), (4, 0), (-1, -5.96e-8)], (0, -1), "ok"),
        ([(0, 0), (10, 1.18e-6), (-7, 0)], (-4, -1), "raise"),
    ],
)
def test_thin_triangles_fail_as_the_reference_does(points, x, outcome):
    got = _assert_same(_shifted(points, x))
    assert got[0] == outcome
    if outcome == "raise":
        assert got[1:3] == ("ConvergenceError", "minimum-norm point stalled above tolerance")


def test_nearly_repeated_generator_takes_the_pinv_fallback(monkeypatch):
    # (4, 0) twice, 1e-12 apart: both copies enter the corral on the way to
    # the hypotenuse, and the bordered system's coefficients exceed _ALPHA_MAX
    points = _shifted([(0, 0), (4, 0), (0, 4), (4 + 1e-12, 0)], (4, 2))
    real = np.linalg.pinv
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or real(*a, **k))
    got = _outcome(min_norm_point, points, GAP_TOL, _wolfe_cap(points))
    assert calls
    monkeypatch.undo()
    assert got == _outcome(_reference_min_norm_point, points, GAP_TOL, _wolfe_cap(points))
    assert got[0] == "ok"
    np.testing.assert_allclose([float.fromhex(v) for v in got[1]], [-1.0, -1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# random draws


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(1, 24),
    kind=st.sampled_from(["generic", "duplicated", "collinear", "coplanar"]),
    where=st.sampled_from(["interior", "boundary", "outside"]),
    exponent=st.floats(-6.0, 8.0),
)
def test_min_norm_point_matches_the_reference(seed, n, m, kind, where, exponent):
    rng = np.random.default_rng(seed)
    pts = _generators(rng, n, m, kind) * 10.0**exponent
    if where == "interior":
        x = rng.dirichlet(np.ones(pts.shape[0])) @ pts
    else:
        x = pts.mean(axis=0) + 2.0 * float(np.abs(pts).max()) * rng.normal(size=n)
        if where == "boundary":
            # the nearest point of an outside point lies on the boundary
            try:
                w, _ = _reference_min_norm_point(pts - x, GAP_TOL, _wolfe_cap(pts))
            except ConvergenceError:
                return
            x = x + w
    _assert_same(pts - x)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    s=st.integers(1, 9),
    repeats=st.integers(0, 3),
    jitter=st.sampled_from([0.0, 1e-9, 1e-6]),
    exponent=st.floats(-6.0, 8.0),
)
def test_affine_minimizer_matches_the_reference(seed, n, s, repeats, jitter, exponent):
    # repeated rows, exact or moved by jitter, make the bordered system
    # singular or nearly so, which takes the pseudo-inverse fallback; the
    # scalar solver passes its corral as a stack of one system
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(s, n))
    Q = np.concatenate([Q, Q[rng.integers(0, s, size=repeats)] + jitter * rng.normal(size=(repeats, n))])
    Q *= 10.0**exponent
    assert _hex(_corral_solve(Q[None])[0]) == _hex(_reference_affine_minimizer(Q))
