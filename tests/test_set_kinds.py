"""One dispatch per set kind: a subspace is served as the flat through the
origin, truncated_distance is one row of truncated_distance_evaluator, whose
ball-cut polytope rows sit between weight-grid bounds, query points are
validated at the API boundary, and the pair caps behind the
localized-convergence estimators are sound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.projection as projection
from hyperconvex import (
    EmptyIntersectionError,
    Flat,
    HyperconvexError,
    Polytope,
    Subspace,
    ToleranceConfig,
    contains,
    distance_evaluator,
    metric_projection,
    nearest_point,
    truncated_distance,
    truncated_distance_evaluator,
)
from hyperconvex.hypermetrics import _gap_caps

from conftest import grid_distance, weight_grid


def _frame(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q[:, :k].T.copy()


def _random_subspace(seed, n, k):
    return Subspace(_frame(np.random.default_rng(seed), n, k))


# ---------------------------------------------------------------------------
# subspaces are flats through the origin


def test_subspace_base_is_a_read_only_origin():
    s = _random_subspace(0, 4, 2)
    assert np.array_equal(s.base, np.zeros(4)) and s.base.shape == (4,)
    with pytest.raises(ValueError):
        s.base[0] = 1.0
    with pytest.raises(AttributeError):
        s.base = np.ones(4)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    k_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_subspace_equals_its_flat_through_the_origin(n, k_frac, seed, scale):
    k = round(k_frac * n)  # dim 0 and dim n included
    sub = _random_subspace(seed, n, k)
    fl = Flat(np.zeros(n), sub.basis)
    rng = np.random.default_rng(seed + 1)
    X = scale * rng.normal(size=(7, n))
    for x in X:
        p_sub, d_sub = metric_projection(sub, x)
        p_fl, d_fl = metric_projection(fl, x)
        assert np.array_equal(p_sub, p_fl) and d_sub == d_fl
    assert np.array_equal(distance_evaluator(sub)(X), distance_evaluator(fl)(X))
    r = scale * float(rng.uniform(0.1, 3.0))
    assert np.array_equal(
        truncated_distance_evaluator(sub, r)(X), truncated_distance_evaluator(fl, r)(X)
    )


# ---------------------------------------------------------------------------
# the scalar truncated distance is a row of the evaluator


def _assert_rows_match(s, X, r):
    batch = truncated_distance_evaluator(s, r)(X)
    for x, v in zip(X, batch):
        w = truncated_distance(s, x, r)
        assert abs(w - v) <= 1e-14 * max(abs(v), 1.0), (w, v)


@pytest.mark.parametrize("seed", range(6))
def test_scalar_truncated_distance_is_the_evaluator_row_on_flats(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    k = int(rng.integers(0, n + 1))
    basis = _frame(rng, n, k)
    for s in (Subspace(basis), Flat(rng.normal(size=n), basis)):
        nu = float(np.linalg.norm(projection.flat_min_norm_point(s)))
        X = 3.0 * rng.normal(size=(8, n))
        _assert_rows_match(s, X, nu + float(rng.uniform(0.1, 2.0)))


@pytest.mark.parametrize("seed", range(4))
def test_scalar_truncated_distance_is_the_evaluator_row_on_polytopes(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 4)), int(rng.integers(2, 6))
    pts = rng.normal(size=(m, n))
    pts -= pts.mean(axis=0)  # the hull holds the origin, so every ball meets it
    s = Polytope(pts)
    far = float(np.linalg.norm(pts, axis=1).max())
    X = 2.0 * rng.normal(size=(4, n))
    _assert_rows_match(s, X, 2.0 * far)  # not cut: the plain distance
    _assert_rows_match(s, X[:2], 0.5 * far)  # cut: the multiplier search


def test_flat_grazing_the_ball_within_tau_geom_is_served_by_both():
    # d(0, flat) = 1 + 5e-10 exceeds the radius 1 by less than tau_geom = 1e-9,
    # so the intersection is the single point (0, 1 + 5e-10)
    s = Flat(np.array([0.0, 1.0 + 5e-10]), np.array([[1.0, 0.0]]))
    x = np.array([3.0, 2.0])
    d = truncated_distance(s, x, 1.0)
    assert d == pytest.approx(np.sqrt(10.0), abs=1e-8)
    assert truncated_distance_evaluator(s, 1.0)(x[None, :])[0] == d


def test_flat_missing_the_ball_raises_in_both():
    s = Flat(np.array([0.0, 1.0 + 1e-6]), np.array([[1.0, 0.0]]))
    with pytest.raises(EmptyIntersectionError):
        truncated_distance(s, np.zeros(2), 1.0)
    with pytest.raises(EmptyIntersectionError):
        truncated_distance_evaluator(s, 1.0)


def test_cut_polytope_checks_emptiness_once_per_build(monkeypatch):
    calls = []
    real = projection.nearest_point

    def counted(s, tol=None):
        calls.append(1)
        return real(s, tol)

    monkeypatch.setattr(projection, "nearest_point", counted)
    square = Polytope(np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]))
    f = truncated_distance_evaluator(square, 1.0)
    X = np.random.default_rng(3).normal(size=(5, 2)) * 3.0
    f(X)
    f(X[:2])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# ball-cut polytopes against a weight-grid oracle

# weight-grid subdivisions per generator count: about 2k grid points each
_GRID = {2: 300, 3: 60, 4: 22, 5: 13, 6: 10}
_CUT_TOL = max(ToleranceConfig().tau_geom, 1e-12)


def _cut_polytope(rng, n, m, origin):
    """m generators in R^n, scaled by 10^U(-1, 1); with origin, a convex
    combination of them is moved to the origin."""
    pts = rng.normal(size=(m, n)) * 10 ** rng.uniform(-1, 1)
    if origin:
        return pts - rng.dirichlet(np.ones(m)) @ pts
    return pts + rng.normal(size=n) * float(np.abs(pts).max())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(2, 6),
    origin=st.booleans(),
    grazing=st.booleans(),
)
def test_ball_cut_polytope_distance_lies_between_grid_bounds(seed, n, m, origin, grazing):
    # below: d(x, C) from the weight grid, and |x| - r as C ∩ rB lies in the
    # ball; above: grid points of C inside the ball (for a hull holding the
    # origin, every grid point pulled radially into the ball stays in C),
    # and |x| + r
    rng = np.random.default_rng(seed)
    pts = _cut_polytope(rng, n, m, origin)
    s = Polytope(pts)
    nu = nearest_point(s)[1]
    reach = float(np.linalg.norm(pts, axis=1).max())
    r = nu if grazing else float(rng.uniform(nu, reach))
    if not r > 0:
        return
    X = rng.normal(size=(4, n))
    X *= 3.0 * reach * rng.random((4, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    X[0] = 0.0
    got = truncated_distance_evaluator(s, r)(X)
    g = _GRID[m]
    G = np.array(list(weight_grid(m, g))) @ pts
    nrm = np.linalg.norm(G, axis=1)
    G = G * np.minimum(1.0, r / np.maximum(nrm, 1e-300))[:, None] if origin else G[nrm <= r]
    slack = _CUT_TOL + 1e-12 * reach
    for x, v in zip(X, got):
        best, cover = grid_distance(pts, x, g)
        lower = max(best - cover, float(np.linalg.norm(x)) - r)
        upper = float(np.linalg.norm(x)) + r
        if G.size:
            upper = min(upper, float(np.linalg.norm(G - x, axis=1).min()))
        assert lower - slack <= v <= upper + slack, (lower, v, upper)


@pytest.mark.parametrize("seed", range(6))
def test_ball_cut_row_takes_few_wolfe_solves(monkeypatch, seed):
    # the bracket at least halves every second step, which alone allows about
    # 2 log2(|x| / tol) solves; the chord steps keep a row well inside that
    rng = np.random.default_rng(seed)
    n, m = 2 + seed % 3, 3 + seed % 4
    s = Polytope(_cut_polytope(rng, n, m, origin=seed % 2 == 0))
    nu = nearest_point(s)[1]
    reach = float(np.linalg.norm(s.points, axis=1).max())
    r = nu + float(rng.uniform(0.2, 0.8)) * (reach - nu)
    f = truncated_distance_evaluator(s, r)
    calls = []
    real = projection.min_norm_point

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(projection, "min_norm_point", counted)
    active = 0
    for x in 3.0 * reach * rng.normal(size=(20, n)):
        cut = float(np.linalg.norm(metric_projection(s, x)[0])) > r
        calls.clear()
        f(x[None, :])
        if cut:
            active += 1
            assert len(calls) <= 2 * np.log2(np.linalg.norm(x) / _CUT_TOL) + 2
        else:
            assert len(calls) == 1
    assert active


# ---------------------------------------------------------------------------
# non-finite query points


KINDS = {
    "polytope": Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    "flat": Flat(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
    "subspace": Subspace(np.array([[0.6, 0.8]])),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_finite_query_points_are_rejected(kind, value):
    s = KINDS[kind]
    x = np.array([0.25, value])
    with pytest.raises(HyperconvexError, match="finite"):
        metric_projection(s, x)
    with pytest.raises(HyperconvexError, match="finite"):
        truncated_distance(s, x, 2.0)
    with pytest.raises(HyperconvexError, match="finite"):
        contains(s, x, 1e-9)


# ---------------------------------------------------------------------------
# pair caps against dense sampling


@pytest.mark.parametrize("seed", range(5))
def test_gap_caps_bound_the_sampled_gap(seed):
    rng = np.random.default_rng(seed)
    n = 3
    a = Flat(rng.normal(size=n), _frame(rng, n, 1))
    tilted = Flat(rng.normal(size=n), _frame(rng, n, 2))
    translate = Flat(a.base + 0.3 * rng.normal(size=n), a.basis)
    for b in (tilted, translate, Subspace(a.basis)):
        h, cap = _gap_caps(a, b)
        fa, fb = distance_evaluator(a), distance_evaluator(b)
        for r in (0.5, 2.0, 7.0):
            Y = rng.normal(size=(4000, n))
            Y *= r * rng.random((4000, 1)) ** (1 / n) / np.linalg.norm(Y, axis=1, keepdims=True)
            sampled = float(np.abs(fa(Y) - fb(Y)).max())
            assert sampled <= min(h, cap(r)) + 1e-12
    h, cap = _gap_caps(a, translate)
    off = translate.base - a.base
    assert h == cap(5.0) == pytest.approx(np.linalg.norm(off - a.basis.T @ (a.basis @ off)))
