"""Batched polytope distances: both routes of distance_evaluator against
metric_projection, the brute-force grid oracle, and themselves row by row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import ConvergenceError, Polytope, distance_evaluator, hausdorff, metric_projection
from hyperconvex.projection import (
    _ENUM_MAX_PIECES,
    _WOLFE_ROWS,
    _affine_minimizer,
    _affine_minimizer_rows,
    _face_pieces,
    _min_norm_rows,
    min_norm_point,
)

from conftest import grid_distance

# (n, m) on both sides of the route switch
SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 6), (4, 8), (4, 17), (4, 24)]


def _queries(rng, pts, k=6):
    """Rows inside the hull, on its boundary and outside it."""
    n = pts.shape[1]
    inside = rng.dirichlet(np.ones(pts.shape[0]), size=k) @ pts
    outside = pts.mean(axis=0) + 3.0 * rng.normal(size=(k, n)) * np.abs(pts).max()
    on = np.array([metric_projection(Polytope(pts), x)[0] for x in outside[: k // 2]])
    return np.concatenate([inside, on, pts[:2], outside])


def _check_against_projection(pts, X):
    d = distance_evaluator(Polytope(pts))(X)
    ref = np.array([metric_projection(Polytope(pts), x)[1] for x in X])
    scale = max(1.0, float(np.abs(pts).max() + np.abs(X).max()))
    np.testing.assert_allclose(d, ref, rtol=0, atol=1e-9 * scale)
    return d


def test_shapes_cover_both_routes():
    routes = {_face_pieces(m, n) > _ENUM_MAX_PIECES for n, m in SHAPES}
    assert routes == {False, True}


@pytest.mark.parametrize("n,m", SHAPES)
def test_matches_metric_projection(n, m, rng):
    for _ in range(3):
        pts = rng.normal(size=(m, n)) * 2.0
        _check_against_projection(pts, _queries(rng, pts))


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 4)])
def test_matches_grid_oracle(n, m, rng):
    pts = rng.normal(size=(m, n))
    X = _queries(rng, pts, k=2)
    d = distance_evaluator(Polytope(pts))(X)
    for x, v in zip(X, d):
        best, slack = grid_distance(pts, x, g=40)
        assert best - slack - 1e-12 <= v <= best + 1e-12


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_property_random_polytopes(shape, seed, scale):
    rng = np.random.default_rng(seed)
    n, m = shape
    pts = scale * rng.normal(size=(m, n))
    _check_against_projection(pts, _queries(rng, pts, k=3))


@pytest.mark.parametrize("n,m", [(3, 6), (4, 17)])
def test_duplicated_generators(n, m, rng):
    pts = rng.normal(size=(m, n))
    doubled = np.concatenate([pts, pts[::2], pts[:3]])
    X = _queries(rng, pts)
    d = _check_against_projection(doubled, X)
    np.testing.assert_array_equal(d, distance_evaluator(Polytope(pts))(X))


def test_flat_polytope_on_the_batched_route(rng):
    # generators on a 2-plane in R^4: many bordered systems are singular
    frame = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    pts = rng.normal(size=(17, 2)) @ frame + np.array([1.0, -2.0, 0.5, 0.0])
    assert _face_pieces(17, 4) > _ENUM_MAX_PIECES
    _check_against_projection(pts, _queries(rng, pts))


def test_single_point(rng):
    p = rng.normal(size=3)
    X = rng.normal(size=(5, 3))
    for pts in (p[None, :], np.repeat(p[None, :], 4, axis=0)):
        d = distance_evaluator(Polytope(pts))(X)
        np.testing.assert_allclose(d, np.linalg.norm(X - p, axis=1), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,m", [(2, 5), (4, 17), (8, 17)])
def test_row_alone_equals_row_in_batch(n, m, rng):
    pts = rng.normal(size=(m, n))
    X = 1.5 * rng.normal(size=(_WOLFE_ROWS + 37, n))
    X[::7] = rng.dirichlet(np.ones(m), size=X[::7].shape[0]) @ pts
    f = distance_evaluator(Polytope(pts))
    d = f(X)
    assert d.shape == (X.shape[0],)
    picks = np.concatenate([np.arange(20), rng.choice(X.shape[0], 20, replace=False), [X.shape[0] - 1]])
    if _face_pieces(m, n) > _ENUM_MAX_PIECES:
        # the batched solver works on each row apart: bit for bit, also
        # where the other rows of the block hold 8 or more active slots
        alone = np.concatenate([f(x) for x in X])
        np.testing.assert_array_equal(alone, d)
        cap = max(10 * m * n, 50)
        ref = [np.linalg.norm(min_norm_point(pts - X[i], 1e-18, cap)[0]) for i in picks]
        np.testing.assert_allclose(d[picks], ref, rtol=0, atol=1e-12)
    else:
        alone = np.concatenate([f(X[i]) for i in picks])
        # enumeration multiplies the whole block at once, and BLAS may
        # round a one-row product differently
        np.testing.assert_allclose(alone, d[picks], rtol=1e-14, atol=1e-15)


def test_singular_bordered_systems(rng):
    # a repeated generator makes the bordered system exactly singular, a
    # nearly repeated one nearly so; both fall back to the pseudo-inverse
    Q = rng.normal(size=(3, 3))
    stacks = np.stack([
        Q,
        np.stack([Q[0], Q[1], Q[1]]),
        np.stack([Q[0], Q[1], Q[1] + 1e-17]),
        np.stack([Q[0], Q[1], Q[1] + 1e-3]),
    ])
    alpha = _affine_minimizer_rows(stacks, np.full(4, 3))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    for a, S in zip(alpha, stacks):
        np.testing.assert_allclose(a @ S, _affine_minimizer(S) @ S, atol=1e-10)
    np.testing.assert_array_equal(alpha[0], _affine_minimizer_rows(stacks[:1], np.full(1, 3))[0])


def test_batched_route_under_numpy1_solve_rules(monkeypatch, rng):
    # numpy before 2.0 reads b as one vector per matrix only when
    # b.ndim == a.ndim - 1; any other 1-D b fails against a stack
    solve = np.linalg.solve

    def solve_numpy1(a, b):
        if np.ndim(b) == 1 and np.ndim(a) > 2:
            raise ValueError("solve: Input operand 1 does not have enough dimensions")
        return solve(a, b)

    pts = rng.normal(size=(17, 4))
    X = _queries(rng, pts)
    expected = distance_evaluator(Polytope(pts))(X)
    monkeypatch.setattr(np.linalg, "solve", solve_numpy1)
    np.testing.assert_array_equal(distance_evaluator(Polytope(pts))(X), expected)
    Q = rng.normal(size=(3, 3))
    stacks = np.stack([Q, np.stack([Q[0], Q[1], Q[1]])])  # one exactly singular
    alpha = _affine_minimizer_rows(stacks, np.full(2, 3))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_thin_polytopes_solve_where_the_scalar_solver_does():
    # generators 1e-9 thick in their last coordinate make nearly singular
    # bordered systems; wherever min_norm_point solves every row, so must
    # the batched route
    solved = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(17, 4))
        pts[:, -1] *= 1e-9
        X = np.concatenate([rng.dirichlet(np.ones(17), size=20) @ pts, 3.0 * rng.normal(size=(40, 4))])
        try:
            ref = [np.linalg.norm(min_norm_point(pts - x, 1e-18, 170)[0]) for x in X]
        except ConvergenceError:
            continue
        np.testing.assert_allclose(distance_evaluator(Polytope(pts))(X), ref, rtol=0, atol=1e-8)
        solved += 1
    assert solved >= 8


def test_wolfe_gap_certifies_distance(rng):
    # |w|^2 - min_i <p_i - x, w> = g bounds the true distance from below
    # by (|w|^2 - g) / |w|
    pts = rng.normal(size=(24, 4))
    X = np.concatenate([3.0 * rng.normal(size=(30, 4)), pts[:3] + 1e-3])
    W, gaps = _min_norm_rows(pts, X, 1e-18, 1000)
    d = np.linalg.norm(W, axis=1)
    ref = np.array([metric_projection(Polytope(pts), x)[1] for x in X])
    scale2 = np.maximum(1.0, ((pts[None] - X[:, None]) ** 2).sum(axis=2).max(axis=1))
    assert (gaps >= 0).all() and (gaps <= 64 * np.finfo(float).eps * scale2).all()
    assert (ref <= d + 1e-12).all()
    assert (ref >= (d * d - gaps) / d - 1e-12).all()


def test_empty_batch():
    pts = np.random.default_rng(3).normal(size=(17, 4))
    assert distance_evaluator(Polytope(pts))(np.zeros((0, 4))).shape == (0,)


def test_iteration_cap_names_worst_row(rng):
    pts = rng.normal(size=(17, 4))
    rows, residuals = [], []
    for x in 3.0 * rng.normal(size=(20, 4)):
        try:
            _min_norm_rows(pts, x[None, :], 1e-18, 2)
        except ConvergenceError as one:
            rows.append(x)
            residuals.append(one.residual)
    assert len(rows) >= 2
    with pytest.raises(ConvergenceError) as err:
        _min_norm_rows(pts, np.array(rows), 1e-18, 2)
    assert err.value.residual == max(residuals)
    assert "iteration cap" in str(err.value)


def test_hausdorff_above_the_switch(rng):
    a, b = rng.normal(size=(12, 6)), rng.normal(size=(12, 6)) + 0.3
    assert _face_pieces(12, 6) > _ENUM_MAX_PIECES
    ref = max(
        max(metric_projection(Polytope(b), p)[1] for p in a),
        max(metric_projection(Polytope(a), q)[1] for q in b),
    )
    assert math.isclose(hausdorff(Polytope(a), Polytope(b)), ref, rel_tol=0, abs_tol=1e-9)
