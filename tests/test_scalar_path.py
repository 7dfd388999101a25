"""The scalar polytope path: metric_projection on min_norm_point, whose
corral step is the corral solve both Wolfe solvers share, LU with the
pseudo-inverse as the fallback; ball-truncated rows that solve P_C(0) only
when their projection leaves the ball; and the generators a polytope
deduplicates once, on first use.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    EmptyIntersectionError,
    Polytope,
    ToleranceConfig,
    dumps_set,
    metric_projection,
    parse_set,
    truncated_distance,
    truncated_distance_evaluator,
)
from hyperconvex import projection
from hyperconvex.projection import (
    _ALPHA_MAX,
    _ENUM_MAX_PIECES,
    _corral_solve,
    _face_pieces,
    _residual_rows,
)

TAU = ToleranceConfig().tau_geom


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _level_segment(height):
    """The segment from (-1, height) to (1, height): P_C(0) = (0, height)."""
    return Polytope(np.array([[-1.0, height], [1.0, height]]))


# ---------------------------------------------------------------------------
# ball-truncated rows: P_C(0) only for rows that leave the ball


def test_row_projecting_into_the_ball_solves_no_origin(monkeypatch):
    # P_C(x) = (0.5, 0.2) has norm 0.54 < 1, so the segment meets the ball
    s = Polytope(np.array([[0.5, -1.0], [0.5, 1.0]]))
    x = np.array([3.0, 0.2])
    solves = _counted(monkeypatch, projection, "min_norm_point")
    origin = _counted(monkeypatch, projection, "nearest_point")
    assert truncated_distance(s, x, 1.0) == pytest.approx(2.5, abs=1e-12)
    assert (len(solves), len(origin)) == (1, 0)
    solves.clear()
    f = truncated_distance_evaluator(s, 1.0)
    assert f(x[None, :])[0] == pytest.approx(2.5, abs=1e-12)
    assert (len(solves), len(origin)) == (1, 0)


def test_polytope_missing_the_ball_raises_on_the_first_row():
    # d(0, hull) = 1 + 1e-6 exceeds the radius 1 by more than tau_geom
    s = _level_segment(1.0 + 1e-6)
    with pytest.raises(EmptyIntersectionError):
        truncated_distance(s, np.zeros(2), 1.0)
    f = truncated_distance_evaluator(s, 1.0)
    with pytest.raises(EmptyIntersectionError):
        f(np.array([[3.0, 2.0], [0.0, 0.5]]))
    with pytest.raises(EmptyIntersectionError):
        f(np.array([0.0, 1.0 + 1e-6]))


def test_polytope_grazing_the_ball_within_tau_geom_is_its_nearest_point():
    # d(0, hull) = 1 + 5e-10 exceeds the radius 1 by less than tau_geom, so
    # the intersection is the single point p0 = (0, 1 + 5e-10)
    height = 1.0 + 5e-10
    assert height - 1.0 < TAU
    s = _level_segment(height)
    x = np.array([3.0, 2.0])
    want = float(np.linalg.norm(x - np.array([0.0, height])))
    d = truncated_distance(s, x, 1.0)
    assert d == pytest.approx(want, rel=1e-14)
    assert truncated_distance_evaluator(s, 1.0)(x[None, :])[0] == d


# ---------------------------------------------------------------------------
# one corral solve: LU first, the pseudo-inverse as the fallback


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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(2, 5),
    kind=st.sampled_from(["generic", "duplicated", "collinear", "coplanar"]),
    exponent=st.floats(-3.0, 8.0),
)
def test_projection_matches_the_face_kernel_at_any_scale(seed, n, m, kind, exponent):
    rng = np.random.default_rng(seed)
    pts = _generators(rng, n, m, kind) * 10.0**exponent
    s = Polytope(pts)
    if _face_pieces(*s.unique_points.shape) > _ENUM_MAX_PIECES:
        return
    reach = float(np.abs(pts).max())
    X = np.concatenate([
        2.0 * reach * rng.normal(size=(3, n)),
        rng.dirichlet(np.ones(pts.shape[0]), size=1) @ pts,  # in the hull
    ])
    R, _ = _residual_rows(s)(X)
    for x, r in zip(X, R):
        point, dist = metric_projection(s, x)
        bound = 1e-12 * max(1.0, reach, float(np.abs(x).max()))
        assert abs(dist - float(np.linalg.norm(r))) <= bound
        assert float(np.abs(point - (x - r)).max()) <= bound


@pytest.mark.parametrize(
    "Q,nearest",
    [
        # repeated rows: the bordered system is exactly singular, and the
        # minimizer is the nearest point of the line through the distinct rows
        (np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5]),
        (np.array([[0.0, 1.0], [2.0, 2.0], [0.0, 1.0], [2.0, 2.0]]), [-0.4, 0.8]),
        # rows 1e-12 apart: LU's coefficients run to about 1e12
        (np.array([[1.0, 0.0], [1.0 + 1e-12, 0.0], [0.0, 1.0]]), [0.5, 0.5]),
    ],
)
def test_affine_minimizer_falls_back_on_repeated_rows(Q, nearest):
    alpha = _corral_solve(Q[None])[0]  # the scalar solver's stack of one
    assert np.isfinite(alpha).all()
    assert np.abs(alpha).max() <= _ALPHA_MAX
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(alpha @ Q, nearest, atol=1e-9)


# ---------------------------------------------------------------------------
# generators deduplicated once


def test_unique_points_are_cached_read_only_and_not_serialized():
    pts = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    s = Polytope(pts)
    doc, text = dumps_set(s), repr(s)
    assert "unique_points" not in vars(s)  # lazy: nothing at construction
    u = s.unique_points
    np.testing.assert_array_equal(u, np.unique(pts, axis=0))
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 5.0
    assert s.unique_points is u
    # a cache, not a field: equality, repr and the JSON document skip it
    assert [f.name for f in dataclasses.fields(Polytope)] == ["points"]
    assert (dumps_set(s), repr(s)) == (doc, text)
    back = parse_set(doc)
    np.testing.assert_array_equal(back.points, pts)
    assert dumps_set(back) == doc


def test_polytope_routines_deduplicate_once(monkeypatch):
    s = Polytope(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]))
    same = Polytope(s.points[::-1].copy())
    calls = _counted(monkeypatch, np, "lexsort")
    x = np.array([4.0, 4.0])
    for _ in range(3):
        metric_projection(s, x)
        truncated_distance(s, x, 1.0)
        projection.distance_evaluator(s)(x[None, :])
        assert s == same
    assert len(calls) == 2  # one per polytope
