"""Metric projection, nearest points, hyperplanes, truncated distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    DimensionMismatchError,
    EmptyIntersectionError,
    HyperconvexError,
    Polytope,
    contains,
    distance_evaluator,
    metric_projection,
    min_norm_point,
    nearest_point,
    project_hyperplane,
    truncated_distance,
    truncated_distance_evaluator,
)
from hyperconvex.projection import _ENUM_MAX_PIECES, _face_pieces

from conftest import flat, grid_distance, poly, seg, span


class TestMetricProjection:
    def test_polytope_corner(self):
        point, dist = metric_projection(poly((1, 1), (2, 1), (1, 2)), np.zeros(2))
        assert np.allclose(point, [1, 1], atol=1e-9)
        assert abs(dist - math.sqrt(2)) < 1e-9

    def test_flat_orthogonal_drop(self):
        point, dist = metric_projection(flat((0, 1), (1, 0)), np.array([5.0, 7.0]))
        assert np.allclose(point, [5, 1], atol=1e-12)
        assert abs(dist - 6.0) < 1e-12

    def test_subspace_diagonal(self):
        point, dist = metric_projection(span((1, 1)), np.array([2.0, 0.0]))
        assert np.allclose(point, [1, 1], atol=1e-12)
        assert abs(dist - math.sqrt(2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            metric_projection(span((1, 0)), np.zeros(3))

    def test_projection_is_idempotent(self, rng):
        for _ in range(50):
            pts = rng.normal(size=(4, 3)) * 3
            x = rng.normal(size=3) * 5
            p1, _ = metric_projection(Polytope(pts), x)
            p2, d2 = metric_projection(Polytope(pts), p1)
            assert np.linalg.norm(p1 - p2) < 1e-7
            assert d2 < 1e-7

    def test_variational_inequality_on_random_polytopes(self, rng):
        # <z - px, x - px> <= 0 for every generator z
        for _ in range(100):
            pts = rng.normal(size=(5, 3)) * 4
            x = rng.normal(size=3) * 6
            px, _ = metric_projection(Polytope(pts), x)
            assert np.max((pts - px) @ (x - px)) < 1e-8

    def test_nonexpansive_on_random_pairs(self, rng):
        for _ in range(100):
            pts = rng.normal(size=(4, 3)) * 4
            x, y = rng.normal(size=3) * 6, rng.normal(size=3) * 6
            px, _ = metric_projection(Polytope(pts), x)
            py, _ = metric_projection(Polytope(pts), y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9

    def test_agrees_with_brute_force_grid(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(3, 2)) * 3
            x = rng.normal(size=2) * 5
            _, dist = metric_projection(Polytope(pts), x)
            gmin, slack = grid_distance(pts, x)
            assert dist <= gmin + 1e-9
            assert gmin - dist <= slack + 1e-9

    def test_interior_point_where_wolfe_cycles(self):
        # inside a well-conditioned hull, |w|^2 reaches rounding level and
        # the minor cycles then revisit the same corrals: the solver must
        # return there instead of running into its iteration cap
        pts = np.array([
            [0.37412708349705537, -0.5781080271224108, -0.8939917710051213],
            [2.1874630415764944, -0.7836091699414152, 1.016476450873363],
            [0.4976534365341193, 1.3050368365052245, 0.7606889821438557],
            [-0.6207313764033056, -0.04922887102446326, 2.13547113667431],
            [0.07503055655826994, -0.4543047928112338, 0.9097619449220987],
            [0.5733076192555591, 1.7855886674808272, -0.09933696597459739],
            [-1.5589666364169434, -0.7816021446276571, -1.1339217146137925],
        ])
        x = np.array([0.16485277410901572, -0.515809300901755, 0.8406927678836096])
        _, dist = metric_projection(Polytope(pts), x)
        assert dist <= 1e-12
        assert contains(Polytope(pts), x, 1e-12)

    def test_flat_residual_orthogonal_to_direction(self, rng):
        for _ in range(30):
            basis = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
            f = flat(rng.normal(size=4), *basis)
            x = rng.normal(size=4) * 5
            px, _ = metric_projection(f, x)
            assert np.max(np.abs(f.basis @ (x - px))) < 1e-9


class TestNearestPoint:
    def test_subspace_contains_origin(self):
        p, nu = nearest_point(span((1, 0, 0), (0, 1, 0)))
        assert np.allclose(p, 0)
        assert nu == 0

    def test_polytope(self):
        p, nu = nearest_point(poly((1, 1), (2, 1), (1, 2)))
        assert np.allclose(p, [1, 1], atol=1e-9)
        assert abs(nu - math.sqrt(2)) < 1e-9

    def test_flat(self):
        p, nu = nearest_point(flat((0, 3), (1, 0)))
        assert np.allclose(p, [0, 3], atol=1e-12)
        assert abs(nu - 3.0) < 1e-12


class TestProjectHyperplane:
    def test_worked_example(self):
        w = project_hyperplane(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert np.allclose(w, [2, 1], atol=1e-12)

    def test_anchor_is_fixed(self):
        a = np.array([1.0, 2.0, -1.0])
        assert np.allclose(project_hyperplane(a, a), a, atol=1e-12)

    def test_residual_orthogonal_to_hyperplane(self, rng):
        for _ in range(50):
            a = rng.normal(size=3)
            if np.linalg.norm(a) < 0.1:
                continue
            x = rng.normal(size=3) * 4
            w = project_hyperplane(a, x)
            assert abs((w - a) @ a) < 1e-9 * max(1.0, np.linalg.norm(a) ** 2)
            # x - w is parallel to the normal a
            r = x - w
            assert np.linalg.norm(r - (r @ a) / (a @ a) * a) < 1e-9

    def test_zero_normal_rejected(self):
        with pytest.raises(HyperconvexError):
            project_hyperplane(np.zeros(2), np.ones(2))


class TestTruncatedDistance:
    def test_truncation_inactive_on_flat(self):
        d = truncated_distance(flat((0, 5), (1, 0)), np.array([0.5, 0.0]), 8.0)
        assert abs(d - 5.0) < 1e-9

    def test_truncation_active_on_segment(self):
        d = truncated_distance(seg((0, 0), (10, 0)), np.array([11.0, 0.0]), 4.0)
        assert abs(d - 7.0) < 1e-7

    def test_origin_in_both(self):
        assert truncated_distance(span((1, 0)), np.zeros(2), 1.0) == 0.0

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError):
            truncated_distance(flat((0, 5), (1, 0)), np.zeros(2), 3.0)

    def test_matches_plain_distance_when_ball_is_large(self, rng):
        for _ in range(30):
            pts = rng.normal(size=(4, 3)) * 2
            x = rng.normal(size=3) * 3
            _, dist = metric_projection(Polytope(pts), x)
            L = float(np.max(np.linalg.norm(pts, axis=1))) + 1.0
            assert abs(truncated_distance(Polytope(pts), x, L) - dist) < 1e-7


class TestContains:
    def test_polytope_membership(self):
        t = poly((0, 0), (2, 0), (0, 2))
        assert contains(t, np.array([0.5, 0.5]), 1e-9)
        assert not contains(t, np.array([2.0, 2.0]), 1e-9)

    def test_subspace_membership(self):
        v = span((1, 1))
        assert contains(v, np.array([3.0, 3.0]), 1e-9)
        assert not contains(v, np.array([1.0, 0.0]), 1e-9)

    def test_fixed_point_of_projection(self, rng):
        # contains(S, x, tau) forces the projection to return x itself
        for _ in range(40):
            pts = rng.normal(size=(4, 2)) * 3
            w = rng.dirichlet(np.ones(4))
            x = w @ pts
            assert contains(Polytope(pts), x, 1e-9)
            px, _ = metric_projection(Polytope(pts), x)
            assert np.linalg.norm(px - x) < 1e-9


class TestMinNormPoint:
    def test_vertical_segment(self):
        w, dual_gap = min_norm_point(np.array([[3.0, 4.0], [3.0, -4.0]]), 1e-12, 200)
        assert np.allclose(w, [3, 0], atol=1e-9)
        assert dual_gap < 1e-7

    def test_triangle_corner(self):
        w, _ = min_norm_point(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]), 1e-12, 200)
        assert np.allclose(w, [1, 1], atol=1e-9)

    def test_hull_containing_origin(self):
        w, _ = min_norm_point(np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]), 1e-12, 200)
        assert np.linalg.norm(w) < 1e-6


coord = st.floats(-20, 20, allow_nan=False, width=32)


@settings(max_examples=80, deadline=None)
@given(
    pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=5),
    x=st.tuples(coord, coord),
    y=st.tuples(coord, coord),
)
def test_projection_laws_property(pts, x, y):
    s = Polytope(np.array(pts, dtype=float))
    xv, yv = np.array(x, dtype=float), np.array(y, dtype=float)
    px, dx = metric_projection(s, xv)
    py, _ = metric_projection(s, yv)
    assert np.max((s.points - px) @ (xv - px)) < 1e-8
    assert np.linalg.norm(px - py) <= np.linalg.norm(xv - yv) + 1e-8
    assert abs(dx - np.linalg.norm(xv - px)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e8]))
def test_polytope_projection_is_scale_equivariant(seed, c):
    # scaling the hull and the query by c scales the nearest point and the
    # distance by c; below c = 1e-3 the absolute floors of min_norm_point
    # take over
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 10))
    pts, x = rng.normal(size=(m, n)), 2.0 * rng.normal(size=n)
    p1, d1 = metric_projection(Polytope(pts), x)
    pc, dc = metric_projection(Polytope(c * pts), c * x)
    ref = max(float(np.linalg.norm(x)), float(np.linalg.norm(pts, axis=1).max()))
    assert np.abs(pc / c - p1).max() <= 1e-12 * ref
    assert abs(dc / c - d1) <= 1e-12 * ref


# sets in R^2: a polytope on each route, a flat and a subspace
PLANE_SETS = {
    "enumerated": poly((0, 0), (1, 0), (0, 1), (1, 1)),
    "wolfe": poly(*[(np.cos(t), np.sin(t)) for t in np.linspace(0.0, 5.0, 6)]),
    "flat": flat((0, 0.5), (1, 0)),
    "subspace": span((1, 1)),
}


@pytest.mark.parametrize("kind", sorted(PLANE_SETS))
@pytest.mark.parametrize("truncated", [False, True], ids=["distance", "truncated"])
@pytest.mark.parametrize(
    "rows", [[[5.0]], np.ones((3, 1)), np.ones((2, 3)), np.ones((2, 3, 2))], ids=["one", "column", "wide", "stack"]
)
def test_batch_maps_reject_rows_of_the_wrong_shape(kind, truncated, rows):
    # rows of width 1 used to broadcast against the set's two coordinates,
    # rows of width 3 to fail inside numpy with a ValueError, and a 3-D
    # stack to do either
    s = PLANE_SETS[kind]
    if isinstance(s, Polytope):
        assert (_face_pieces(*s.points.shape) > _ENUM_MAX_PIECES) == (kind == "wolfe")
    f = truncated_distance_evaluator(s, 2.0) if truncated else distance_evaluator(s)
    with pytest.raises(DimensionMismatchError):
        f(rows)
    assert f([[0.25, 0.5]]).shape == (1,)
