"""Polytope lifts and the trivialization charts over convex fibers."""

import numpy as np
import pytest

from hyperconvex import (
    ChartDomainError,
    ChartTriple,
    HyperconvexError,
    Subspace,
    base_map,
    chart_convex,
    chart_convex_inv,
    dimension,
    ToleranceConfig,
    gap,
    hausdorff,
    lift_point,
    lift_set,
    orthonormal_basis,
    projection_matrix,
    zero_subspace,
)

from conftest import poly, seg, span

W1 = span((1, 0))
DIAG = span((1, 1))


def same_polytope(a, b, tol=1e-9) -> bool:
    return hausdorff(a, b) < tol


class TestLiftSet:
    def test_segment(self):
        out = lift_set(W1, DIAG, seg((0, 0), (2, 0)))
        assert same_polytope(out, seg((0, 0), (2, 2)))

    def test_identity(self):
        a = seg((0, 0), (2, 0))
        assert same_polytope(lift_set(W1, W1, a), a)

    def test_singleton(self):
        out = lift_set(W1, DIAG, poly((3, 0)))
        assert same_polytope(out, poly((3, 3)))

    def test_section_property(self, rng):
        # projecting the lift back to the base recovers the fiber set
        pw = projection_matrix(W1)
        for _ in range(20):
            pts = np.zeros((3, 2))
            pts[:, 0] = rng.normal(size=3) * 4
            a = poly(*pts)
            lifted = lift_set(W1, DIAG, a)
            shadow = poly(*(lifted.points @ pw.T))
            assert same_polytope(shadow, a)

    def test_rejects_fiber_outside_base(self):
        with pytest.raises(HyperconvexError):
            lift_set(W1, DIAG, seg((0, 1), (2, 1)))


class TestBaseMap:
    def test_diagonal_segment(self):
        assert gap(base_map(seg((1, 1), (2, 2))), DIAG) < 1e-9

    def test_offset_horizontal_segment(self):
        assert gap(base_map(seg((0, 1), (1, 1))), W1) < 1e-9

    def test_retraction_on_subspace(self):
        assert gap(base_map(W1), W1) == 0.0

    def test_singleton_maps_to_zero_subspace(self):
        assert base_map(poly((2, 5))).dim == 0


class TestChartConvex:
    def test_worked_example(self):
        t = ChartTriple(DIAG, np.array([0.0, 3.0]), seg((0, 0), (1, 0)))
        out = chart_convex(W1, t)
        assert same_polytope(out, seg((0, 3), (1, 4)))

    def test_identity_triple(self):
        a = seg((0, 0), (1, 0))
        t = ChartTriple(W1, np.zeros(2), a)
        assert same_polytope(chart_convex(W1, t), a)

    def test_singleton_fiber(self):
        t = ChartTriple(DIAG, np.array([0.0, 3.0]), poly((0, 0)))
        assert same_polytope(chart_convex(W1, t), poly((0, 3)))

    def test_base_equivariance(self):
        t = ChartTriple(DIAG, np.array([0.0, 3.0]), seg((0, 0), (1, 0)))
        out = chart_convex(W1, t)
        assert gap(base_map(out), DIAG) < 1e-9

    def test_dimension_preserved(self):
        t = ChartTriple(DIAG, np.array([0.0, 3.0]), seg((0, 0), (1, 0)))
        assert dimension(chart_convex(W1, t)) == dimension(t.body)

    def test_rejects_offset_outside_complement(self):
        t = ChartTriple(DIAG, np.array([1.0, 0.0]), seg((0, 0), (1, 0)))
        with pytest.raises(ChartDomainError):
            chart_convex(W1, t)


class TestChartConvexInv:
    def test_worked_example(self):
        t = chart_convex_inv(W1, seg((0, 3), (1, 4)))
        assert gap(t.direction, DIAG) < 1e-9
        assert np.allclose(t.offset, [0, 3], atol=1e-9)
        assert same_polytope(t.body, seg((0, 0), (1, 0)))

    def test_subset_of_base(self):
        a = seg((0, 0), (1, 0))
        t = chart_convex_inv(W1, a)
        assert gap(t.direction, W1) < 1e-9
        assert np.allclose(t.offset, 0.0, atol=1e-9)
        assert same_polytope(t.body, a)

    def test_singleton_rejected_by_line_chart(self):
        # a point has a 0-dimensional hull; it belongs to the zero chart
        with pytest.raises(ChartDomainError):
            chart_convex_inv(W1, poly((2, 5)))

    def test_singleton_through_zero_chart(self):
        t = chart_convex_inv(zero_subspace(2), poly((2, 5)))
        assert t.direction.dim == 0
        assert np.allclose(t.offset, [2, 5], atol=1e-9)
        assert same_polytope(t.body, poly((0, 0)))
        assert same_polytope(chart_convex(zero_subspace(2), t), poly((2, 5)))

    def test_outside_domain_rejected(self):
        with pytest.raises(ChartDomainError):
            chart_convex_inv(W1, seg((0, 0), (0, 1)))


class TestRoundTrips:
    def tilted(self, w: Subspace, rng, scale: float = 0.3) -> Subspace:
        return orthonormal_basis(w.basis + scale * rng.normal(size=w.basis.shape))

    def test_inverse_of_forward(self, rng):
        for _ in range(25):
            basis = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
            w = Subspace(basis)
            v = self.tilted(w, rng)
            comp_basis = np.linalg.qr(rng.normal(size=(4, 4)))[0].T
            omega = comp_basis[0] - projection_matrix(w) @ comp_basis[0]
            coords = rng.normal(size=(3, 2)) * 2
            body = poly(*(coords @ w.basis))
            t = ChartTriple(v, omega, body)
            out = chart_convex(w, t)
            back = chart_convex_inv(w, out)
            assert gap(back.direction, v) < 1e-9
            assert np.linalg.norm(back.offset - omega) < 1e-8
            assert hausdorff(back.body, body) < 1e-8

    def test_forward_of_inverse(self, rng):
        for _ in range(25):
            pts = rng.normal(size=(3, 3)) * 2
            b = poly(*pts)
            w = base_map(b)
            if w.dim == 0:
                continue
            t = chart_convex_inv(w, b)
            assert same_polytope(chart_convex(w, t), b, tol=1e-8)

    def test_injectivity_witness(self, rng):
        w = span((1, 0, 0), (0, 1, 0))
        v1 = orthonormal_basis(np.array([[1.0, 0, 0.3], [0, 1.0, 0]]))
        v2 = orthonormal_basis(np.array([[1.0, 0, -0.3], [0, 1.0, 0]]))
        body = poly((0, 0, 0), (1, 0, 0), (0, 1, 0))
        b1 = chart_convex(w, ChartTriple(v1, np.zeros(3), body))
        b2 = chart_convex(w, ChartTriple(v2, np.zeros(3), body))
        assert hausdorff(b1, b2) > 1e-8


class TestZeroDimensionalFiber:
    def test_point_chart_round_trip(self):
        w = zero_subspace(2)
        # a singleton lifts through the zero chart onto itself
        t = chart_convex_inv(w, poly((0.0, 0.0)))
        assert t.direction.dim == 0
        assert same_polytope(chart_convex(w, t), poly((0.0, 0.0)))


class TestLiftSetChecksOncePerBody:
    def test_same_points_as_lift_point(self, rng):
        w = span((1, 0, 0, 0), (0, 1, 0, 0))
        for _ in range(10):
            v = orthonormal_basis(w.basis + 0.3 * rng.normal(size=(2, 4)))
            a = poly(*(rng.normal(size=(6, 2)) @ w.basis * 10 ** rng.uniform(-2, 4)))
            lifted = lift_set(w, v, a).points
            np.testing.assert_array_equal(lifted, [lift_point(w, v, g) for g in a.points])

    def test_errors_keep_their_messages(self):
        w = span((1, 0, 0), (0, 1, 0))
        body = poly((0, 0, 0), (1, 0, 0), (0, 1, 1e-3))
        with pytest.raises(ChartDomainError, match="not in the reference subspace"):
            lift_set(w, w, body)
        # the chart domain holds v, but the chart system has condition 1e13
        v = Subspace(np.array([[1.0, 0, 0], [0, 1e-13, 1.0]]))
        cfg = ToleranceConfig(tau_rank=1e-14)
        with pytest.raises(ChartDomainError, match="too ill-conditioned"):
            lift_set(w, v, poly((0, 0, 0), (1, 0, 0)), cfg)
