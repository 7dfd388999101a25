"""Subspace gap metric, complements, chart domains, and flat charts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    AWParams,
    ChartDomainError,
    HyperconvexError,
    Subspace,
    aw_origin,
    chart_flat,
    chart_flat_inv,
    gap,
    gap_direct,
    in_chart_domain,
    lift_point,
    metric_projection,
    orthogonal_complement,
    orthonormal_basis,
    parallel_subspace,
    projection_matrix,
    random_instance,
    truncated_hausdorff,
    zero_subspace,
)
from hyperconvex.hypermetrics import _gap_caps, _spectral
from hyperconvex.projection import _ROUNDING
from hyperconvex.suites import _principal_angle_gap

from conftest import flat, span

W1 = span((1, 0))
DIAG = span((1, 1))


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    if k == 0:
        return zero_subspace(n)
    return random_instance("uniform-subspace", n, k, seed)


class TestOrthonormalBasis:
    def test_rescales(self):
        v = orthonormal_basis(np.array([[2.0, 0.0]]))
        assert np.allclose(np.abs(v.basis), [[1, 0]])

    def test_drops_dependent_input(self):
        v = orthonormal_basis(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert v.dim == 1
        assert gap(v, DIAG) < 1e-12

    def test_gram_schmidt_pair(self):
        v = orthonormal_basis(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        assert v.dim == 2
        assert gap(v, span((1, 0, 0), (0, 1, 0))) < 1e-12

    def test_zero_span_rejected(self):
        with pytest.raises(HyperconvexError):
            orthonormal_basis(np.zeros((2, 3)))


class TestOrthogonalComplement:
    def test_axis_in_three_dims(self):
        c = orthogonal_complement(span((1, 0, 0)))
        assert c.dim == 2
        assert gap(c, span((0, 1, 0), (0, 0, 1))) < 1e-12

    def test_full_space(self):
        c = orthogonal_complement(span((1, 0), (0, 1)))
        assert c.dim == 0

    def test_diagonal(self):
        c = orthogonal_complement(DIAG)
        assert gap(c, span((1, -1))) < 1e-12

    def test_pairwise_orthogonality(self, rng):
        for seed in range(20):
            v = random_subspace(5, int(rng.integers(0, 6)), seed)
            c = orthogonal_complement(v)
            assert v.dim + c.dim == 5
            if v.dim and c.dim:
                assert np.max(np.abs(v.basis @ c.basis.T)) < 1e-9


class TestGap:
    def test_identity(self):
        assert gap(W1, W1) == 0.0
        assert gap(DIAG, DIAG) < 1e-12

    def test_orthogonal_axes(self):
        assert abs(gap(W1, span((0, 1))) - 1.0) < 1e-12

    def test_thirty_degrees(self):
        w = span((math.cos(math.pi / 6), math.sin(math.pi / 6)))
        assert abs(gap(W1, w) - 0.5) < 1e-12

    def test_range_and_symmetry(self):
        for seed in range(25):
            v = random_subspace(4, seed % 5, seed)
            w = random_subspace(4, (seed + 2) % 5, seed + 1000)
            th = gap(v, w)
            assert 0.0 <= th <= 1.0
            assert th == gap(w, v)

    def test_triangle_inequality(self):
        for seed in range(25):
            v = random_subspace(4, 2, seed)
            w = random_subspace(4, 2, seed + 100)
            u = random_subspace(4, 2, seed + 200)
            assert gap(v, u) <= gap(v, w) + gap(w, u) + 1e-9

    def test_complement_isometry(self):
        for seed in range(25):
            v = random_subspace(5, seed % 6, seed)
            w = random_subspace(5, (seed + 3) % 6, seed + 500)
            assert abs(gap(v, w) - gap(orthogonal_complement(v), orthogonal_complement(w))) < 1e-9

    def test_unequal_dims_force_gap_one(self):
        for seed in range(10):
            v = random_subspace(4, 1, seed)
            w = random_subspace(4, 3, seed + 40)
            assert abs(gap(v, w) - 1.0) < 1e-9


class TestGapDirect:
    def test_identity(self):
        iv = gap_direct(DIAG, DIAG, 1e-3)
        assert iv.lo == 0.0 and iv.hi <= 1e-3

    def test_orthogonal_axes(self):
        assert gap_direct(W1, span((0, 1)), 1e-3).contains(1.0, slack=1e-9)

    def test_thirty_degrees(self):
        w = span((math.cos(math.pi / 6), math.sin(math.pi / 6)))
        iv = gap_direct(W1, w, 1e-3)
        assert iv.contains(0.5, slack=1e-9)
        assert abs(gap(W1, w) - iv.mid) <= 1e-3 + iv.width

    def test_oracle_agreement_random(self):
        for seed in range(15):
            v = random_subspace(4, 1 + seed % 3, seed)
            w = random_subspace(4, 1 + (seed + 1) % 3, seed + 60)
            iv = gap_direct(v, w, 1e-3)
            assert abs(gap(v, w) - iv.mid) <= 1e-3 + iv.width + 1e-9


class TestProjectionMatrix:
    def test_laws(self):
        for seed in range(15):
            v = random_subspace(5, seed % 6, seed)
            p = projection_matrix(v)
            assert np.max(np.abs(p - p.T)) < 1e-9
            assert np.max(np.abs(p @ p - p)) < 1e-9
            q = projection_matrix(orthogonal_complement(v))
            assert np.max(np.abs(p + q - np.eye(5))) < 1e-9
            assert abs(np.trace(p) - v.dim) < 1e-8


class TestChartDomain:
    def test_diagonal_is_visible_from_axis(self):
        assert in_chart_domain(W1, DIAG)

    def test_orthogonal_axis_is_not(self):
        assert not in_chart_domain(W1, span((0, 1)))

    def test_reflexive(self):
        assert in_chart_domain(W1, W1)

    def test_dimension_mismatch(self):
        with pytest.raises(HyperconvexError):
            in_chart_domain(W1, span((1, 0), (0, 1)))


class TestLiftPoint:
    def test_worked_example(self):
        assert np.allclose(lift_point(W1, DIAG, np.array([3.0, 0.0])), [3, 3], atol=1e-12)

    def test_identity_lift(self):
        assert np.allclose(lift_point(W1, W1, np.array([2.0, 0.0])), [2, 0])

    def test_zero_maps_to_zero(self):
        assert np.allclose(lift_point(W1, DIAG, np.zeros(2)), 0.0)

    def test_section_and_linearity(self, rng):
        w = random_subspace(4, 2, 3)
        v = orthonormal_basis(w.basis + 0.2 * rng.normal(size=(2, 4)))
        assert in_chart_domain(w, v)
        pw = projection_matrix(w)
        for _ in range(10):
            a, b = pw @ rng.normal(size=4), pw @ rng.normal(size=4)
            la, lb = lift_point(w, v, a), lift_point(w, v, b)
            assert np.linalg.norm(pw @ la - a) < 1e-9
            assert np.linalg.norm(lift_point(w, v, a + b) - la - lb) < 1e-9
            assert np.linalg.norm(lift_point(w, v, 2.5 * a) - 2.5 * la) < 1e-9

    def test_outside_domain_rejected(self):
        with pytest.raises(ChartDomainError):
            lift_point(W1, span((0, 1)), np.array([1.0, 0.0]))


class TestParallelSubspace:
    def test_horizontal_line(self):
        v, p = parallel_subspace(flat((0, 1), (1, 0)))
        assert gap(v, W1) < 1e-12
        assert np.allclose(p, [0, 1], atol=1e-12)

    def test_retraction_on_subspace(self):
        v, p = parallel_subspace(W1)
        assert gap(v, W1) == 0.0
        assert np.allclose(p, 0.0)

    def test_diagonal_line_through_zero_one(self):
        v, p = parallel_subspace(flat((0, 1), (1, 1)))
        assert gap(v, DIAG) < 1e-12
        assert np.allclose(p, [-0.5, 0.5], atol=1e-12)


class TestChartFlat:
    def test_forward(self):
        f = chart_flat(W1, DIAG, np.array([0.0, 2.0]))
        assert np.allclose(f.base, [0, 2])
        assert gap(Subspace(f.basis), DIAG) < 1e-12

    def test_identity_chart(self):
        f = chart_flat(W1, W1, np.zeros(2))
        v, p = parallel_subspace(f)
        assert gap(v, W1) < 1e-12
        assert np.allclose(p, 0.0)

    def test_forward_matches_parallel_subspace(self):
        f = chart_flat(W1, DIAG, np.array([0.0, 1.0]))
        v, p = parallel_subspace(f)
        assert gap(v, DIAG) < 1e-12
        assert np.allclose(p, [-0.5, 0.5], atol=1e-12)

    def test_rejects_offset_outside_complement(self):
        with pytest.raises(HyperconvexError):
            chart_flat(W1, DIAG, np.array([1.0, 0.0]))


class TestChartFlatInv:
    def test_worked_example(self):
        v, omega = chart_flat_inv(W1, flat((0, 1), (1, 1)))
        assert gap(v, DIAG) < 1e-12
        assert np.allclose(omega, [0, 1], atol=1e-12)

    def test_subspace_input(self):
        v, omega = chart_flat_inv(W1, W1)
        assert gap(v, W1) < 1e-12
        assert np.allclose(omega, 0.0)

    def test_horizontal_line(self):
        v, omega = chart_flat_inv(W1, flat((0, 3), (1, 0)))
        assert gap(v, W1) < 1e-12
        assert np.allclose(omega, [0, 3], atol=1e-12)

    def test_outside_domain_rejected(self):
        with pytest.raises(ChartDomainError):
            chart_flat_inv(W1, flat((0, 3), (0, 1)))

    def test_round_trips(self, rng):
        for seed in range(20):
            w = random_subspace(4, 2, seed)
            v = orthonormal_basis(w.basis + 0.3 * rng.normal(size=(2, 4)))
            if not in_chart_domain(w, v):
                continue
            comp = orthogonal_complement(w)
            omega = comp.basis.T @ rng.normal(size=comp.dim)
            f = chart_flat(w, v, omega)
            v2, omega2 = chart_flat_inv(w, f)
            assert gap(v, v2) < 1e-9
            assert np.linalg.norm(omega - omega2) < 1e-9
            # forward of the recovered pair lands back on f
            f2 = chart_flat(w, v2, omega2)
            _, dist = metric_projection(f, f2.base)
            assert dist < 1e-9


angle = st.floats(0.01, math.pi / 2 - 0.01)


@settings(max_examples=60, deadline=None)
@given(alpha=angle)
def test_gap_of_planar_lines_is_sine_of_angle(alpha):
    w = span((math.cos(alpha), math.sin(alpha)))
    assert abs(gap(W1, w) - math.sin(alpha)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    kv=st.integers(0, 8),
    kw=st.integers(0, 8),
    tilt=st.floats(-8.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_is_one_formula_held_to_principal_angles(n, kv, kw, tilt, seed):
    # w is v's first rows (or a frame's further ones) moved by 10^tilt
    # random steps, so equal dimensions give angles from 1e-8 to about 1
    rng = np.random.default_rng(seed)
    kv, kw = min(kv, n), min(kw, n)
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0].T
    v = Subspace(frame[:kv])
    rows = frame[:kw] + 10.0**tilt * rng.normal(size=(kw, n))
    w = Subspace(np.linalg.qr(rows.T)[0].T if kw else rows)
    g = gap(v, w)
    assert abs(g - _principal_angle_gap(v, w)) <= 1e-6
    assert abs(g - gap(w, v)) <= 1e-15
    assert gap(v, v) == gap(w, w) == 0.0
    if kv != kw:
        # the SVD's backward error: 1 - 1.3e-15 was seen at n = 3
        assert abs(g - 1.0) <= 4 * n * np.finfo(float).eps
    elif g < 1.0:
        # the flat caps read the same number, and the spectral route
        # encloses it, widened for rounding and for bases orthonormal only
        # to rounding (QR frames here) by no more than rounding
        assert _gap_caps(v, w)[1](1.0) == g
        lo, hi = _spectral(v, w, 1.0)
        assert lo <= g <= hi
        assert hi - lo <= 2 * _ROUNDING * (n * n + 2 * n)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_spectral_intervals_hold_both_formulas_of_the_gap(n, k, seed):
    # ||P_v - P_w|| and the larger of ||B_v (I - P_w)||, ||B_w (I - P_v)||
    # are one number, but round apart by a few ulps; the intervals of the
    # spectral route hold both, times the radius
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    v, w = (Subspace(np.linalg.qr(rng.normal(size=(n, k)))[0].T) for _ in range(2))
    sides = [s.basis @ (np.eye(n) - t.basis.T @ t.basis) for s, t in ((v, w), (w, v))]
    two_products = max(float(np.linalg.norm(m, 2)) for m in sides)
    r = float(rng.uniform(0.5, 4.0))
    th, direct, aw = truncated_hausdorff(v, w, r), gap_direct(v, w), aw_origin(v, w, AWParams(j_cap=1))
    for value in (two_products, gap(v, w)):
        assert th.lo <= r * value <= th.hi
        assert direct.lo <= value <= direct.hi
        # the j = 1 term, min(1, gap), and at most 1/2 past j_cap
        assert aw.lo <= min(1.0, value) <= aw.hi


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_equal_subspaces_read_zero_on_the_spectral_route(k):
    basis = np.linalg.qr(np.random.default_rng(k).normal(size=(3, 3)))[0].T[:k]
    for v, w in ((Subspace(basis), Subspace(basis)), (Subspace(basis), Subspace(-basis))):
        for iv in (truncated_hausdorff(v, w, 2.0), gap_direct(v, w), aw_origin(v, w)):
            assert (iv.lo, iv.hi) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_unequal_dimensions_read_the_radius_exactly(seed):
    # a line and a plane in R^3, or a plane and R^3: the gap is exactly 1
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
    k = 1 + seed % 2
    v, w = Subspace(frame[:k]), Subspace(np.linalg.qr(rng.normal(size=(3, k + 1)))[0].T)
    th, direct = truncated_hausdorff(v, w, 2.5), gap_direct(v, w)
    assert (th.lo, th.hi, direct.lo, direct.hi) == (2.5, 2.5, 1.0, 1.0)
