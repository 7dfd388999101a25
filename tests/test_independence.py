"""Affine independence certificates and simplex interior tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    HyperconvexError,
    adversarial_independence_check,
    barycentric_coordinates,
    in_relative_interior,
    independence_radius,
    is_affinely_independent,
)

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestIsAffinelyIndependent:
    def test_standard_triangle(self):
        assert is_affinely_independent(TRIANGLE)

    def test_collinear_on_axis(self):
        assert not is_affinely_independent(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_collinear_diagonal(self):
        assert not is_affinely_independent(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))

    def test_single_point(self):
        assert is_affinely_independent(np.array([[4.0, 2.0]]))

    def test_too_many_points(self):
        pts = np.vstack([TRIANGLE, [[0.5, 0.5]]])
        assert not is_affinely_independent(pts)


class TestIndependenceRadius:
    def test_right_triangle(self):
        assert abs(independence_radius(TRIANGLE) - 1.0 / (4.0 * math.sqrt(2))) < 1e-12

    def test_unit_segment(self):
        assert abs(independence_radius(np.array([[0.0, 0.0], [1.0, 0.0]])) - 0.25) < 1e-12

    def test_dependent_family_rejected(self):
        with pytest.raises(HyperconvexError):
            independence_radius(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_single_point_sentinel(self):
        assert independence_radius(np.array([[3.0, 1.0]])) == math.inf

    def test_scales_linearly(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(3, 3)) * 2
            if not is_affinely_independent(pts):
                continue
            c = float(rng.uniform(0.1, 10.0))
            assert abs(independence_radius(c * pts) - c * independence_radius(pts)) < 1e-9 * c


class TestAdversarialCheck:
    def test_certified_radius_is_sound(self):
        delta = independence_radius(TRIANGLE)
        report = adversarial_independence_check(TRIANGLE, delta, 10_000, 42)
        assert report.passed
        assert report.trials == 10_000

    def test_oversized_radius_fails(self):
        report = adversarial_independence_check(TRIANGLE, 0.6, 10_000, 42)
        assert not report.passed

    def test_zero_trials(self):
        report = adversarial_independence_check(TRIANGLE, 0.1, 0, 7)
        assert report.passed and report.trials == 0
        assert report.dim == 2

    def test_deterministic(self):
        a = adversarial_independence_check(TRIANGLE, 0.6, 2_000, 3)
        b = adversarial_independence_check(TRIANGLE, 0.6, 2_000, 3)
        assert len(a.failures) == len(b.failures)
        assert a.to_dict()["failures"] == b.to_dict()["failures"]


class TestInRelativeInterior:
    def test_centroid(self):
        assert in_relative_interior(TRIANGLE, np.array([1 / 3, 1 / 3]))

    def test_vertex_is_boundary(self):
        assert not in_relative_interior(TRIANGLE, np.zeros(2))

    def test_edge_midpoint_is_boundary(self):
        assert not in_relative_interior(TRIANGLE, np.array([0.5, 0.0]))

    def test_point_off_hull(self):
        seg2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert not in_relative_interior(seg2, np.array([0.5, 0.3]))

    def test_interior_of_embedded_segment(self):
        seg3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        assert in_relative_interior(seg3, np.array([0.4, 0.0, 1.0]))


class TestBarycentricCoordinates:
    def test_centroid(self):
        lam = barycentric_coordinates(TRIANGLE, np.array([1 / 3, 1 / 3]))
        assert np.allclose(lam, 1 / 3, atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(30):
            pts = rng.normal(size=(4, 5)) * 3
            if not is_affinely_independent(pts):
                continue
            lam = rng.dirichlet(np.ones(4))
            x = lam @ pts
            got = barycentric_coordinates(pts, x)
            assert abs(got.sum() - 1.0) < 1e-9
            assert np.linalg.norm(got @ pts - x) < 1e-9

    def test_off_hull_rejected(self):
        seg2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(HyperconvexError):
            barycentric_coordinates(seg2, np.array([0.5, 0.4]))

    def test_dependent_family_rejected(self):
        with pytest.raises(HyperconvexError):
            barycentric_coordinates(np.array([[0.0, 0.0], [0.0, 0.0]]), np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(0.05, 20, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_radius_certificate_survives_worst_unit_perturbations(scale, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(3, 2)) * scale
    if not is_affinely_independent(pts):
        return
    delta = independence_radius(pts)
    shifts = rng.normal(size=pts.shape)
    shifts *= (delta * 0.999) / np.linalg.norm(shifts, axis=1, keepdims=True)
    assert is_affinely_independent(pts + shifts)


def _factorizations(monkeypatch):
    """Count np.linalg.svd and np.linalg.lstsq calls."""
    calls = {"svd": 0, "lstsq": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda: independence_radius(TRIANGLE),
        lambda: in_relative_interior(TRIANGLE, np.array([0.2, 0.3])),
        lambda: in_relative_interior(TRIANGLE, np.array([0.2, 0.9])),
        lambda: barycentric_coordinates(TRIANGLE, np.array([0.2, 0.3])),
    ],
    ids=["radius", "interior", "outside", "barycentric"],
)
def test_one_svd_per_call(monkeypatch, call):
    # the independence test and the radius or coordinates read one SVD of
    # the difference matrix
    calls = _factorizations(monkeypatch)
    call()
    assert calls == {"svd": 1, "lstsq": 0}


def test_adversarial_check_factors_the_family_once(monkeypatch):
    # the family's difference matrix once for its floor, the structured
    # probe's centred points once (delta is too small to flatten onto the
    # fitted line), and one stacked SVD for the single block of trials
    calls = _factorizations(monkeypatch)
    adversarial_independence_check(TRIANGLE, 1e-3, 10, 5)
    assert calls == {"svd": 3, "lstsq": 0}
