"""Hausdorff distance, certified ball suprema, and the Attouch-Wets metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    AWParams,
    DimensionMismatchError,
    HyperconvexError,
    Interval,
    attouch_wets,
    aw_origin,
    gap,
    hausdorff,
    random_instance,
    sup_distance_gap,
    translate,
    truncated_hausdorff,
)

from conftest import poly, seg, span

SQ = poly((0, 0), (1, 0), (0, 1), (1, 1))


class TestInterval:
    def test_orders_endpoints(self):
        iv = Interval(1.0, 2.0)
        assert iv.width == 1.0 and iv.mid == 1.5

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_contains_and_overlaps(self):
        a, b = Interval(0.0, 1.0), Interval(0.5, 2.0)
        assert a.contains(1.0) and not a.contains(1.1)
        assert a.overlaps(b) and not a.overlaps(Interval(1.5, 2.0))

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.floats(-1e6, 1e6, allow_nan=False),
        w=st.floats(0, 1e6, allow_nan=False),
    )
    def test_width_nonnegative(self, lo, w):
        iv = Interval(lo, lo + w)
        assert iv.lo <= iv.hi


class TestHausdorff:
    def test_perpendicular_segments(self):
        assert abs(hausdorff(seg((0, 0), (1, 0)), seg((0, 0), (0, 1))) - 1.0) < 1e-12

    def test_identity(self):
        assert hausdorff(SQ, SQ) == 0.0

    def test_translated_square(self):
        assert abs(hausdorff(SQ, translate(SQ, np.array([0.5, 0.0]))) - 0.5) < 1e-12

    def test_symmetry(self, rng):
        for _ in range(30):
            a = poly(*rng.normal(size=(4, 3)))
            b = poly(*rng.normal(size=(3, 3)))
            assert hausdorff(a, b) == hausdorff(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            a, b, c = (poly(*rng.normal(size=(4, 2)) * 3) for _ in range(3))
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9

    def test_translation_upper_bound(self, rng):
        # d_H(A, A + v) <= ||v||, with equality for translates of compact sets
        for _ in range(20):
            a = poly(*rng.normal(size=(5, 3)))
            v = rng.normal(size=3)
            assert hausdorff(a, translate(a, v)) <= np.linalg.norm(v) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff(SQ, poly((0, 0, 0)))


class TestSupDistanceGap:
    def test_identical_sets(self):
        iv = sup_distance_gap(SQ, SQ, 2.0, 1e-3)
        assert iv.lo == 0.0 and iv.hi <= 1e-3
        assert iv.certified

    def test_separated_singletons(self):
        iv = sup_distance_gap(poly((0, 0)), poly((1, 0)), 1.0, 1e-3)
        assert iv.contains(1.0)
        assert iv.width <= 1e-3

    def test_orthogonal_axes_match_gap(self):
        v, w = span((1, 0)), span((0, 1))
        iv = sup_distance_gap(v, w, 1.0, 1e-3)
        assert iv.contains(1.0, slack=1e-9)
        assert iv.contains(gap(v, w), slack=1e-3)

    def test_monotone_in_radius(self):
        a, b = seg((0, 0), (10, 0)), seg((0, 0), (20, 0))
        prev = 0.0
        for r in (1.0, 5.0, 11.0, 25.0):
            iv = sup_distance_gap(a, b, r, 1e-4)
            assert iv.hi >= prev - 1e-9
            prev = iv.lo

    def test_two_lipschitz_bound(self, rng):
        # sup over r-ball of |d(.,A) - d(.,B)| is bounded by d_H(A, B)
        for _ in range(10):
            a = poly(*rng.normal(size=(4, 2)) * 2)
            b = poly(*rng.normal(size=(4, 2)) * 2)
            iv = sup_distance_gap(a, b, 3.0, 1e-3)
            assert iv.lo <= hausdorff(a, b) + 1e-9


class TestAttouchWets:
    def test_identity(self):
        iv = attouch_wets(SQ, SQ)
        assert iv.lo == 0.0 and iv.hi <= 1e-6

    def test_worked_segment_pair(self):
        iv = attouch_wets(seg((0, 0), (10, 0)), seg((0, 0), (20, 0)))
        assert iv.contains(1.0 / 11.0, slack=1e-12)
        assert iv.width <= 1e-3
        assert iv.certified

    def test_shrinking_translation_probe(self):
        a = poly((0, 0))
        values = []
        for t in (0.5, 0.1, 0.02, 0.004):
            iv = attouch_wets(a, poly((t, 0)))
            assert iv.hi <= t + 1e-3  # dominated by the j=1 ball term
            values.append(iv.hi)
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.01

    def test_symmetry(self, rng):
        for seed in range(8):
            a = random_instance("gaussian-polytope", 2, 2, seed)
            b = random_instance("gaussian-polytope", 2, 2, seed + 100)
            ab, ba = attouch_wets(a, b), attouch_wets(b, a)
            assert ab.overlaps(ba, slack=1e-9)

    def test_triangle_inequality(self):
        for seed in range(6):
            a = random_instance("gaussian-polytope", 2, 1, seed)
            b = random_instance("gaussian-polytope", 2, 1, seed + 50)
            c = random_instance("gaussian-polytope", 2, 1, seed + 900)
            ab, bc, ac = attouch_wets(a, b), attouch_wets(b, c), attouch_wets(a, c)
            assert ac.lo <= ab.hi + bc.hi + 1e-9

    def test_bounded_by_one_over_j_envelope(self, rng):
        # every term is min(1/j, s_j) <= 1, so d_AW <= 1
        for seed in range(6):
            a = random_instance("gaussian-polytope", 2, 2, seed)
            b = random_instance("random-flat", 2, 1, seed)
            assert attouch_wets(a, b).hi <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            attouch_wets(SQ, poly((0, 0, 0)))


class TestAwOrigin:
    def test_identity_subspace(self):
        iv = aw_origin(span((1, 0)), span((1, 0)))
        assert iv.lo == 0.0 and iv.hi <= 1e-6

    def test_worked_segment_pair(self):
        iv = aw_origin(seg((0, 0), (10, 0)), seg((0, 0), (20, 0)))
        assert iv.contains(1.0 / 11.0, slack=1e-12)
        assert iv.width <= 1e-3

    def test_diagonal_line_lower_bound(self):
        # theta = sin(45 deg); the j=1 ball term already reaches min(1, theta)
        iv = aw_origin(span((1, 0)), span((1, 1)))
        theta = math.sin(math.pi / 4)
        assert iv.lo >= min(1.0, theta) - 1e-3
        assert iv.hi <= 1.0 + 1e-9

    def test_rejects_sets_missing_origin(self):
        with pytest.raises(HyperconvexError):
            aw_origin(poly((5, 5)), seg((0, 0), (1, 0)))

    def test_agrees_with_attouch_wets(self):
        for seed in range(10):
            a = random_instance("gaussian-polytope", 2, 2, seed)
            b = random_instance("gaussian-polytope", 2, 2, seed + 77)
            a = translate(a, -a.points.mean(axis=0))
            b = translate(b, -b.points.mean(axis=0))
            assert aw_origin(a, b).overlaps(attouch_wets(a, b), slack=1e-9)


class TestThresholdRules:
    def test_ball_gap_below_metric_on_worked_pair(self):
        # d_AW = 1/11 < 0.095 <= 1/10 forces s_10 <= d_AW
        a, b = seg((0, 0), (10, 0)), seg((0, 0), (20, 0))
        ab = attouch_wets(a, b)
        assert ab.hi < 0.095
        s10 = sup_distance_gap(a, b, 10.0, 1e-4)
        assert s10.lo <= ab.hi + 1e-9

    def test_truncated_hausdorff_certifies_cut_value(self):
        # at j = 11 the truncated Hausdorff distance of the pair is exactly 1
        a, b = seg((0, 0), (10, 0)), seg((0, 0), (20, 0))
        iv = truncated_hausdorff(a, b, 11.0, 1e-3)
        assert iv.contains(1.0, slack=1e-3)

    def test_truncated_hausdorff_of_equal_polytopes_computes_no_distance(self, monkeypatch):
        import hyperconvex.hypermetrics as hm

        def no_hausdorff(a, b, tol=None):
            raise AssertionError("hausdorff called on an equal pair")

        monkeypatch.setattr(hm, "hausdorff", no_hausdorff)
        a = poly((-1, -1), (2, 0), (0, 3))
        iv = truncated_hausdorff(a, poly((-1, -1), (2, 0), (0, 3)), 1.0)
        assert (iv.lo, iv.hi, iv.certified) == (0.0, 0.0, True)


coord = st.floats(-10, 10, allow_nan=False, width=32)


@settings(max_examples=40, deadline=None)
@given(
    pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=4),
    shift=st.tuples(coord, coord),
)
def test_attouch_wets_translate_bounded_by_shift(pts, shift):
    a = poly(*pts)
    v = np.array(shift, dtype=float)
    iv = attouch_wets(a, translate(a, v))
    assert iv.lo <= min(1.0, float(np.linalg.norm(v))) + 1e-9
