"""Certified sups search only the spheres that close their shells: the sup
of |d_A - d_B| over a ball is reached on its sphere, so ball_sup keeps only
the cubes that meet a live sphere.  These tests check that no point of the
ball, off those spheres or just inside them, scores above the estimate's
upper bound, for one shell (sup_distance_gap, truncated_hausdorff) and for
the unit shells of the Attouch-Wets metric, including a pair whose sup sits
on an inner sphere, and for weights in any order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import AWParams, Flat, Polytope, Subspace, attouch_wets, sup_distance_gap, truncated_hausdorff

import hyperconvex.hypermetrics as hm
from hyperconvex.hypermetrics import _Pair

from test_ball_bounds import CFG, _frame, _in_ball, _library_gap, origin_probe

KINDS = ("polytope", "flat", "subspace")
# distances on the face-enumeration route and the flat closed forms are
# exact to rounding, so a sample may pass hi by no more than this
SLACK = 1e-9


def _set(rng, kind, n, radius, inside, origin):
    """A polytope (scaled into 0.9 of the ball when inside), a flat or a
    subspace in R^n; with origin, each contains the origin."""
    if kind == "subspace":
        return Subspace(_frame(rng, n, int(rng.integers(0, n))))
    if kind == "flat":
        basis = _frame(rng, n, int(rng.integers(0, n)))
        base = rng.normal(size=basis.shape[0]) @ basis if origin else rng.normal(size=n)
        return Flat(base, basis)
    pts = rng.normal(size=(int(rng.integers(1, 5)), n))
    if origin:
        pts -= pts.mean(axis=0)
    if inside:
        pts *= 0.9 * radius / max(float(np.linalg.norm(pts, axis=1).max()), 1e-300)
    return Polytope(pts)


def _interior_samples(rng, n, radius, spheres):
    """Uniform points of the open radius-ball, and points 1e-9 inside each
    sphere |x| = l radius / spheres, l = 1..spheres."""
    u = rng.normal(size=(200, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = radius / spheres * np.arange(1.0, spheres + 1.0) - 1e-9
    return np.concatenate([_in_ball(rng, n, 400, radius * (1.0 - 1e-9)), (radii[:, None, None] * u).reshape(-1, n)])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 4),
    inside=st.booleans(),
    metric=st.sampled_from(["sup_distance_gap", "truncated_hausdorff", "attouch_wets", "ball_sup"]),
)
def test_no_interior_sample_scores_above_the_sup(seed, kinds, n, inside, metric):
    rng = np.random.default_rng(seed)
    radius = float(rng.integers(2, 5)) if metric == "attouch_wets" else float(rng.uniform(0.5, 3.0))
    a, b = (_set(rng, kind, n, radius, inside, metric == "truncated_hausdorff") for kind in kinds)
    if metric == "attouch_wets":
        # unit shells up to j_cap = radius
        w = 1.0 / np.arange(1.0, radius + 1.0)
        hi = attouch_wets(a, b, AWParams(eps_sup=1e-2, j_cap=int(radius), budget=200_000)).hi
    elif metric == "ball_sup":
        # weights in any order on 1-5 shells and one probe at the origin, so
        # that the cubes must find the sup on whichever sphere holds it
        w = rng.uniform(0.0, 1.5, int(rng.integers(1, 6)))
        with origin_probe(n):
            hi = hm.ball_sup(_Pair(a, b, CFG), radius, 1e-2, budget=200_000, weights=w).hi
    else:
        # one shell: the plain sup of the gap, which the truncated Hausdorff
        # distance of origin-containing sets equals
        w = np.array([np.inf])
        fn = sup_distance_gap if metric == "sup_distance_gap" else truncated_hausdorff
        hi = fn(a, b, radius, 1e-2, budget=200_000).hi
    X = _interior_samples(rng, n, radius, len(w))
    shells = np.clip(np.ceil(np.linalg.norm(X, axis=1) * len(w) / radius) - 1, 0, len(w) - 1).astype(int)
    assert (np.minimum(w[shells], _library_gap(a, b, X)) <= hi + SLACK).all()


def test_sup_on_an_inner_sphere_is_found():
    # the benchmark's nearby lines in R^3, on the standard frame: the gap on
    # the 4-sphere passes 1/5, which bounds phi past it, so the sup sits on
    # the 4-sphere, deep inside the j_cap-ball
    F = np.eye(3)
    a = Flat(0.5 * F[1], F[:1])
    b = Flat(0.5 * F[1] + 0.05 * F[2], (math.cos(0.05) * F[0] + math.sin(0.05) * F[1])[None, :])
    iv = attouch_wets(a, b, AWParams(eps_sup=1e-3, budget=300_000))
    assert iv.certified
    rng = np.random.default_rng(0)
    u = rng.normal(size=(20_000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    on_four = min(0.25, float(_library_gap(a, b, (4.0 - 1e-9) * u).max()))
    assert 0.2 + 1e-3 < on_four <= iv.hi + SLACK
    X = _interior_samples(rng, 3, 6.0, 6)
    score = np.minimum(1.0 / np.maximum(1.0, np.ceil(np.linalg.norm(X, axis=1))), _library_gap(a, b, X))
    assert score.max() <= iv.hi + SLACK
