"""The line route of ball_sup: a pair whose common span is a line takes its
sup in closed form, at the ends of both sets' intervals on the line and the
spheres between the shells.  It is checked against dense samples of the
full ball, points off the line included, against the cube search it
replaces, and for building nothing the cube search builds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperconvex.hypermetrics as hm
import hyperconvex.projection as projection
from hyperconvex import (
    AWParams,
    Flat,
    Polytope,
    Subspace,
    attouch_wets,
    aw_origin,
    sup_distance_gap,
    truncated_hausdorff,
    zero_subspace,
)
from hyperconvex.hypermetrics import _Pair

from test_ball_bounds import CFG, _frame, _gap, _in_ball

FAMILIES = ("segments", "points", "line-segment")


def _collinear_pair(rng, n, scale, family, off):
    """Two sets on the line of a random unit vector u of R^n, at coordinates
    of about scale along it: two segments, two points (a zero-length
    segment and a point flat), or a flat or subspace on the whole line and a
    segment.  Polytope points move up to off away from the line, along a
    unit vector orthogonal to u."""
    u, v = _frame(rng, n, 2)

    def points(t):
        return t[:, None] * u + off * rng.uniform(-1.0, 1.0, size=(t.size, 1)) * v

    segment = Polytope(points(scale * rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 5)))))
    if family == "segments":
        return Polytope(points(scale * rng.uniform(-3.0, 3.0, size=2))), segment
    if family == "points":
        return Polytope(points(np.full(2, scale * rng.uniform(-3.0, 3.0)))), Flat(scale * rng.uniform(-3.0, 3.0) * u, np.zeros((0, n)))
    line = Subspace(u[None]) if rng.random() < 0.5 else Flat(scale * rng.uniform(-3.0, 3.0) * u, u[None])
    return line, segment


def _samples(rng, pair, radius, shells):
    """Uniform points of the radius-ball, and points of the line at each set
    end and 1e-12 inside each side of each sphere between the shells, where
    the gap on the line turns or its weight steps."""
    u = pair.span[0][0]
    ends = pair.line.ends[np.isfinite(pair.line.ends)]
    spheres = radius / shells * np.arange(shells + 1.0)
    t = np.concatenate([ends, spheres * (1.0 - 1e-12), spheres[:-1] * (1.0 + 1e-12)])
    t = np.concatenate([t, -t])
    t = t[np.abs(t) <= radius]
    return np.concatenate([_in_ball(rng, u.size, 200, radius), t[:, None] * u])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
    family=st.sampled_from(FAMILIES),
    nearly=st.booleans(),
    weighted=st.booleans(),
)
# spheres on the ends of the cube search's first cubes, where a sphere meets
# no cube's inside
@example(seed=756309745, n=2, scale=1.0, family="segments", nearly=False, weighted=True)
def test_line_sup_encloses_dense_samples_and_the_cube_search(seed, n, scale, family, nearly, weighted):
    rng = np.random.default_rng(seed)
    a, b = _collinear_pair(rng, n, scale, family, 1e-13 if nearly else 0.0)
    pair = _Pair(a, b, CFG)
    assert pair.line is not None
    if nearly and family != "line-segment":
        # the points off the line are cut by the rank cut, which widens
        assert pair.span[1] > 0.0
    radius = scale * float(rng.uniform(0.5, 8.0))
    shells = int(rng.integers(1, 9))
    # weights in any order, on the scale of the gap, or the plain sup
    w = scale * rng.uniform(0.0, 3.0, shells) if weighted else np.full(1, np.inf)
    eps = 1e-6 * scale
    est = hm.ball_sup(pair, radius, eps, budget=100_000, weights=w)
    assert est.certified and est.levels == 0 and 0.0 <= est.lo <= est.hi <= est.lo + eps

    X = _samples(rng, pair, radius, w.size)
    shell = np.clip(np.ceil(np.linalg.norm(X, axis=1) * w.size / radius) - 1, 0, w.size - 1).astype(int)
    top = float(np.minimum(w[shell], _gap(a, b, X)).max())
    tol = 1e-9 * scale
    assert est.lo <= top + tol and top <= est.hi + tol

    # the cube search on the same pair, with the route taken away
    cube = _Pair(a, b, CFG)
    cube.__dict__["line"] = None
    ref = hm.ball_sup(cube, radius, 1e-3 * scale, budget=100_000, weights=w)
    assert est.lo <= ref.hi + tol and ref.lo <= est.hi + tol


@pytest.mark.parametrize("n", [1, 2, 5])
def test_only_pairs_on_a_line_take_the_route(n):
    rng = np.random.default_rng(n)
    u = _frame(rng, n, 1)
    on_line = _Pair(Polytope(np.array([[1.0], [2.0]]) * u), Subspace(u), CFG)
    assert on_line.line is not None
    if n > 1:
        off_line = _Pair(Polytope(rng.normal(size=(2, n))), Polytope(rng.normal(size=(1, n))), CFG)
        assert off_line.line is None


def _forbid(monkeypatch, *names):
    """Make the named functions of the cube search raise when called."""

    def raiser(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"the line route called {name}")

        return fail

    monkeypatch.setattr(projection, "_residual_rows", raiser("_residual_rows"))
    for name in names:
        monkeypatch.setattr(hm, name, raiser(name))


def test_line_route_builds_no_map_and_runs_no_search(monkeypatch):
    _forbid(monkeypatch, "hausdorff", "_gap_caps", "_box_bounds", "_probes", "_split")
    seg = lambda *t: Polytope(np.array(t)[:, None] * np.array([[0.6, 0.8]]))
    assert attouch_wets(seg(0.0, 10.0), seg(0.0, 20.0)).lo == 1.0 / 11.0
    assert sup_distance_gap(seg(0.0, 1.0), seg(0.5, 3.0), 2.0).certified
    assert truncated_hausdorff(seg(0.0, 1.0), seg(0.0, 3.0), 2.0).certified
    # a pair on a line takes its caps from the line route, a subspace and
    # a segment too
    assert aw_origin(Subspace(np.array([[0.6, 0.8]])), seg(-1.0, 2.0)).certified


def test_line_route_tail_is_the_gap_over_the_whole_line():
    # the terms past j_cap add at most the largest gap, 1e-3 here, not 1/65
    u = np.array([[0.6, 0.8]])
    iv = attouch_wets(Polytope(np.array([[0.0], [1.0]]) * u), Polytope(np.array([[0.0], [1.001]]) * u))
    assert abs(iv.lo - 1e-3) <= 1e-12 and abs(iv.hi - 1e-3) <= 1e-12 and iv.certified
    # segments that part only at 100: the terms up to j_cap are 0, and those
    # past it min(1/j, 1e-3), which the tail must hold
    iv = attouch_wets(Polytope(np.array([[0.0], [100.0]]) * u), Polytope(np.array([[0.0], [100.001]]) * u))
    assert iv.lo == 0.0 and abs(iv.hi - 1e-3) <= 1e-10 and iv.certified
    # one line through two bases: no gap on it, and a rank cut of 2e-16
    # whose widening grows with the radius, so that the terms past j_cap add
    # at most about its square root
    iv = attouch_wets(Subspace(u), Flat(0.5 * u[0], u))
    assert 0.0 < hm._common_span(Subspace(u), Flat(0.5 * u[0], u), CFG.tau_rank)[2] < 1e-15
    assert iv.lo == 0.0 and iv.hi < 1e-7 and iv.certified
    # a line and a segment on it, whose gap grows without bound past the
    # segment: zero up to j_cap, and the tail 1/(j_cap + 1) past it
    iv = attouch_wets(Subspace(u), Polytope(np.array([[-100.0], [100.0]]) * u))
    assert (iv.lo, iv.hi) == (0.0, 1.0 / 65.0)


def test_two_descriptions_of_one_line_are_at_distance_zero():
    # equal bases and bit-equal projectors: the same set, whatever the class
    # and the sign of the basis, so no rank cut of the span widens it
    u = np.array([[0.6, 0.8, 0.0]])
    for a, b in ((Subspace(u), Flat(np.zeros(3), u)), (Flat(np.zeros(3), u), Flat(np.zeros(3), -u))):
        for iv in (attouch_wets(a, b), sup_distance_gap(a, b, 2.0), aw_origin(a, b)):
            assert (iv.lo, iv.hi) == (0.0, 0.0) and iv.certified


def test_points_at_the_origin_are_at_distance_zero():
    # a zero-length segment and {0}: every length on the line is zero
    a, b = Polytope(np.zeros((2, 3))), zero_subspace(3)
    for iv in (attouch_wets(a, b), sup_distance_gap(a, b, 2.0), truncated_hausdorff(a, b, 2.0)):
        assert (iv.lo, iv.hi) == (0.0, 0.0) and iv.certified
