"""Certified ball sups: residual maps, the one-sided box bound, the search
over the pair's common span, its level size, and the weighted scan behind
the Attouch-Wets metric.

The oracles are the scalar metric projection (polytopes) and numpy's
least squares (flats); neither goes through the batched residual maps.
The checks of the weighted scan against dense samples take their gaps from
distance_evaluator instead: they test the scan, not the distances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.hypermetrics as hm
import hyperconvex.projection as projection
from hyperconvex import (
    AWParams,
    Flat,
    Polytope,
    Subspace,
    ToleranceConfig,
    attouch_wets,
    aw_origin,
    distance_evaluator,
    metric_projection,
    sup_distance_gap,
)
from hyperconvex.hypermetrics import SupEstimate, _box_bounds, _common_span, _Pair
from hyperconvex.projection import (
    _ENUM_MAX_PIECES,
    _face_pieces,
    _min_norm_rows,
    _residual_rows,
    _wolfe_cap,
)

CFG = ToleranceConfig()
KINDS = ("flat", "subspace", "polytope", "wolfe")


def _frame(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q[:, :k].T.copy()


def _draw(rng, kind, n, inside=None):
    """A random set of the kind; inside (orthonormal rows) confines its data."""
    k = n if inside is None else inside.shape[0]
    lift = np.eye(n) if inside is None else inside
    if kind in ("flat", "subspace"):
        dim = int(rng.integers(0, k))
        basis = _frame(rng, k, dim) @ lift
        if kind == "subspace":
            return Subspace(basis)
        return Flat(rng.normal(size=k) @ lift, basis)
    if kind == "polytope":
        m = int(rng.integers(1, 5))
    else:  # enough generators for the batched Wolfe route
        m = 8 if k == 2 else 7
    pts = rng.normal(size=(m, k)) @ lift
    if kind == "wolfe":
        assert _face_pieces(*np.unique(pts, axis=0).shape) > _ENUM_MAX_PIECES
    return Polytope(pts)


def _dist(s, X):
    """Distances by the scalar projection (polytopes) or lstsq (flats)."""
    X = np.atleast_2d(X)
    if isinstance(s, Polytope):
        return np.array([metric_projection(s, x, CFG)[1] for x in X])
    if s.basis.shape[0] == 0:
        return np.linalg.norm(X - s.base, axis=1)
    coef, *_ = np.linalg.lstsq(s.basis.T, (X - s.base).T, rcond=None)
    return np.linalg.norm((X - s.base).T - s.basis.T @ coef, axis=0)


def _gap(a, b, X):
    return np.abs(_dist(a, X) - _dist(b, X))


def _library_gap(a, b, X):
    return np.abs(distance_evaluator(a)(X) - distance_evaluator(b)(X))


def _in_ball(rng, n, count, radius):
    """Uniform points of the closed radius-ball around the origin."""
    u = rng.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * radius * rng.random((count, 1)) ** (1.0 / n)


def _shell_samples(rng, n, radius, shells):
    """Uniform points of the radius-ball, and points 1e-9 inside and outside
    each sphere that cuts it into equal shells, clamped into the ball."""
    u = rng.normal(size=(60, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = (radius / shells * np.arange(1.0, shells + 1.0)[:, None] + np.array([-1e-9, 1e-9])).ravel()
    X = np.concatenate([_in_ball(rng, n, 300, radius), (radii[:, None, None] * u).reshape(-1, n)])
    return projection._clamp_rows(X, radius)[0]


# ---------------------------------------------------------------------------
# residual maps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), n=st.integers(2, 4))
def test_residual_rows_point_at_the_nearest_point(seed, kind, n):
    rng = np.random.default_rng(seed)
    s = _draw(rng, kind, n)
    X = 2.0 * rng.normal(size=(30, n))
    R, err = _residual_rows(s)(X)
    err = np.zeros(len(X)) if err is None else err
    assert (err == 0).all() or kind == "wolfe"
    for x, r, e in zip(X, R, err):
        p, _ = metric_projection(s, x, CFG)
        assert np.linalg.norm((x - r) - p) <= e + 1e-6


# ---------------------------------------------------------------------------
# the one-sided box bound


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 4),
    log_size=st.floats(-3.0, 0.3),
)
def test_box_bound_covers_dense_samples(seed, kinds, n, log_size):
    rng = np.random.default_rng(seed)
    a, b = (_draw(rng, k, n) for k in kinds)
    radius = float(rng.uniform(0.5, 4.0))
    # a random box, its center clamped into the ball as ball_sup does
    center = rng.uniform(-radius, radius, size=n)
    half = rng.uniform(0.1, 1.0, size=n) * radius * 10.0**log_size
    c = projection._clamp_rows(center[None, :], radius)[0]
    rho = np.array([np.linalg.norm(half)])
    lo, hi = _box_bounds(a, b, c, rho)
    g_c = float(_gap(a, b, c)[0])
    assert lo[0] <= g_c + 1e-9
    # the bound covers every point within rho of the clamped center, so
    # sample that ball densely, its sphere included
    Y = c + _in_ball(rng, n, 150, rho[0])
    u = rng.normal(size=(50, n))
    Y = np.concatenate([Y, c + rho[0] * u / np.linalg.norm(u, axis=1, keepdims=True)])
    assert _gap(a, b, Y).max() <= hi[0] + 1e-9


def test_box_bound_is_second_order_away_from_the_sets():
    # two lines 0.05 apart in direction, far from the box: the bound is a
    # small fraction of the Lipschitz slack 2 rho
    a = Flat(np.array([0.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    b = Flat(np.array([0.0, 0.0, 0.05]), np.array([[np.cos(0.05), np.sin(0.05), 0.0]]))
    c = np.array([[0.0, 0.0, 3.0]])
    rho = np.array([0.01])
    lo, hi = _box_bounds(a, b, c, rho)
    assert hi[0] - lo[0] < 0.1 * 2 * rho[0]
    # and on both sets (d = 0) each side keeps its Lipschitz slack rho
    lo, hi = _box_bounds(a, b, np.zeros((1, 3)), rho)
    assert hi[0] - lo[0] == pytest.approx(rho[0])


def _set_point(rng, s):
    """A generator of a polytope, or a random point of a flat."""
    if isinstance(s, Polytope):
        return s.points[rng.integers(len(s.points))]
    return s.base + rng.normal(size=s.basis.shape[0]) @ s.basis


def _box_samples(rng, C, h, radius, count):
    """Points of the cube of center C and half-width h that lie in the
    closed radius-ball, by rejection: uniform points of the cube, points of
    its faces, its corners, and all of those pushed radially onto the
    sphere, kept only when they lie in both the cube and the ball (never
    clamped, which can leave the cube)."""
    n = C.size
    U = rng.uniform(-1.0, 1.0, size=(count, n))
    F = rng.uniform(-1.0, 1.0, size=(count // 2, n))
    F[np.arange(len(F)), rng.integers(n, size=len(F))] = rng.choice([-1.0, 1.0], size=len(F))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    Y = C + np.concatenate([U, F, corners]) * h
    nrm = np.linalg.norm(Y, axis=1, keepdims=True)
    Y = np.concatenate([Y, Y * radius / np.where(nrm > 0, nrm, 1.0)])
    inside = (np.abs(Y - C) <= h * (1 + 1e-12)).all(axis=1)
    return Y[inside & (np.linalg.norm(Y, axis=1) <= radius * (1 + 1e-12))]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 4),
    log_size=st.floats(-3.0, 0.3),
    where=st.sampled_from(("set", "sphere", "ball")),
)
def test_directional_box_bound_covers_dense_samples(seed, kinds, n, log_size, where):
    # random cubes, bounded from their centers clamped into the ball with
    # the reach of the cube and the ball, as ball_sup does
    rng = np.random.default_rng(seed)
    a, b = (_draw(rng, k, n) for k in kinds)
    radius = float(rng.uniform(0.5, 4.0))
    boxes = 6
    h = rng.uniform(0.1, 1.0, size=boxes) * radius * 10.0**log_size
    rho = h * np.sqrt(n)
    if where == "set":
        # centers on the sets, where the residuals are at rounding level
        C = np.array([_set_point(rng, (a, b)[int(rng.integers(2))]) for _ in range(boxes)])
        radius = max(radius, 1.001 * float(np.linalg.norm(C, axis=1).max()))
    elif where == "sphere":
        # cubes that straddle the sphere
        u = rng.normal(size=(boxes, n))
        C = u / np.linalg.norm(u, axis=1, keepdims=True) * (radius + rng.uniform(-1.0, 1.0, (boxes, 1)) * rho[:, None])
    else:
        C = _in_ball(rng, n, boxes, 1.2 * radius)
    c = projection._clamp_rows(C, radius)[0]
    reach = hm._box_reach(c, C, h, radius, None, rho)
    lo, hi = _box_bounds(a, b, c, rho, reach)
    assert (lo <= _gap(a, b, c) + 1e-9).all()
    # the reach bounds v . (y - c) over the cube and the ball for any v, and
    # the bound covers the gap, at samples of both
    V = rng.normal(size=(8, boxes, n))
    L = reach(V)
    for i in range(boxes):
        Y = _box_samples(rng, C[i], h[i], radius, 60)
        if len(Y):
            assert (((Y - c[i]) @ V[:, i].T).max(axis=0) <= L[:, i] + 1e-9).all()
            assert _gap(a, b, Y).max() <= hi[i] + 1e-9


# ---------------------------------------------------------------------------
# the common span


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS[:3]), st.sampled_from(KINDS[:3])),
    n=st.integers(3, 5),
)
def test_sup_over_the_ball_is_the_sup_over_its_slice_by_the_span(seed, kinds, n):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    S = _frame(rng, n, k)
    a, b = (_draw(rng, kind, n, inside=S) for kind in kinds)
    B, w0, w1 = _common_span(a, b, CFG.tau_rank)
    # the data lie in rowspan(B): nothing is cut
    assert B is None or (B.shape[0] <= k and w0 + w1 <= 1e-12)
    radius = float(rng.uniform(0.5, 3.0))
    X = _in_ball(rng, n, 120, radius)
    XS = X @ S.T @ S
    assert (_gap(a, b, X) <= _gap(a, b, XS) + 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.tuples(st.sampled_from(KINDS[:3]), st.sampled_from(KINDS[:3])))
def test_rank_cut_widening_covers_data_off_the_span(seed, kinds):
    # data 1e-3 off a plane in R^3, cut at tau_rank = 1e-2: the gap at x is
    # within w0 + w1 r of the gap at x's slice by the span
    rng = np.random.default_rng(seed)
    S = _frame(rng, 3, 2)
    normal = np.cross(S[0], S[1])
    sets = []
    for kind in kinds:
        s = _draw(rng, kind, 3, inside=S)
        if isinstance(s, Polytope):
            s = Polytope(s.points + 1e-3 * rng.uniform(-1, 1, (len(s.points), 1)) * normal)
        elif s.basis.shape[0]:
            tilt = s.basis + 1e-3 * rng.uniform(-1, 1, (len(s.basis), 1)) * normal
            s = Flat(s.base + 1e-3 * normal, np.linalg.qr(tilt.T)[0].T)
        else:
            s = Flat(s.base + 1e-3 * normal, s.basis)
        sets.append(s)
    a, b = sets
    B, w0, w1 = _common_span(a, b, 1e-2)
    radius = 2.0
    X = _in_ball(rng, 3, 200, radius)
    XS = X if B is None else X @ B.T @ B
    assert (_gap(a, b, X) <= _gap(a, b, XS) + w0 + w1 * radius + 1e-12).all()


@pytest.mark.parametrize("kinds", [("polytope", "polytope"), ("flat", "polytope"), ("flat", "subspace")])
def test_span_search_agrees_with_the_full_search(monkeypatch, kinds):
    rng = np.random.default_rng(7)
    S = _frame(rng, 4, 2)
    a, b = (_draw(rng, kind, 4, inside=S) for kind in kinds)
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is not None and pair.span[0].shape[0] <= 2
    kw = dict(budget=400_000)
    reduced = hm.ball_sup(pair, 1.5, 1e-2, **kw)
    full_pair = _Pair(a, b, CFG)
    full_pair.__dict__["span"] = (None, 0.0, 0.0)
    full = hm.ball_sup(full_pair, 1.5, 1e-2, **kw)
    assert reduced.certified and full.certified
    assert reduced.lo <= full.hi + 1e-12 and full.lo <= reduced.hi + 1e-12
    assert reduced.evals < full.evals


# ---------------------------------------------------------------------------
# costs of the reference pairs


def _count_sup_evals(monkeypatch):
    total = []
    real = hm.ball_sup

    def counting(*args, **kwargs):
        est = real(*args, **kwargs)
        total.append(est.evals)
        return est

    monkeypatch.setattr(hm, "ball_sup", counting)
    return total


def test_readme_segment_pair_takes_few_evaluations(monkeypatch):
    evals = _count_sup_evals(monkeypatch)
    a = Polytope(np.array([[0.0, 0.0], [10.0, 0.0]]))
    b = Polytope(np.array([[0.0, 0.0], [20.0, 0.0]]))
    iv = attouch_wets(a, b)
    assert iv.contains(1.0 / 11.0, slack=1e-12) and iv.width <= 1e-3 and iv.certified
    assert sum(evals) <= 10_000


@pytest.mark.parametrize("n", [3, 4, 5])
def test_nearby_lines_certify_within_budget(n):
    rng = np.random.default_rng(n)
    F = _frame(rng, n, 3)
    a = Flat(0.5 * F[1], F[:1])
    b = Flat(0.5 * F[1] + 0.05 * F[2], (np.cos(0.05) * F[0] + np.sin(0.05) * F[1])[None, :])
    iv = attouch_wets(a, b, AWParams(eps_sup=1e-2, budget=300_000))
    assert iv.certified and iv.width <= 1e-2


def test_sup_inside_a_set_certifies_in_few_evaluations():
    # the point {0} against a 7-point polytope around it in R^3: the gap is
    # |x| on the sphere cap inside the polytope, where every box center lies
    # on the polytope and its residual is 0
    rng = np.random.default_rng(3434)
    a, b = _draw(rng, "subspace", 3), _draw(rng, "wolfe", 3)
    radius = float(rng.uniform(0.5, 4.0))
    w = np.sort(rng.uniform(0.0, 1.5, int(rng.integers(1, 6))))[::-1]
    est = hm.ball_sup(_Pair(a, b, CFG), radius, 1e-2, budget=200_000, weights=w, probes=np.zeros((1, 3)))
    assert est.certified and est.hi - est.lo <= 1e-2
    assert est.lo == pytest.approx(radius) and est.evals < 20_000


def test_levels_stay_within_the_row_cap(monkeypatch):
    # two simplices in R^6 span all of it, and every box splits into 64
    rng = np.random.default_rng(6)
    a, b = Polytope(rng.normal(size=(7, 6))), Polytope(rng.normal(size=(7, 6)))
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    rows = []
    real = hm._box_bounds

    def recording(a, b, X, *args):
        rows.append(X.shape[0])
        return real(a, b, X, *args)

    monkeypatch.setattr(hm, "_box_bounds", recording)
    est = hm.ball_sup(pair, 1.0, 1e-2, budget=100_000)
    # rows[0] is the probe pass; every later call is one level of boxes
    assert sum(rows) == est.evals and max(rows[1:]) <= 2 * 2**15
    X = _in_ball(rng, 6, 2000, 1.0)
    assert (_library_gap(a, b, X) <= est.hi + 1e-6).all()


def test_spans_past_16_dimensions_end_after_the_root():
    # two 9-point polytopes in R^17 span all of it, and a cube's 2^17
    # children overflow a level: the search ends uncertified after the
    # probes and the root cube, whose bound covers the whole ball
    rng = np.random.default_rng(17)
    a, b = Polytope(rng.normal(size=(9, 17))), Polytope(rng.normal(size=(9, 17)))
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    est = hm.ball_sup(pair, 1.0, 1e-2, budget=300_000)
    assert not est.certified and est.lo <= est.hi
    assert est.evals <= hm._probes(a, b, 1.0).shape[0] + 1
    X = np.concatenate([_in_ball(rng, 17, 2000, 1.0), hm._probes(a, b, 1.0)])
    assert (_library_gap(a, b, projection._clamp_rows(X, 1.0)[0]) <= est.hi + 1e-6).all()


# ---------------------------------------------------------------------------
# the weighted scan: what it reports as certified, its soundness, its calls


def _sweep(monkeypatch, est, eps=1e-2, j_cap=4):
    """attouch_wets on a pair with no cap for all radii at once (a segment
    and a line), with its one scan replaced by est."""
    monkeypatch.setattr(hm, "ball_sup", lambda *args, **kwargs: est)
    a = Polytope(np.array([[0.0, 1.0], [1.0, 2.0]]))
    b = Flat(np.zeros(2), np.array([[1.0, 0.0]]))
    return attouch_wets(a, b, AWParams(eps_sup=eps, j_cap=j_cap))


def test_sweep_stays_certified_when_the_width_is_met(monkeypatch):
    # the scan ran out of budget, but its bracket is narrower than eps_sup
    iv = _sweep(monkeypatch, SupEstimate(0.3, 0.305, False, 10))
    assert iv.width <= 1e-2 and iv.certified


def test_sweep_is_uncertified_when_the_width_misses(monkeypatch):
    iv = _sweep(monkeypatch, SupEstimate(0.3, 0.45, False, 10))
    assert iv.width > 1e-2 and not iv.certified


def test_sweep_allows_the_j_cap_tail(monkeypatch):
    # without a scan that ran out, the terms past j_cap never uncertify
    iv = _sweep(monkeypatch, SupEstimate(0.01, 0.01, True, 10), j_cap=4)
    assert iv.certified and iv.hi == pytest.approx(0.2)


def test_scan_that_runs_out_of_budget_is_uncertified():
    a = Flat(np.array([0.0, 0.5, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    b = Flat(np.array([0.0, 0.5, 0.05]), np.array([[np.cos(0.05), np.sin(0.05), 0.0]]))
    iv = attouch_wets(a, b, AWParams(eps_sup=1e-4, budget=1000))
    assert iv.width > 1e-4 and not iv.certified


J_CAP = 6


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 3),
)
def test_weighted_scan_agrees_with_a_sweep_of_plain_sups(seed, kinds, n):
    rng = np.random.default_rng(seed)
    a, b = (_draw(rng, k, n) for k in kinds)
    iv = attouch_wets(a, b, AWParams(eps_sup=1e-2, j_cap=J_CAP))
    # the reference: max over j <= J_CAP of min(1/j, s_j), each s_j from a
    # plain sup over the j-ball, and 1/(J_CAP + 1) for the terms past it
    pair = _Pair(a, b, CFG)
    terms = [(1.0 / j, hm.ball_sup(pair, float(j), 1e-2, budget=400_000)) for j in range(1, J_CAP + 1)]
    ref_lo = max(min(w, est.lo) for w, est in terms)
    ref_hi = max(max(min(w, est.hi) for w, est in terms), 1.0 / (J_CAP + 1))
    assert iv.lo <= ref_hi + 1e-9 and ref_lo <= iv.hi + 1e-9
    # phi(x) = min(1/J(x), gap(x)) at dense samples of the J_CAP-ball
    X = _shell_samples(rng, n, float(J_CAP), J_CAP)
    J = np.maximum(1.0, np.ceil(np.linalg.norm(X, axis=1)))
    assert (np.minimum(1.0 / J, _library_gap(a, b, X)) <= iv.hi + 1e-6).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 3),
    ordered=st.booleans(),
)
def test_weighted_sup_covers_dense_samples(seed, kinds, n, ordered):
    # non-increasing weights, or weights in any order, for which the shell
    # bound min(tail[i], head[l]) still holds, on 1-5 shells, and a single
    # probe at the origin, so that the boxes, not the probes, must find the
    # sup
    rng = np.random.default_rng(seed)
    a, b = (_draw(rng, k, n) for k in kinds)
    radius = float(rng.uniform(0.5, 4.0))
    w = rng.uniform(0.0, 1.5, int(rng.integers(1, 6)))
    if ordered:
        w = np.sort(w)[::-1]
    # the enclosure holds whether or not the budget lets the width certify
    est = hm.ball_sup(_Pair(a, b, CFG), radius, 1e-2, budget=200_000, weights=w, probes=np.zeros((1, n)))
    X = _shell_samples(rng, n, radius, len(w))
    shells = np.clip(np.ceil(np.linalg.norm(X, axis=1) * len(w) / radius) - 1, 0, len(w) - 1).astype(int)
    assert (np.minimum(w[shells], _library_gap(a, b, X)) <= est.hi + 1e-6).all()


COUNT_PAIRS = {
    "segments": (Polytope(np.array([[0.0, 0.0], [10.0, 0.0]])), Polytope(np.array([[0.0, 0.0], [20.0, 0.0]]))),
    "triangles": (
        Polytope(np.array([[-1.0, -1.0], [2.0, 0.0], [0.0, 3.0]])),
        Polytope(np.array([[-1.1, -1.1], [2.2, 0.0], [0.0, 3.3]])),
    ),
    "line-triangle": (Subspace(np.array([[0.6, 0.8]])), Polytope(np.array([[-1.0, -1.0], [2.0, 0.0], [0.0, 3.0]]))),
    "lines": (Subspace(np.array([[1.0, 0.0]])), Subspace(np.array([[0.6, 0.8]]))),
}


@pytest.mark.parametrize("pair", sorted(COUNT_PAIRS))
def test_each_metric_call_makes_at_most_one_ball_sup(monkeypatch, pair):
    a, b = COUNT_PAIRS[pair]
    calls = _count_sup_evals(monkeypatch)
    for metric in (attouch_wets, aw_origin):
        calls.clear()
        metric(a, b, AWParams(eps_sup=1e-3))
        assert len(calls) <= 1


# ---------------------------------------------------------------------------
# the batched Wolfe kernel on a row it used to cycle on

# verify --suite aw-metric --dim 3 --trials 20 --seed 1, trial 19: the
# second set of the pair, and a query row inside it
CYCLE_PTS = np.array([
    [-0.19208619572092073, -0.33976626668372495, 1.6304972391249588],
    [0.1821326210484457, 0.005449996830177217, -1.494740539969067],
    [-0.3817562105255923, 0.050798261976380335, -0.41047337477467266],
    [-2.246659960331605, 0.7285801657398683, -0.14976057990438593],
    [1.5270818198502827, -0.30298313706211927, -0.2691188083065476],
    [-1.0898723965556492, 1.9361135908824145, 0.14948655334391675],
])
CYCLE_ROW = np.array([-0.2265625, -0.171875, 0.640625])
CYCLE_OTHER = np.array([
    [-0.25496464873906527, -0.22049792590908518, 1.7699789133749184],
    [0.11925416803030114, 0.12471833760481697, -1.3552588657191074],
    [-0.4446346635437368, 0.1700666027510201, -0.270991700524713],
    [-2.30953841334975, 0.847848506514508, -0.010278905654426278],
    [1.4642033668321381, -0.18371479628747953, -0.12963713405658794],
    [-1.1527508495737937, 2.0553819316570543, 0.2889682275938764],
])


def test_wolfe_rows_stop_when_the_norm_stops_falling():
    pts = np.unique(CYCLE_PTS, axis=0)
    W, gaps = _min_norm_rows(pts, CYCLE_ROW[None, :], 1e-18, _wolfe_cap(pts))
    # the row lies inside the hull
    assert np.linalg.norm(W[0]) <= 1e-12 and np.sqrt(2 * gaps[0]) <= 1e-6
    # the same row in a batch comes back bit for bit
    rng = np.random.default_rng(19)
    X = np.concatenate([rng.normal(size=(5, 3)), CYCLE_ROW[None, :], rng.normal(size=(5, 3))])
    Wb, gb = _min_norm_rows(pts, X, 1e-18, _wolfe_cap(pts))
    assert np.array_equal(Wb[5], W[0]) and gb[5] == gaps[0]
    for i in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10):
        Wi, gi = _min_norm_rows(pts, X[i : i + 1], 1e-18, _wolfe_cap(pts))
        assert np.array_equal(Wb[i], Wi[0]) and gb[i] == gi[0]


def test_cycling_pair_gap_is_computed():
    a, b = Polytope(CYCLE_OTHER), Polytope(CYCLE_PTS)
    iv = sup_distance_gap(a, b, 1.0, 1e-2)
    assert iv.width <= 1e-2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 40))
def test_shell_weight_bound_covers_the_largest_weight_of_the_shells_reached(seed, L):
    # ball_sup bounds phi on a box reaching shells i..l by min(tail[i], head[l]),
    # tail the suffix maxima of the weights and head the prefix maxima: at
    # least max(w[i..l]) for any weights, and equal to it for weights that
    # rise and then fall, as min(1/j, cap(j)) does with cap nondecreasing
    rng = np.random.default_rng(seed)
    i, l = sorted(rng.integers(0, L, size=2))
    peak = int(rng.integers(0, L))
    shapes = {
        "random": rng.uniform(0.0, 2.0, L),
        "rise then fall": np.concatenate(
            (np.sort(rng.uniform(0.0, 2.0, peak)), np.sort(rng.uniform(0.0, 2.0, L - peak))[::-1])
        ),
        "aw weights": np.minimum(1.0 / np.arange(1.0, L + 1.0), np.sort(rng.uniform(0.0, 1.0, L))),
    }
    for name, w in shapes.items():
        tail = np.maximum.accumulate(w[::-1])[::-1]
        head = np.maximum.accumulate(w)
        bound, top = min(tail[i], head[l]), w[i : l + 1].max()
        assert bound >= top
        if name != "random":
            assert bound == top
