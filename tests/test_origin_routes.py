"""Origin-containing pairs: the truncation lemma and the routes built on it.

For a closed convex C that contains the origin, d(x, C ∩ rB) = d(x, C) on
the r-ball, so the truncated Hausdorff distance of two such sets is the sup
of their distance gap over the ball.  truncated_hausdorff and aw_origin
rest on that identity; these tests check it against the independent
truncated evaluators, and check the routes that replaced the truncations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.projection as projection
from hyperconvex import (
    AWParams,
    Flat,
    HyperconvexError,
    Interval,
    Polytope,
    Subspace,
    ToleranceConfig,
    attouch_wets,
    aw_origin,
    distance_evaluator,
    hausdorff,
    sup_distance_gap,
    truncated_distance_evaluator,
    truncated_hausdorff,
)

from conftest import poly, span

TAU = ToleranceConfig().tau_geom
# a ball-cut polytope row is certified to within max(tau_geom, 1e-12)
MOVE_TOL = max(TAU, 1e-12)


def _frame(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q[:, :k].T.copy()


def _origin_flat(rng, n, k, offset=0.0):
    """A k-flat whose nearest point to the origin has norm offset (k < n
    unless offset is 0)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    basis, normal = q[:, :k].T, q[:, -1]
    return Flat(rng.normal(size=k) @ basis + offset * normal, basis)


def _origin_polytope(rng, n, m):
    """m generators whose hull contains the origin: a convex combination of
    them is moved to the origin."""
    pts = rng.normal(size=(m, n)) * 10 ** rng.uniform(-1, 1)
    return pts - rng.dirichlet(np.ones(m)) @ pts


# ---------------------------------------------------------------------------
# the lemma against the independent truncated evaluators


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["polytope-inside", "polytope-cut", "flat", "subspace"]),
    n=st.integers(2, 4),
)
def test_truncation_leaves_distances_on_the_ball_unchanged(seed, kind, n):
    rng = np.random.default_rng(seed)
    if kind.startswith("polytope"):
        pts = _origin_polytope(rng, n, int(rng.integers(2, 7)))
        reach = max(float(np.linalg.norm(pts, axis=1).max()), 1e-3)
        r = reach * (rng.uniform(1.0, 2.0) if kind == "polytope-inside" else rng.uniform(0.2, 0.9))
        s = Polytope(pts)
    else:
        k = int(rng.integers(0, n + 1))
        s = _origin_flat(rng, n, k) if kind == "flat" else Subspace(_frame(rng, n, k))
        r = float(10 ** rng.uniform(-1, 1))
    X = rng.normal(size=(40, n))
    X *= r * rng.random((40, 1)) ** (1 / n) / np.linalg.norm(X, axis=1, keepdims=True)
    X[0] = 0.0
    plain = distance_evaluator(s)(X)
    truncated = truncated_distance_evaluator(s, r)(X)
    if kind == "polytope-cut":
        assert np.abs(plain - truncated).max() <= 10 * MOVE_TOL * max(1.0, r)
    else:
        assert np.abs(plain - truncated).max() <= 1e-12 * max(1.0, r)


# ---------------------------------------------------------------------------
# flat pairs: spectral formula plus the offset slack


@pytest.mark.parametrize("seed", range(6))
def test_origin_flat_pair_takes_the_spectral_formula(seed):
    rng = np.random.default_rng(seed)
    n = 3 + seed % 2
    k = 1 + seed % 2
    a = _origin_flat(rng, n, k, offset=0.9 * TAU)
    b = _origin_flat(rng, n, k, offset=0.5 * TAU)
    r = float(rng.uniform(0.5, 4.0))
    iv = truncated_hausdorff(a, b, r)
    spectral = r * float(np.linalg.norm(a.basis @ (np.eye(n) - b.basis.T @ b.basis), 2))
    assert iv.certified
    assert iv.lo <= spectral <= iv.hi
    assert iv.width <= 4 * TAU * (1 + TAU / r)


def test_flat_slack_covers_the_offset():
    # a line off the origin by 1e-10 against its own direction span: the
    # truncated Hausdorff distance is about the offset, never 0
    line = Flat(np.array([0.0, 1e-10]), np.array([[1.0, 0.0]]))
    iv = truncated_hausdorff(line, span((1, 0)), 2.0)
    assert iv.lo == 0.0 and 1e-10 <= iv.hi <= 3e-10  # the truth is at least 1e-10


# ---------------------------------------------------------------------------
# mixed pairs ride the ambient identity


def test_line_against_polytope_agrees_with_attouch_wets():
    line = span((1, 2))
    tri = poly((-1, -1), (2, 0), (0, 3))
    origin, full = aw_origin(line, tri), attouch_wets(line, tri)
    assert origin.certified and full.certified
    assert origin.overlaps(full, slack=1e-9)


@pytest.mark.parametrize("r", [1.0, 2.5, 5.0])
def test_line_against_polytope_truncated_hausdorff_bounds_sampled_distances(r):
    # points of either set inside the ball, measured against the other set's
    # truncation by truncated_distance_evaluator, bound the Hausdorff distance below
    line = span((1, 2))
    P = np.array([[-1.0, -1.0], [2.0, 0.0], [0.0, 3.0]])
    tri = Polytope(P)
    iv = truncated_hausdorff(line, tri, r)
    rng = np.random.default_rng(3)
    on_line = np.linspace(-r, r, 41)[:, None] * line.basis
    in_tri = rng.dirichlet(np.ones(3), size=200) @ P
    # scaling toward the origin stays in the hull, which contains it
    in_tri *= np.minimum(1.0, r / np.linalg.norm(in_tri, axis=1))[:, None]
    lower = max(
        float(truncated_distance_evaluator(tri, r)(on_line).max()),
        float(truncated_distance_evaluator(line, r)(in_tri).max()),
    )
    assert lower <= iv.hi + 10 * MOVE_TOL


# ---------------------------------------------------------------------------
# polytope pairs: one search, held to plane geometry


def test_polytope_pair_inside_the_ball_certifies_a_tight_width():
    # two centred 7-point polytopes in R^3 inside the unit ball, whose
    # residuals come from the batched Wolfe solver: the search certifies a
    # width of 1e-9, below the 1e-8 to which the generator rows alone know
    # their Hausdorff distance
    rng = np.random.default_rng(1)
    A, B = (P - P.mean(axis=0) for P in rng.standard_normal((2, 7, 3)))
    A, B = (P / (1.5 * np.linalg.norm(P, axis=1).max()) for P in (A, B))
    a, b = Polytope(A), Polytope(B)
    h = hausdorff(a, b)
    th = truncated_hausdorff(a, b, 1.0, eps=1e-9, budget=200_000)
    ao = aw_origin(a, b, AWParams(eps_sup=1e-9, budget=200_000))
    for iv in (th, ao):
        assert iv.certified and iv.width <= 1e-9
        assert iv.lo <= h <= iv.hi


def _cross(u, v):
    # by hand: numpy 2 deprecates np.cross on 2-vectors
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _hull(P):
    """The vertices of conv(P) in counterclockwise order (monotone chain)."""
    P = np.unique(P, axis=0)

    def chain(pts):
        out = []
        for p in pts:
            while len(out) >= 2 and _cross(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(P) + chain(P[::-1]))


def _in_polygon(V, X):
    E = np.roll(V, -1, axis=0) - V
    return (_cross(E, X[:, None, :] - V) >= -1e-12).all(axis=1)


def _boundary_projection(V, X):
    """The nearest point of the polygon's boundary to each row: its nearest
    point in the polygon for a row outside."""
    E = np.roll(V, -1, axis=0) - V
    t = np.clip(np.einsum("nek,ek->ne", X[:, None, :] - V, E) / (E * E).sum(axis=1), 0.0, 1.0)
    Q = V + t[..., None] * E
    i = np.linalg.norm(X[:, None, :] - Q, axis=2).argmin(axis=1)
    return Q[np.arange(len(X)), i]


def _circle_corners(V, r):
    """The points where the polygon's boundary crosses the circle |x| = r."""
    E = np.roll(V, -1, axis=0) - V
    a, b, c = (E * E).sum(axis=1), 2.0 * (V * E).sum(axis=1), (V * V).sum(axis=1) - r * r
    disc = b * b - 4.0 * a * c
    out = []
    for sign in (-1.0, 1.0):
        t = (-b + sign * np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a)
        ok = (disc >= 0.0) & (t >= 0.0) & (t <= 1.0)
        out.append(V[ok] + t[ok, None] * E[ok])
    return np.concatenate(out)


def _distance_to_cut(V, r, X):
    """d(x, conv(V) ∩ rD) for each row x: the nearest point is x itself, the
    polygon's nearest point, the circle's, or a corner, whichever lies in
    both sets and is nearest."""
    n = np.linalg.norm(X, axis=1, keepdims=True)
    radial = r * X / np.where(n > 0.0, n, 1.0)
    K = _circle_corners(V, r)
    C = np.concatenate([np.stack([X, _boundary_projection(V, X), radial], axis=1), np.broadcast_to(K, (len(X),) + K.shape)], axis=1)
    rows = C.reshape(-1, 2)
    ok = (np.linalg.norm(rows, axis=1) <= r * (1.0 + 1e-12)) & _in_polygon(V, rows)
    d = np.where(ok.reshape(C.shape[:2]), np.linalg.norm(X[:, None, :] - C, axis=2), np.inf)
    return d.min(axis=1)


def _truncated_hausdorff_bracket(VA, VB, r, dt=1e-4):
    """(lo, hi) enclosing H(A ∩ rD, B ∩ rD) by plane geometry.  A distance
    to a convex set is convex, so its sup over A ∩ rD is reached at an
    extreme point: a vertex of A inside the disk, a corner, or a point of a
    circle arc inside A.  The arcs are sampled every dt radians, and the
    distance is 1-Lipschitz, so the sup is at most r dt / 2 above the
    largest value found."""
    t = np.arange(0.0, 2.0 * np.pi, dt)
    circle = r * np.stack([np.cos(t), np.sin(t)], axis=1)
    lo = 0.0
    for V, W in ((VA, VB), (VB, VA)):
        inside = V[np.linalg.norm(V, axis=1) <= r]
        X = np.concatenate([inside, _circle_corners(V, r), circle[_in_polygon(V, circle)]])
        lo = max(lo, float(_distance_to_cut(W, r, X).max()))
    return lo, lo + r * dt / 2.0


def _centred_plane_pair(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 8))
    return [P - P.mean(axis=0) for P in rng.standard_normal((2, m, 2))]


@pytest.mark.parametrize("seed", range(6))
def test_polytope_truncations_match_plane_geometry(seed):
    A, B = _centred_plane_pair(seed)
    VA, VB = _hull(A), _hull(B)
    a, b = Polytope(A), Polytope(B)
    for r in (1.0, 2.0):
        lo, hi = _truncated_hausdorff_bracket(VA, VB, r)
        iv = truncated_hausdorff(a, b, r, eps=1e-4)
        assert iv.certified and iv.overlaps(Interval(lo, hi), slack=1e-9), (r, iv, lo, hi)
    # past J both polygons lie inside the j-disk, where every term is
    # min(1/j, H(A, B)) = min(1/j, H_J) <= the J-th term
    J = int(np.ceil(max(np.linalg.norm(V, axis=1).max() for V in (VA, VB))))
    terms = [_truncated_hausdorff_bracket(VA, VB, float(j)) for j in range(1, J + 1)]
    lo = max(min(1.0 / j, t[0]) for j, t in enumerate(terms, 1))
    hi = max(min(1.0 / j, t[1]) for j, t in enumerate(terms, 1))
    p = AWParams(eps_sup=1e-4)
    iv = aw_origin(a, b, p)
    assert iv.certified and iv.overlaps(Interval(lo, hi), slack=1e-9), (iv, lo, hi)
    # a polytope pair takes the one weighted search of attouch_wets
    assert attouch_wets(a, b, p) == iv


# ---------------------------------------------------------------------------
# residual-map builds


# each call gives fresh sets, which hold no residual map yet
ORIGIN_PAIRS = {
    "subspaces": lambda: (span((1, 0)), span((1, 1))),
    "flats": lambda: (
        Flat(np.array([0.0, 5e-10]), np.array([[1.0, 0.0]])),
        Flat(np.array([3e-10, 0.0]), np.array([[0.0, 1.0]])),
    ),
    "polytopes": lambda: (poly((-1, -1), (2, 0), (0, 3)), poly((-1.1, -1.1), (2.2, 0), (0, 3.3))),
    "mixed": lambda: (span((1, 2)), poly((-1, -1), (2, 0), (0, 3))),
}


@pytest.mark.parametrize("pair", sorted(ORIGIN_PAIRS))
def test_each_set_builds_one_residual_map_and_no_truncation(monkeypatch, pair):
    a, b = ORIGIN_PAIRS[pair]()
    built = []
    real = projection._residual_rows

    def counting(s):
        built.append(s)
        return real(s)

    def no_truncation(*args, **kwargs):
        raise AssertionError("a truncated distance map was built")

    monkeypatch.setattr(projection, "_residual_rows", counting)
    monkeypatch.setattr(projection, "_truncated_rows", no_truncation)
    aw_origin(a, b, AWParams(eps_sup=1e-2))
    attouch_wets(a, b, AWParams(eps_sup=1e-2))
    for r in (1.0, 5.0):
        truncated_hausdorff(a, b, r, eps=1e-2)
    sup_distance_gap(a, b, 2.0, 1e-2)
    for s in (a, b):
        distance_evaluator(s)
    if pair == "polytopes":
        hausdorff(a, b)
    # the sets' own maps, each built once across all the calls
    assert sorted(map(id, built)) == sorted(map(id, (a, b)))


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
def test_truncated_hausdorff_rejects_non_positive_eps(eps):
    P = np.array([[-1.0, -1.0], [2.0, 0.0], [0.0, 3.0]])
    with pytest.raises(HyperconvexError, match="eps must be positive"):
        truncated_hausdorff(Polytope(P), Polytope(1.1 * P), 1.0, eps=eps)


def test_origin_checks_take_the_callers_tolerances(monkeypatch):
    # with an explicit config, a malformed HYPERCONVEX_TOL is never read
    monkeypatch.setenv("HYPERCONVEX_TOL", "oops")
    a, b = ORIGIN_PAIRS["polytopes"]()
    cfg = ToleranceConfig()
    assert truncated_hausdorff(a, b, 2.0, eps=1e-2, tol=cfg).certified
    assert aw_origin(a, b, AWParams(eps_sup=1e-2), tol=cfg).certified
