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
