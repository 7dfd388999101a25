"""Hausdorff distances as max queries.

hausdorff asks the batched Wolfe solver only for the largest distance of a
polytope's generators to the other polytope: a row whose |w| falls below a
floor of certified lower bounds stops early.  These tests check that the
value stays the unpruned generator max bit for bit, that every row stopped
early is really no farther than the result, and that the certified ball
sups, which read every row, never pass a floor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.hypermetrics as hm
import hyperconvex.projection as projection
from hyperconvex import (
    AWParams,
    Polytope,
    aw_origin,
    distance_evaluator,
    hausdorff,
    metric_projection,
    sup_distance_gap,
    truncated_hausdorff,
)
from hyperconvex.projection import _BLOCK_ROWS, _ENUM_MAX_PIECES, _face_pieces

KINDS = ("disjoint", "translated", "nested", "equal", "duplicated")


def _sizes(n: int, route: str, rng) -> int:
    """A generator count in 2..32 whose polytope takes the given route."""
    enum = [m for m in range(2, 33) if _face_pieces(m, n) <= _ENUM_MAX_PIECES]
    wolfe = [m for m in range(2, 33) if _face_pieces(m, n) > _ENUM_MAX_PIECES]
    return int(rng.choice(enum if route == "enum" else wolfe))


def _pad(P: np.ndarray, m: int, rng) -> np.ndarray:
    """P with points inside its hull appended up to m rows: the same set."""
    extra = rng.dirichlet(np.ones(P.shape[0]), size=max(m - P.shape[0], 0)) @ P
    return np.concatenate([P, extra])


def _pair(seed: int, n: int, routes: tuple, kind: str, log_scale: float):
    """Generators (A, B) of the given kind, A on routes[0] and B on routes[1]
    once their distinct generators are counted."""
    rng = np.random.default_rng(seed)
    ma, mb = _sizes(n, routes[0], rng), _sizes(n, routes[1], rng)
    k = min(ma, mb)
    A = rng.standard_normal((k, n))
    if kind == "disjoint":
        B = rng.standard_normal((k, n)) + 4.0 * rng.standard_normal(n)
    elif kind == "translated":
        B = A + 0.3 * rng.standard_normal(n)
    elif kind == "nested":
        B = 0.5 * A + 0.5 * A.mean(axis=0)
    elif kind == "equal":
        B = A[rng.permutation(k)]
    else:
        B = rng.standard_normal((k, n)) + 0.5 * rng.standard_normal(n)
    A, B = _pad(A, ma, rng), _pad(B, mb, rng)
    if kind == "duplicated":
        A = np.concatenate([A, A[rng.integers(0, ma, size=3)]])
        B = np.concatenate([B[rng.integers(0, mb, size=2)], B])
    scale = 10.0**log_scale
    return scale * A, scale * B


def _route(P: Polytope) -> str:
    return "enum" if _face_pieces(*P.unique_points.shape) <= _ENUM_MAX_PIECES else "wolfe"


def _unpruned(a: Polytope, b: Polytope) -> float:
    """The generator max with every row solved to its end."""
    return max(
        float(distance_evaluator(b)(a.unique_points).max()),
        float(distance_evaluator(a)(b.unique_points).max()),
    )


def _check_max_query(a: Polytope, b: Polytope):
    """hausdorff(a, b) against the unpruned max, with the rows that the
    Wolfe route stopped below a floor checked against metric_projection."""
    real = projection._min_norm_rows
    queries = []

    def recorded(pts, X, gap_tol, max_iter, floor=None):
        W, gaps = real(pts, X, gap_tol, max_iter, floor)
        queries.append((pts, X, gap_tol, max_iter, floor, W))
        return W, gaps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_min_norm_rows", recorded)
        h = hausdorff(a, b)
    assert h == _unpruned(a, b)
    for pts, X, gap_tol, max_iter, floor, W in queries:
        assert floor is not None
        retired = (W != real(pts, X, gap_tol, max_iter)[0]).any(axis=1)
        target = Polytope(pts)
        for x in X[retired]:
            assert metric_projection(target, x)[1] <= h
    return h, queries


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    routes=st.sampled_from((("enum", "enum"), ("wolfe", "wolfe"), ("enum", "wolfe"), ("wolfe", "enum"))),
    kind=st.sampled_from(KINDS),
    log_scale=st.floats(-3.0, 3.0),
)
def test_pruned_hausdorff_is_the_unpruned_generator_max(seed, n, routes, kind, log_scale):
    A, B = _pair(seed, n, routes, kind, log_scale)
    a, b = Polytope(A), Polytope(B)
    assert (_route(a), _route(b)) == routes
    _, queries = _check_max_query(a, b)
    # only the Wolfe route receives the max query
    assert len(queries) == routes.count("wolfe")


def test_translated_pairs_keep_their_maximising_row():
    # a row near the end of its solve has a lower bound within a few ulps of
    # its |w|: a floor without its rounding allowance can retire the row
    # that holds the maximum, one iteration early, and change the last bit
    # (in about 3% of these translates)
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((int(rng.integers(8, 33)), n)) * 10.0 ** rng.uniform(-3, 3)
        a, b = Polytope(A), Polytope(A + 0.3 * np.abs(A).max() * rng.standard_normal(n))
        assert hausdorff(a, b) == _unpruned(a, b)


def test_floor_carries_across_blocks():
    rng = np.random.default_rng(7)
    n = 4
    a = Polytope(rng.standard_normal((12, n)))
    B = _pad(rng.standard_normal((8, n)) + 0.4, _BLOCK_ROWS + 200, rng)
    b = Polytope(np.concatenate([B, 3.0 * rng.standard_normal((4, n))]))
    real = projection._wolfe_block
    floors = []

    def recorded(pts, X, gap_tol, max_iter, floor=None):
        out = real(pts, X, gap_tol, max_iter, floor)
        floors.append((X.shape[0], floor, out[2]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_wolfe_block", recorded)
        h, _ = _check_max_query(a, b)
    floors = [f for f in floors if f[1] is not None]  # the unpruned reference runs without
    # a's 12 rows against b in one block, then b's rows against a in two
    # blocks: the second starts from the floor the first raised
    assert [rows for rows, _, _ in floors] == [12, _BLOCK_ROWS, b.unique_points.shape[0] - _BLOCK_ROWS]
    (_, f0, r0), (_, f1, r1), (_, f2, r2) = floors
    assert f0 == 0.0 <= r0 <= f1
    assert f1 <= r1 == f2 <= r2 <= h


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_ball_sup_reads_every_row(seed, n):
    A, B = _pair(seed, n, ("wolfe", "wolfe"), "disjoint", 0.0)
    a, b = Polytope(0.3 * A), Polytope(0.3 * B)
    real_rows, real_sup = projection._residual_rows, hm.ball_sup
    calls, inside = [], []

    def rows(s):
        r = real_rows(s)

        def recorded(X, floor=None):
            calls.append((bool(inside), floor))
            return r(X, floor)

        return recorded

    def sup(*args, **kwargs):
        inside.append(True)
        try:
            return real_sup(*args, **kwargs)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_residual_rows", rows)
        mp.setattr(hm, "ball_sup", sup)
        sup_distance_gap(a, b, 1.0, eps=0.05, budget=20_000)
    assert any(within for within, _ in calls)
    assert all(floor is None for within, floor in calls if within)
    # the Hausdorff cap of the pair is a max query
    assert [floor is None for within, floor in calls if not within] == [False, False]


def _loose_maps(delta: float):
    """A stand-in for _residual_rows whose maps declare every residual known
    only to within its error plus delta, as a coarser solver would."""
    real = projection._residual_rows

    def rows(s):
        r = real(s)

        def loose(X, floor=None):
            R, err = r(X, floor)
            return R, (0.0 if err is None else err) + delta

        return loose

    return rows


@pytest.mark.parametrize("route", ["enum", "wolfe"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polytopes_inside_the_ball_carry_the_residual_error(route, seed):
    # two centred polytopes inside the unit ball: truncated_hausdorff reads
    # their Hausdorff distance H, and aw_origin its one term min(1, H) = H,
    # both from a search capped at H.  With every residual known to within
    # delta, H is known only to within delta, and both intervals must reach
    # down that far.  The search cannot certify eps under that error, so a
    # small budget ends it.
    rng = np.random.default_rng(seed)
    n = 4
    m = _sizes(n, route, rng)
    A, B = (P - P.mean(axis=0) for P in rng.standard_normal((2, m, n)))
    A, B = (P / (1.5 * np.linalg.norm(P, axis=1).max()) for P in (A, B))
    exact = hausdorff(Polytope(A), Polytope(B))
    assert exact < 1.0
    delta = 1e-3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_residual_rows", _loose_maps(delta))
        h = hausdorff(Polytope(A), Polytope(B))
        ivs = [
            truncated_hausdorff(Polytope(A), Polytope(B), 1.0, budget=20_000),
            aw_origin(Polytope(A), Polytope(B), AWParams(budget=20_000)),
        ]
    assert h == exact
    for iv in ivs:
        assert iv.lo <= h - 0.5 * delta and h <= iv.hi <= h + 1e-12
    # with the maps as they are, the face route is exact: a point
    if route == "enum":
        for iv in (truncated_hausdorff(Polytope(A), Polytope(B), 1.0), aw_origin(Polytope(A), Polytope(B))):
            assert iv.lo == iv.hi == exact
