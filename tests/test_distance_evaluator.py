"""Batched polytope distances: both routes of distance_evaluator against
metric_projection, the brute-force grid oracle, and themselves row by row."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconvex import (
    ConvergenceError,
    Flat,
    Polytope,
    Subspace,
    distance_evaluator,
    hausdorff,
    metric_projection,
)
from hyperconvex.projection import (
    _ENUM_MAX_PIECES,
    _BLOCK_ROWS,
    _affine_minimizer_rows,
    _face_pieces,
    _min_norm_rows,
    _polytope_pieces,
    _residual_rows,
    min_norm_point,
)
import hyperconvex.projection as projection

from conftest import grid_distance

# (n, m) on both sides of the route switch
SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 6), (4, 8), (4, 17), (4, 24)]


def _queries(rng, pts, k=6):
    """Rows inside the hull, on its boundary and outside it."""
    n = pts.shape[1]
    inside = rng.dirichlet(np.ones(pts.shape[0]), size=k) @ pts
    outside = pts.mean(axis=0) + 3.0 * rng.normal(size=(k, n)) * np.abs(pts).max()
    on = np.array([metric_projection(Polytope(pts), x)[0] for x in outside[: k // 2]])
    return np.concatenate([inside, on, pts[:2], outside])


def _check_against_projection(pts, X):
    d = distance_evaluator(Polytope(pts))(X)
    ref = np.array([metric_projection(Polytope(pts), x)[1] for x in X])
    scale = max(1.0, float(np.abs(pts).max() + np.abs(X).max()))
    np.testing.assert_allclose(d, ref, rtol=0, atol=1e-9 * scale)
    return d


def test_shapes_cover_both_routes():
    routes = {_face_pieces(m, n) > _ENUM_MAX_PIECES for n, m in SHAPES}
    assert routes == {False, True}


@pytest.mark.parametrize("n,m", SHAPES)
def test_matches_metric_projection(n, m, rng):
    for _ in range(3):
        pts = rng.normal(size=(m, n)) * 2.0
        _check_against_projection(pts, _queries(rng, pts))


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 4)])
def test_matches_grid_oracle(n, m, rng):
    pts = rng.normal(size=(m, n))
    X = _queries(rng, pts, k=2)
    d = distance_evaluator(Polytope(pts))(X)
    for x, v in zip(X, d):
        best, slack = grid_distance(pts, x, g=40)
        assert best - slack - 1e-12 <= v <= best + 1e-12


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_property_random_polytopes(shape, seed, scale):
    rng = np.random.default_rng(seed)
    n, m = shape
    pts = scale * rng.normal(size=(m, n))
    _check_against_projection(pts, _queries(rng, pts, k=3))


@pytest.mark.parametrize("n,m", [(3, 6), (4, 17)])
def test_duplicated_generators(n, m, rng):
    pts = rng.normal(size=(m, n))
    doubled = np.concatenate([pts, pts[::2], pts[:3]])
    X = _queries(rng, pts)
    d = _check_against_projection(doubled, X)
    np.testing.assert_array_equal(d, distance_evaluator(Polytope(pts))(X))


def test_flat_polytope_on_the_batched_route(rng):
    # generators on a 2-plane in R^4: many bordered systems are singular
    frame = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    pts = rng.normal(size=(17, 2)) @ frame + np.array([1.0, -2.0, 0.5, 0.0])
    assert _face_pieces(17, 4) > _ENUM_MAX_PIECES
    _check_against_projection(pts, _queries(rng, pts))


def test_single_point(rng):
    p = rng.normal(size=3)
    X = rng.normal(size=(5, 3))
    for pts in (p[None, :], np.repeat(p[None, :], 4, axis=0)):
        d = distance_evaluator(Polytope(pts))(X)
        np.testing.assert_allclose(d, np.linalg.norm(X - p, axis=1), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,m", [(2, 5), (4, 17), (8, 17)])
def test_row_alone_equals_row_in_batch(n, m, rng):
    pts = rng.normal(size=(m, n))
    X = 1.5 * rng.normal(size=(_BLOCK_ROWS + 37, n))
    X[::7] = rng.dirichlet(np.ones(m), size=X[::7].shape[0]) @ pts
    f = distance_evaluator(Polytope(pts))
    d = f(X)
    assert d.shape == (X.shape[0],)
    picks = np.concatenate([np.arange(20), rng.choice(X.shape[0], 20, replace=False), [X.shape[0] - 1]])
    if _face_pieces(m, n) > _ENUM_MAX_PIECES:
        # the batched solver works on each row apart: bit for bit, also
        # where the other rows of the block hold 8 or more active slots
        alone = np.concatenate([f(x) for x in X])
        np.testing.assert_array_equal(alone, d)
        cap = max(10 * m * n, 50)
        ref = [np.linalg.norm(min_norm_point(pts - X[i], 1e-18, cap)[0]) for i in picks]
        np.testing.assert_allclose(d[picks], ref, rtol=0, atol=1e-12)
    else:
        # enumeration multiplies a one-row block as two rows, so a row
        # alone takes the same product as in a block: bit for bit
        alone = np.concatenate([f(X[i]) for i in picks])
        np.testing.assert_array_equal(alone, d[picks])
    # so do the flat and subspace maps, for every dimension of the direction
    for k in range(n + 1):
        B = np.linalg.qr(rng.normal(size=(n, n)))[0][:k]
        for s in [Flat(rng.normal(size=n), B)] + ([Subspace(B)] if k else []):
            f = distance_evaluator(s)
            alone = np.concatenate([f(X[i]) for i in picks])
            np.testing.assert_array_equal(alone, f(X)[picks])


def _residuals_by_piece(pts, X):
    """Face enumeration as a loop over pieces, the reference for the stacked
    kernel: start from the nearest generator, then take every affinely
    independent generator subset whose projection has all barycentric
    coordinates >= -1e-12 and is strictly closer."""
    pts = np.unique(pts, axis=0)
    m, n = pts.shape
    diff = X[:, None, :] - pts[None, :, :]
    near = np.linalg.norm(diff, axis=2)
    k = near.argmin(axis=1)
    best, R = near[np.arange(X.shape[0]), k], diff[np.arange(X.shape[0]), k]
    for size in range(2, min(m, n + 1) + 1):
        for subset in itertools.combinations(range(m), size):
            p0 = pts[subset[0]]
            D = (pts[list(subset[1:])] - p0).T
            sv = np.linalg.svd(D, compute_uv=False)
            if sv[-1] <= 1e-12 * max(sv[0], 1.0):
                continue
            U = (X - p0) @ np.linalg.pinv(D).T
            feas = (U >= -1e-12).all(axis=1) & (1.0 - U.sum(axis=1) >= -1e-12)
            Rp = X - (p0 + U @ D.T)
            d = np.linalg.norm(Rp, axis=1)
            win = feas & (d < best)
            best[win], R[win] = d[win], Rp[win]
    return R


# (n, m) with n <= 4 and every m at or below the route switch
ENUM_SHAPES = [(n, m) for n in range(1, 5) for m in range(1, 9) if _face_pieces(m, n) <= _ENUM_MAX_PIECES]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(ENUM_SHAPES),
    kind=st.sampled_from(["general", "duplicates", "collinear", "coplanar"]),
    rows=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kernel_matches_the_loop_over_pieces(shape, kind, rows, scale, seed):
    rng = np.random.default_rng(seed)
    n, m = shape
    if kind == "duplicates":
        pts = rng.normal(size=(m, n))
        pts = pts[rng.integers(0, max(1, m // 2 + 1), size=m)]
    else:
        # on a line or a plane the rank cut drops every subset of 3 or 4
        # points, so whole subset sizes have no piece
        rank = {"general": n, "collinear": 1, "coplanar": min(2, n)}[kind]
        pts = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    pts = scale * (pts + rng.normal(size=n))
    inside = rng.dirichlet(np.ones(m), size=rows) @ pts
    outside = pts.mean(axis=0) + scale * rng.normal(size=(rows, n))
    X = np.stack([
        inside,
        outside - _residuals_by_piece(pts, outside),  # on the boundary
        pts[rng.integers(0, m, size=rows)],  # at generators
        outside,
        100.0 * outside,  # far outside
    ], axis=1).reshape(-1, n)[:rows]
    R, err = _residual_rows(Polytope(pts))(X)
    ref = _residuals_by_piece(pts, X)
    assert err is None and R.shape == X.shape
    d, d_ref = np.linalg.norm(R, axis=1), np.linalg.norm(ref, axis=1)
    # set from the dtype before any run: about 4500 eps at unit scale
    tol = 1e-12 * max(1.0, float(np.abs(pts).max(initial=0.0)), float(np.abs(X).max(initial=0.0)))
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=tol)
    # two pieces whose distances tie to rounding can trade places; their
    # points of the hull then lie within sqrt(4 d tol) of each other
    # (|x - y|^2 is strongly convex in y)
    assert (np.linalg.norm(R - ref, axis=1) <= tol + 2.0 * np.sqrt(d_ref * tol)).all()


def _two_product_rows(pts, X):
    """The face kernel as it was before one product: the coordinates and
    residuals of every piece from two products, Y @ Mcat - offU and
    Y @ Pcat - offR, and loops over slots and coordinates.  Mcat, Pcat and
    the offsets are read back out of the packed pieces."""
    m, n = pts.shape
    c, A = _polytope_pieces(pts)
    kmax, K = min(m - 1, n), A.shape[2]
    # (n, slots * K), column j K + i slot j of piece i, and the offsets
    pack = lambda P: P[:, :n].transpose(1, 0, 2).reshape(n, -1)
    Mcat, offU = pack(A[:kmax]), -A[:kmax, n].reshape(-1)
    Pcat, offR = pack(A[kmax + 1 :]), -A[kmax + 1 :, n].reshape(-1)
    Y = X - c
    rows = np.arange(Y.shape[0])
    U = (Y @ Mcat - offU).reshape(rows.size, -1, K)
    Rp = (Y @ Pcat - offR).reshape(rows.size, n, K)
    lam0 = np.ones((rows.size, K))
    feas = np.ones(lam0.shape, dtype=bool)
    for j in range(U.shape[1]):
        feas &= U[:, j] >= -1e-12
        lam0 -= U[:, j]
    d2 = Rp[:, 0] * Rp[:, 0]
    for j in range(1, n):
        d2 += Rp[:, j] * Rp[:, j]
    d2[~(feas & (lam0 >= -1e-12))] = np.inf
    return Rp[rows, :, d2.argmin(axis=1)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 8),
    kind=st.sampled_from(["general", "duplicates", "collinear"]),
    rows=st.sampled_from([2, 3, 17, 60, _BLOCK_ROWS + 2]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_product_kernel_matches_the_two_product_kernel(n, m, kind, rows, scale, seed):
    # every shape up to n4m8 (218 pieces), the kernel forced past the route
    # switch too.  At least two rows, as numpy multiplies one row by BLAS
    # gemv, which sums in another order (the kernel pads a one-row block to
    # two; see test_row_alone_equals_row_in_batch).
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n))
    if kind == "duplicates":
        pts = pts[rng.integers(0, max(1, m // 2 + 1), size=m)]
    elif kind == "collinear":
        pts = rng.normal(size=(m, 1)) @ rng.normal(size=(1, n))
    pts = np.unique(scale * (pts + rng.normal(size=n)), axis=0)
    outside = pts.mean(axis=0) + 2.0 * scale * rng.normal(size=(rows, n))
    X = np.stack([
        rng.dirichlet(np.ones(pts.shape[0]), size=rows) @ pts,  # inside
        outside - _two_product_rows(pts, outside),  # on the boundary
        pts[rng.integers(0, pts.shape[0], size=rows)],  # at generators
        outside,
    ], axis=1).reshape(-1, n)[:rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_ENUM_MAX_PIECES", 10**9)
        R, err = _residual_rows(Polytope(pts))(X)
    ref = _two_product_rows(pts, X)
    assert err is None
    if _face_pieces(*pts.shape) <= _ENUM_MAX_PIECES:
        # the shapes the kernel serves: a row may take another piece only
        # where the squared distances tie exactly
        other = (np.vectorize(float.hex)(R) != np.vectorize(float.hex)(ref)).any(axis=1)
        assert ((R[other] ** 2).sum(axis=1) == (ref[other] ** 2).sum(axis=1)).all()
        return
    # past the switch the products are wide, and BLAS rounds the last few
    # columns of a wide product apart from the rest: a piece's residual can
    # then move by rounding, and pieces that tie to rounding trade places,
    # as in test_stacked_kernel_matches_the_loop_over_pieces
    tol = 1e-12 * max(1.0, float(np.abs(pts).max()), float(np.abs(X).max()))
    d_ref = np.linalg.norm(ref, axis=1)
    np.testing.assert_allclose(np.linalg.norm(R, axis=1), d_ref, rtol=0, atol=tol)
    assert (np.linalg.norm(R - ref, axis=1) <= tol + 2.0 * np.sqrt(d_ref * tol)).all()


def _per_size_pieces(pts):
    """_polytope_pieces as it was before one stacked pass, one SVD of the
    (subsets, n, size - 1) difference columns per subset size and
    concatenations after, the reference for the stacked builder.  Returns
    (c, A, subsets, low, cut): every subset examined, in order, and for
    each its smallest singular value and its rank cut (generators: inf and
    0); A holds the pieces of the subsets with low above the cut."""
    m, n = pts.shape
    c, kmax = pts[0], min(m - 1, n)
    off, M, E = [pts - c], [np.zeros((m, kmax, n))], [np.broadcast_to(np.eye(n), (m, n, n))]
    subsets, low, cut = [(i,) for i in range(m)], [np.full(m, np.inf)], [np.zeros(m)]
    for size in range(2, kmax + 2):
        idx = np.array(list(itertools.combinations(range(m), size)))
        P0 = pts[idx[:, 0]]
        D = (pts[idx[:, 1:]] - P0[:, None, :]).transpose(0, 2, 1)
        u, sv, vt = np.linalg.svd(D, full_matrices=False)
        subsets += map(tuple, idx.tolist())
        low.append(sv[:, -1])
        cut.append(1e-12 * np.maximum(sv[:, 0], 1.0))
        keep = ~(sv[:, -1] <= cut[-1])
        u, sv, vt = u[keep], sv[keep], vt[keep]
        Mk = np.zeros((u.shape[0], kmax, n))
        Mk[:, : size - 1] = (vt.transpose(0, 2, 1) / sv[:, None, :]) @ u.transpose(0, 2, 1)
        off.append(P0[keep] - c)
        M.append(Mk)
        E.append(np.eye(n) - u @ u.transpose(0, 2, 1))
    M, E = np.concatenate(M), np.concatenate(E)
    lin = np.concatenate((M, -M.sum(axis=1, keepdims=True), E), axis=1)
    shift = np.einsum("ijl,il->ji", lin, np.concatenate(off))
    shift[kmax] -= 1.0
    A = np.concatenate((lin.transpose(1, 2, 0), -shift[:, None]), axis=1)
    return c, A, subsets, np.concatenate(low), np.concatenate(cut)


@settings(max_examples=80, deadline=None)
@example(n=3, m=1, kind="general", scale=1.0, seed=0)  # kmax = 0: no SVD
@example(n=4, m=8, kind="general", scale=1e8, seed=0)  # 218 pieces
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 8),
    kind=st.sampled_from(["general", "duplicates", "collinear", "coplanar", "thin"]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_builder_matches_the_per_size_builder(n, m, kind, scale, seed):
    # every shape up to n4m8 (218 pieces), on both sides of the route
    # switch: the builder does not read it
    rng = np.random.default_rng(seed)
    if kind == "duplicates":
        pts = rng.normal(size=(m, n))
        pts = pts[rng.integers(0, max(1, m // 2 + 1), size=m)]
    else:
        rank = {"general": n, "collinear": 1, "coplanar": min(2, n), "thin": max(1, n - 1)}[kind]
        pts = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        if kind == "thin":  # about 1e-11 off a hyperplane: subsets near the rank cut
            pts += 10.0 ** rng.uniform(-12.5, -10.5) * rng.normal(size=(m, n))
    pts = np.unique(scale * (pts + rng.normal(size=n)), axis=0)  # as Polytope.unique_points
    m = pts.shape[0]
    kmax = min(m - 1, n)
    own = projection._piece_table(m, n)[2]
    past = ~(own[:, :, None] & own[:, None, :])
    svd, spectra = np.linalg.svd, []

    def one_svd(a, *args, junk=False, **kwargs):
        if not a.size:
            raise np.linalg.LinAlgError("empty stack")  # as numpy 1.24 may
        U, S, Vt = svd(a, *args, **kwargs)
        spectra.append(S)
        if junk:
            # the triplets past a subset's own rank are arbitrary, or zero
            # up to rounding: the builder must not read them
            U, S, Vt = U.copy(), S.copy(), Vt.copy()
            U[past] = rng.normal(size=past.sum())
            S[~own] = rng.uniform(1.0, 2.0, size=(~own).sum())
            Vt[~own] = rng.normal(size=((~own).sum(), n))
        return U, S, Vt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda *args, **kwargs: one_svd(*args, junk=True, **kwargs))
        A_junk = _polytope_pieces(pts)[1]
        mp.setattr(np.linalg, "svd", one_svd)
        c, A = _polytope_pieces(pts)
    assert A_junk.tobytes() == A.tobytes()
    c_ref, A_ref, subsets, low, cut = _per_size_pieces(pts)
    assert c.tobytes() == c_ref.tobytes()
    assert A.flags.c_contiguous and A.shape[:2] == A_ref.shape[:2]
    # one SVD in each of the two builds, none for one point; the table
    # lists the subsets the per-size builder examines, in its order,
    # padded with the first
    assert len(spectra) == (2 if kmax else 0)
    idx, at_low, _ = projection._piece_table(m, n)
    assert [tuple(dict.fromkeys(row)) for row in idx.tolist()] == subsets
    kept_ref = ~(low <= cut)
    kept = kept_ref.copy()
    if kmax:
        S = spectra[1]
        kept[m:] = ~(S[at_low] <= 1e-12 * np.maximum(S[:, 0], 1.0))
    assert A.shape[2] == kept.sum() and A_ref.shape[2] == kept_ref.sum()
    # a subset may flip only where its smallest singular value lies within
    # the SVD's rounding, a few ulps of the largest, of the cut
    flip = kept != kept_ref
    assert (abs(low - cut)[flip] <= 8 * np.finfo(float).eps * (cut / 1e-12)[flip]).all()
    # the pieces both keep, in order, agree to 1e-12 of the data scale,
    # times the condition number of the subset: the linear parts of the
    # coordinates in units of 1 / scale, the offsets of the residual in
    # units of scale
    both = kept & kept_ref
    ours, ref = A[:, :, both[kept]], A_ref[:, :, both[kept_ref]]
    units = np.ones(A.shape[:2] + (1,))
    units[: kmax + 1, :n] = scale
    units[kmax + 1 :, n] = 1.0 / scale
    kappa = np.ones(len(subsets))
    for i in np.flatnonzero(both[m:]) + m:
        s = np.linalg.svd((pts[list(subsets[i][1:])] - pts[subsets[i][0]]).T, compute_uv=False)
        kappa[i] = s[0] / s[-1]
    size = np.maximum(1.0, abs(ref * units).max(axis=(0, 1), initial=0.0))
    err = abs((ours - ref) * units).max(axis=(0, 1), initial=0.0)
    assert (err <= 1e-12 * kappa[both] * size).all()


def test_wolfe_route_builds_no_piece_table(monkeypatch, rng):
    # n12m32 would examine 8.1e8 subsets: its table would not fit in memory
    assert _face_pieces(32, 12) > _ENUM_MAX_PIECES

    def no_table(m, n):
        raise AssertionError(f"piece table built for m={m}, n={n}")

    monkeypatch.setattr(projection, "_piece_table", no_table)
    pts = rng.normal(size=(32, 12))
    d = distance_evaluator(Polytope(pts))(rng.normal(size=(3, 12)))
    assert d.shape == (3,)


@pytest.mark.parametrize("n,m", [(3, 4), (3, 5), (4, 17)])
def test_translation_moves_no_distance(n, m, rng):
    # |d(x + t, P + t) - d(x, P)| <= 64 eps (|t| + scale), on both routes
    pts = rng.normal(size=(m, n))
    X = _queries(rng, pts)
    d = distance_evaluator(Polytope(pts))(X)
    scale = float(np.abs(pts).max() + np.abs(X).max())
    for size in 10.0 ** np.arange(3, 10):
        t = size * rng.normal(size=n) / math.sqrt(n)
        moved = distance_evaluator(Polytope(pts + t))(X + t)
        bound = 64.0 * np.finfo(float).eps * (np.linalg.norm(t) + scale)
        assert np.abs(moved - d).max() <= bound, size


def _nearest_in_affine_hull(S):
    """The point of the affine hull of the rows of S nearest the origin, by
    lstsq on the differences, which cuts singular values as pinv does."""
    D = S[1:] - S[0]
    t, *_ = np.linalg.lstsq(D.T, -S[0], rcond=None)
    return S[0] + t @ D


def test_singular_bordered_systems(rng):
    # a repeated generator makes the bordered system exactly singular, a
    # nearly repeated one nearly so; both fall back to the pseudo-inverse
    Q = rng.normal(size=(3, 3))
    stacks = np.stack([
        Q,
        np.stack([Q[0], Q[1], Q[1]]),
        np.stack([Q[0], Q[1], Q[1] + 1e-17]),
        np.stack([Q[0], Q[1], Q[1] + 1e-3]),
    ])
    alpha = _affine_minimizer_rows(stacks, np.full(4, 3))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    for a, S in zip(alpha, stacks):
        np.testing.assert_allclose(a @ S, _nearest_in_affine_hull(S), atol=1e-10)
    np.testing.assert_array_equal(alpha[0], _affine_minimizer_rows(stacks[:1], np.full(1, 3))[0])


def test_mixed_counts_solve_each_row_as_alone(monkeypatch, rng):
    # counts 1, 2, 3 and 5 in one call, an exactly singular count-3 row
    # among regular ones: each row's coefficients, bit for bit, are those
    # of the same row solved by itself
    n, k = 4, 5
    cnt = np.array([3, 1, 5, 2, 3, 3, 5, 2, 1, 3])
    Qs = rng.normal(size=(cnt.size, k, n))
    Qs[4, 2] = Qs[4, 1]  # repeated generator: exactly singular
    real = np.linalg.slogdet
    calls = []
    monkeypatch.setattr(np.linalg, "slogdet", lambda A: calls.append(A.shape) or real(A))
    alpha = _affine_minimizer_rows(Qs, cnt)
    assert calls == [(4, 4, 4)]  # the count-3 group, singular row and all
    monkeypatch.undo()
    for i in range(cnt.size):
        alone = _affine_minimizer_rows(Qs[i : i + 1], cnt[i : i + 1])[0]
        assert alpha[i].tobytes() == alone.tobytes(), i
        assert not alpha[i, cnt[i] :].any()
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_batched_route_under_numpy1_solve_rules(monkeypatch, rng):
    # numpy before 2.0 reads b as one vector per matrix only when
    # b.ndim == a.ndim - 1; any other 1-D b fails against a stack
    solve = np.linalg.solve

    def solve_numpy1(a, b):
        if np.ndim(b) == 1 and np.ndim(a) > 2:
            raise ValueError("solve: Input operand 1 does not have enough dimensions")
        return solve(a, b)

    pts = rng.normal(size=(17, 4))
    X = _queries(rng, pts)
    expected = distance_evaluator(Polytope(pts))(X)
    monkeypatch.setattr(np.linalg, "solve", solve_numpy1)
    np.testing.assert_array_equal(distance_evaluator(Polytope(pts))(X), expected)
    Q = rng.normal(size=(3, 3))
    stacks = np.stack([Q, np.stack([Q[0], Q[1], Q[1]])])  # one exactly singular
    alpha = _affine_minimizer_rows(stacks, np.full(2, 3))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_thin_polytopes_solve_where_the_scalar_solver_does():
    # generators 1e-9 thick in their last coordinate make nearly singular
    # bordered systems; wherever min_norm_point solves every row, so must
    # the batched route
    solved = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(17, 4))
        pts[:, -1] *= 1e-9
        X = np.concatenate([rng.dirichlet(np.ones(17), size=20) @ pts, 3.0 * rng.normal(size=(40, 4))])
        try:
            ref = [np.linalg.norm(min_norm_point(pts - x, 1e-18, 170)[0]) for x in X]
        except ConvergenceError:
            continue
        np.testing.assert_allclose(distance_evaluator(Polytope(pts))(X), ref, rtol=0, atol=1e-8)
        solved += 1
    assert solved >= 8


def test_wolfe_gap_certifies_distance(rng):
    # |w|^2 - min_i <p_i - x, w> = g bounds the true distance from below
    # by (|w|^2 - g) / |w|
    pts = rng.normal(size=(24, 4))
    X = np.concatenate([3.0 * rng.normal(size=(30, 4)), pts[:3] + 1e-3])
    W, gaps = _min_norm_rows(pts, X, 1e-18, 1000)
    d = np.linalg.norm(W, axis=1)
    ref = np.array([metric_projection(Polytope(pts), x)[1] for x in X])
    scale2 = np.maximum(1.0, ((pts[None] - X[:, None]) ** 2).sum(axis=2).max(axis=1))
    assert (gaps >= 0).all() and (gaps <= 64 * np.finfo(float).eps * scale2).all()
    assert (ref <= d + 1e-12).all()
    assert (ref >= (d * d - gaps) / d - 1e-12).all()


def test_empty_batch():
    pts = np.random.default_rng(3).normal(size=(17, 4))
    assert distance_evaluator(Polytope(pts))(np.zeros((0, 4))).shape == (0,)


def test_iteration_cap_names_worst_row(rng):
    # a cap of one major iteration: from an edge start (_wolfe_seed) every
    # row here needs at most two
    pts = rng.normal(size=(17, 4))
    rows, residuals = [], []
    for x in 3.0 * rng.normal(size=(20, 4)):
        try:
            _min_norm_rows(pts, x[None, :], 1e-18, 1)
        except ConvergenceError as one:
            rows.append(x)
            residuals.append(one.residual)
    assert len(rows) >= 2
    with pytest.raises(ConvergenceError) as err:
        _min_norm_rows(pts, np.array(rows), 1e-18, 1)
    assert err.value.residual == max(residuals)
    assert "iteration cap" in str(err.value)


def test_hausdorff_above_the_switch(rng):
    a, b = rng.normal(size=(12, 6)), rng.normal(size=(12, 6)) + 0.3
    assert _face_pieces(12, 6) > _ENUM_MAX_PIECES
    ref = max(
        max(metric_projection(Polytope(b), p)[1] for p in a),
        max(metric_projection(Polytope(a), q)[1] for q in b),
    )
    assert math.isclose(hausdorff(Polytope(a), Polytope(b)), ref, rel_tol=0, abs_tol=1e-9)
