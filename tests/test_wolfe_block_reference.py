"""The batched Wolfe solver against a reference that pins its arithmetic.

The _reference_* functions below are the lockstep solver (_wolfe_block,
_affine_minimizer_rows, the corral solve _corral_solve it shares with the
scalar solver, _slot_sum, _block_error) written with a gather per count
group, np.clip, np.take_along_axis and a compaction of every per-row array
whenever a row leaves.  projection's solver may issue fewer and cheaper
numpy calls but must perform the same floating-point operations in the same
order, so _min_norm_rows' (W, gaps) and the floor that _wolfe_block raises
are compared through float.hex, and a failure must raise the same exception
class with the same message, residual and best point.  The starting corrals
(_wolfe_seed) come from a loop over rows and over the segments from each
row's nearest generator, and are also compared on their own, weights
included.  The draws reach the pseudo-inverse fallback (duplicated and
1e-9 thin generators), generators that coincide once shifted by a row, one
and two generators, count groups of mixed size, the floor's early exits,
the iteration cap (max_iter=2) and blocks on both sides of _BLOCK_ROWS.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import ConvergenceError
from hyperconvex import projection
from hyperconvex.projection import _ALPHA_MAX, _BLOCK_ROWS, _EPS, _wolfe_cap

GAP_TOL = 1e-18  # what _residual_rows passes


def _reference_solve_e0(A):
    B = np.zeros(A.shape[:-1] + (1,))
    B[:, 0] = 1.0
    return np.linalg.solve(A, B)[..., 0]


def _reference_slot_sum(a):
    return a.cumsum(axis=1)[:, -1]


def _reference_affine_minimizer_rows(Qs, cnt):
    alpha = np.zeros(Qs.shape[:2])
    lo = int(cnt.min())
    if lo == cnt.max():
        groups = [(lo, slice(None))]
    else:
        groups = [(c, np.flatnonzero(cnt == c)) for c in np.unique(cnt)]
    for c, rows in groups:
        if c == 1:
            alpha[rows, 0] = 1.0
            continue
        S = Qs[rows, :c]
        S = S / np.abs(S).max(axis=(1, 2))[:, None, None]
        A = np.ones((S.shape[0], c + 1, c + 1))
        A[:, 0, 0] = 0.0
        A[:, 1:, 1:] = S @ S.transpose(0, 2, 1)
        try:
            sol = _reference_solve_e0(A)
        except np.linalg.LinAlgError:
            sol = np.full((S.shape[0], c + 1), np.nan)
            regular = np.linalg.slogdet(A)[0] != 0
            if regular.any():
                sol[regular] = _reference_solve_e0(A[regular])
        bad = ~(np.abs(sol[:, 1:]) <= _ALPHA_MAX).all(axis=1)
        if bad.any():
            sol[bad] = np.linalg.pinv(A[bad], rcond=_EPS * (c + 1))[:, :, 0]
        alpha[rows, :c] = sol[:, 1:]
    return alpha


def _reference_block_error(message, Q, W, rows):
    gap = (W[rows] * W[rows]).sum(axis=1) - (Q[rows] @ W[rows, :, None])[:, :, 0].min(axis=1)
    worst = int(np.argmax(gap))
    return ConvergenceError(message, best=W[rows[worst]], residual=float(gap[worst]))


def _reference_seed(Q, sq):
    """The starting corral of each row, one row and one segment at a time:
    the nearest generator q_f, or the minimum-norm point q_f - t e,
    e = q_f - q_j, of the segment from q_f whose point lies nearest, where
    that point is strictly inside it (0 < t < 1)."""
    b, m, n = Q.shape
    first = sq.argmin(axis=1)
    idx = np.zeros((b, max(m, 2)), dtype=np.intp)
    lam = np.zeros(idx.shape)
    cnt = np.ones(b, dtype=np.intp)
    W = np.empty((b, n))
    for r in range(b):
        f = int(first[r])
        qf = Q[r, f]
        edges = [qf - q for q in Q[r]]
        best, j_best, t_best = 0.0, 0, 0.0
        for j, e in enumerate(edges):
            ee, num = float(np.einsum("i,i->", e, e)), float(np.einsum("i,i->", e, qf))
            if not 0.0 < num < ee:  # t = num / ee would not lie in (0, 1)
                continue
            t = num / ee
            if num * t > best:  # |q_f|^2 - num t is the point's squared norm
                best, j_best, t_best = num * t, j, t
        W[r] = qf - t_best * edges[j_best]
        idx[r, :2] = f, j_best
        lam[r, :2] = 1.0 - t_best, t_best
        cnt[r] = 2 if t_best > 0.0 else 1
    return idx, lam, cnt, W


def _reference_wolfe_block(pts, X, gap_tol, max_iter, floor=None):
    m, n = pts.shape
    Q = pts[None, :, :] - X[:, None, :]
    sq = np.einsum("bij,bij->bi", Q, Q)
    scale2 = np.maximum(1.0, sq.max(axis=1))
    tol = np.maximum(gap_tol, 64.0 * _EPS * scale2)
    stall_tol = 1e5 * 64.0 * _EPS * scale2
    allow = 64.0 * _EPS * (n + 1) * np.sqrt(scale2)

    b = X.shape[0]
    W_out = np.empty((b, n))
    gap_out = np.empty(b)
    ids = np.arange(b)
    idx, lam, cnt, W = _reference_seed(Q, sq)
    rows, slots = np.arange(b), np.arange(idx.shape[1])
    w2_last = np.full(b, np.inf)

    for _ in range(max_iter):
        dots = (Q @ W[:, :, None])[:, :, 0]
        w2 = (W * W).sum(axis=1)
        j = dots.argmin(axis=1)
        low = dots[rows, j]
        gap = w2 - low
        active = slots < cnt[:, None]
        done = gap <= tol
        if floor is not None:
            nw = np.sqrt(w2)
            with np.errstate(divide="ignore", invalid="ignore"):
                lower = np.where(nw > 0, low / nw, 0.0) - allow
            floor = max(floor, float(lower.max()))
            done |= nw < floor
        stalled = ~done & ((idx == j[:, None]) & active).any(axis=1)
        if (stalled & (gap > stall_tol)).any():
            raise _reference_block_error(
                "minimum-norm point stalled above tolerance", Q, W,
                np.flatnonzero(stalled & (gap > stall_tol)),
            )
        done |= stalled | ((w2 >= w2_last) & (gap <= stall_tol))
        if done.any():
            W_out[ids[done]] = W[done]
            gap_out[ids[done]] = np.maximum(gap[done], 0.0)
            live = ~done
            if not live.any():
                return W_out, gap_out, floor
            ids, Q, W, w2, idx, lam, cnt, j, tol, stall_tol, allow = (
                v[live] for v in (ids, Q, W, w2, idx, lam, cnt, j, tol, stall_tol, allow)
            )
            rows = np.arange(ids.size)
        w2_last = w2
        idx[rows, cnt] = j
        lam[rows, cnt] = 0.0
        cnt += 1

        pend = rows
        for _ in range(m + 2):
            k = int(cnt[pend].max())
            sub = idx[pend, :k]
            valid = np.arange(k) < cnt[pend, None]
            Qs = Q[pend[:, None], sub]
            alpha = _reference_affine_minimizer_rows(Qs, cnt[pend])
            corral = ((alpha > -1e-13) | ~valid).all(axis=1)
            if corral.any():
                c = np.clip(alpha[corral], 0.0, None)
                c /= _reference_slot_sum(c)[:, None]
                lam[pend[corral], :k] = c
                W[pend[corral]] = _reference_slot_sum(c[:, :, None] * Qs[corral])
                if corral.all():
                    break
                pend, sub, valid, alpha = pend[~corral], sub[~corral], valid[~corral], alpha[~corral]
            lm = lam[pend, :k]
            neg = valid & (alpha < -1e-13)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(neg, lm / (lm - alpha), np.inf)
            theta = np.minimum(t.min(axis=1), 1.0)[:, None]
            lm = np.clip((1.0 - theta) * lm + theta * alpha, 0.0, None)
            drop = valid & (lm <= 1e-13)
            none = ~drop.any(axis=1)
            if none.any():
                lmin = np.where(valid, lm, np.inf).min(axis=1, keepdims=True)
                drop[none] = (valid & (lm == lmin))[none]
            keep = valid & ~drop
            empty = np.flatnonzero(~keep.any(axis=1))
            keep[empty, lm[empty].argmax(axis=1)] = True
            order = np.argsort(~keep, axis=1, kind="stable")
            lm = np.take_along_axis(np.where(keep, lm, 0.0), order, axis=1)
            idx[pend, :k] = np.take_along_axis(sub, order, axis=1)
            lam[pend, :k] = lm / _reference_slot_sum(lm)[:, None]
            cnt[pend] = keep.sum(axis=1)
        else:
            raise _reference_block_error("minor cycle failed to restore a corral", Q, W, pend)
    raise _reference_block_error(
        "minimum-norm point iteration cap exceeded", Q, W, np.arange(ids.size)
    )


def _blocks(block, pts, X, gap_tol, max_iter, floor):
    """_min_norm_rows' loop over blocks with the floor it leaves behind."""
    W = np.empty(X.shape)
    gaps = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        W[rows], gaps[rows], floor = block(pts, X[rows], gap_tol, max_iter, floor)
    return W, gaps, floor


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _outcome(solve, *args):
    """A solver's result as hex strings, or its exception with its residual
    and best point."""
    try:
        out = solve(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        residual = getattr(exc, "residual", None)
        best = getattr(exc, "best", None)
        return (
            "raise",
            type(exc).__name__,
            str(exc),
            None if residual is None else float(residual).hex(),
            None if best is None else _hex(best),
        )
    return ("ok",) + tuple(None if v is None else _hex(v) for v in out)


def _assert_same(pts, X, max_iter, floor):
    want = _outcome(_blocks, _reference_wolfe_block, pts, X, GAP_TOL, max_iter, floor)
    got = _outcome(_blocks, projection._wolfe_block, pts, X, GAP_TOL, max_iter, floor)
    assert got == want
    # _min_norm_rows is the public face of the same loop
    rows = _outcome(projection._min_norm_rows, pts, X, GAP_TOL, max_iter, floor)
    assert rows == (want[:3] if want[0] == "ok" else want)
    return want


def _generators(rng, n, m, kind):
    """m generators in R^n, some of them affinely dependent by kind."""
    if kind == "collinear":
        a, b = rng.normal(size=(2, n))
        return a + rng.uniform(-1.0, 2.0, size=(m, 1)) * (b - a)
    if kind == "coplanar":
        c, u, v = rng.normal(size=(3, n))
        st_ = rng.uniform(-1.0, 1.0, size=(m, 2))
        return c + st_[:, :1] * u + st_[:, 1:] * v
    pts = rng.normal(size=(m, n))
    if kind == "coincident":
        # half of them 1e8 out and the rest near the origin beside twins 1e-9
        # away, which rows at the hull's scale shift onto the same point
        pts[: m // 2] *= 1e8
        return np.concatenate([pts, pts[m // 2 :] + 1e-9 * rng.normal(size=(m - m // 2, n))])
    if kind == "thin":
        pts[:, -1] *= 1e-9
    if kind == "duplicated":
        pts = np.concatenate([pts, pts[rng.integers(0, m, size=3)]])
        pts = pts[rng.permutation(pts.shape[0])]
    return pts


def _rows(rng, pts, count):
    """count query rows, each inside the hull, on its boundary or outside."""
    n = pts.shape[1]
    c = pts.mean(axis=0)
    inside = rng.dirichlet(np.ones(pts.shape[0]), size=count) @ pts
    reach = rng.uniform(0.2, 2.0, size=(count, 1)) * float(np.abs(pts - c).max())
    outside = c + reach * rng.normal(size=(count, n))
    where = rng.integers(0, 3, size=count)
    X = np.where((where == 0)[:, None], inside, outside)
    on = np.flatnonzero(where == 1)
    if on.size:
        # the nearest point of an outside point lies on the boundary
        try:
            X[on] += _blocks(_reference_wolfe_block, pts, X[on], GAP_TOL, _wolfe_cap(pts), None)[0]
        except ConvergenceError:
            pass
    return X


def _draw(seed, n, m, kind, exponent, count, floor_kind, capped):
    rng = np.random.default_rng(seed)
    pts = _generators(rng, n, m, kind) * 10.0**exponent
    X = _rows(rng, pts, count)
    floor = {"none": None, "zero": 0.0}.get(floor_kind)
    if floor_kind == "positive":
        # a fraction of the set's reach, so that some rows retire at once
        floor = float(rng.uniform(0.0, 0.5) * np.abs(pts - pts.mean(axis=0)).max())
    max_iter = 2 if capped else _wolfe_cap(pts)
    return pts, X, max_iter, floor


SHAPE = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m=st.integers(1, 40),
    kind=st.sampled_from(["generic", "duplicated", "collinear", "coplanar", "thin", "coincident"]),
    exponent=st.floats(-6.0, 8.0),
    floor_kind=st.sampled_from(["none", "zero", "positive"]),
    capped=st.sampled_from([False, False, False, True]),
)


@settings(max_examples=500, deadline=None)
@given(count=st.integers(1, 64), **SHAPE)
def test_wolfe_block_matches_the_reference(seed, n, m, kind, exponent, count, floor_kind, capped):
    _assert_same(*_draw(seed, n, m, kind, exponent, count, floor_kind, capped))


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 64), **SHAPE)
def test_seed_matches_the_reference(seed, n, m, kind, exponent, count, floor_kind, capped):
    # the weights too, which the solve reads only when a corral step has
    # two negative coefficients to choose between
    pts, X = _draw(seed, n, m, kind, exponent, count, floor_kind, capped)[:2]
    Q = pts[None, :, :] - X[:, None, :]
    sq = np.einsum("bij,bij->bi", Q, Q)
    idx, lam, cnt, W = projection._wolfe_seed(Q, sq)
    ref_idx, ref_lam, ref_cnt, ref_W = _reference_seed(Q, sq)
    assert (cnt == ref_cnt).all() and (idx[:, :2] == ref_idx[:, :2]).all()
    assert _hex(lam[:, :2]) == _hex(ref_lam[:, :2]) and _hex(W) == _hex(ref_W)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 64), **{**SHAPE, "m": st.sampled_from([1, 2])})
def test_one_or_two_generators_match_the_reference(
    seed, n, m, kind, exponent, count, floor_kind, capped
):
    # one generator leaves the seed no segment, two leave it one
    _assert_same(*_draw(seed, n, m, kind, exponent, count, floor_kind, capped))


@settings(max_examples=6, deadline=None)
@given(count=st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]), **SHAPE)
def test_blocks_around_the_block_size_match_the_reference(
    seed, n, m, kind, exponent, count, floor_kind, capped
):
    _assert_same(*_draw(seed, n, m, kind, exponent, count, floor_kind, capped))
