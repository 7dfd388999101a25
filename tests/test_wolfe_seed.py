"""The starting corrals of the batched Wolfe solver (_wolfe_seed).

A row starts at its nearest generator q_f, or at the minimum-norm point of a
segment from q_f where that point lies strictly inside the segment and
strictly nearer.  The start is never farther from the origin than q_f, nor
than the nearest point of any segment from q_f, up to rounding.  A segment
start holds two weights in (0, 1) that sum to 1 (to rounding), combine q_f
and q_j into the start, and leave it orthogonal to the segment.  One generator, and
generators that coincide once shifted by the row, give a vertex start with
no numpy warning.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex.projection import _EPS, _wolfe_seed

from test_wolfe_block_reference import _generators, _rows


def _seed(Q):
    """_wolfe_seed on Q, with every numpy warning an error."""
    sq = np.einsum("bij,bij->bi", Q, Q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _wolfe_seed(Q, sq) + (sq,)


def _check(Q):
    idx, lam, cnt, W, sq = _seed(Q)
    b, m, n = Q.shape
    rows = np.arange(b)
    f = sq.argmin(axis=1)
    assert idx.shape == lam.shape == (b, max(m, 2))
    assert np.isin(cnt, (1, 2)).all() and (idx[:, 0] == f).all()
    qf, qj = Q[rows, f], Q[rows, idx[:, 1]]
    # the start carries rounding of a few eps of the largest |q|, and as the
    # seed ranks segments by |q_f|^2 - |w|^2, squared norms a few eps of the
    # largest |q|^2
    scale = np.sqrt(sq.max(axis=1))
    allow = 16.0 * n * _EPS * scale
    allow2 = allow * scale
    norm2 = (W * W).sum(axis=1)
    assert (norm2 <= sq[rows, f] + allow2).all()
    # nearest point of every segment from q_f, t clipped to [0, 1]
    E = qf[:, None] - Q
    ee = (E * E).sum(axis=2)
    num = (E * qf[:, None]).sum(axis=2)
    t = np.clip(np.divide(num, ee, out=np.zeros(ee.shape), where=ee > 0), 0, 1)
    nearest2 = ((qf[:, None] - t[:, :, None] * E) ** 2).sum(axis=2).min(axis=1)
    assert (norm2 <= nearest2 + allow2).all()

    vertex = cnt == 1
    assert (W[vertex] == qf[vertex]).all() and (lam[vertex, 0] == 1.0).all()
    edge = ~vertex
    lo, hi = lam[edge, 0], lam[edge, 1]
    # 1 - t rounds to 1 for t below eps / 2
    assert ((0 < hi) & (hi < 1) & (0 < lo) & (lo <= 1) & (lo == 1.0 - hi)).all()
    assert (abs(lo + hi - 1.0) <= _EPS).all()
    combined = lo[:, None] * qf[edge] + hi[:, None] * qj[edge]
    assert (abs(combined - W[edge]) <= allow[edge, None]).all()
    # the start is the segment's minimum-norm point: orthogonal to it
    e = qf[edge] - qj[edge]
    assert (abs((W[edge] * e).sum(axis=1)) <= allow[edge] * np.linalg.norm(e, axis=1)).all()
    return cnt


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(1, 24),
    kind=st.sampled_from(["generic", "duplicated", "collinear", "coplanar", "thin", "coincident"]),
    exponent=st.floats(-6.0, 8.0),
)
def test_seed_is_never_farther_than_a_generator_or_segment(seed, n, m, kind, exponent):
    rng = np.random.default_rng(seed)
    pts = _generators(rng, n, m, kind) * 10.0**exponent
    X = _rows(rng, pts, 16)
    _check(pts[None] - X[:, None])


def test_segment_and_vertex_starts_by_hand():
    Q = np.array(
        [
            [[1.0, -1.0], [1.0, 1.0]],  # equal norms: the midpoint (1, 0)
            [[1.0, 0.0], [1.5, 1.0]],  # the segment leaves q_f outward: q_f
            [[2.0, 0.0], [3.0, 0.0]],  # collinear, pointing away: q_f
        ]
    )
    idx, lam, cnt, W, _ = _seed(Q)
    assert cnt.tolist() == [2, 1, 1]
    assert W.tolist() == [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert lam[0].tolist() == [0.5, 0.5] and idx[0].tolist() == [0, 1]
    # the nearer of two segments wins
    Q = np.array([[[1.0, 0.0], [0.0, 5.0], [-1.0, 1.0]]])
    idx, lam, cnt, W, _ = _seed(Q)
    assert cnt.tolist() == [2] and idx[0, :2].tolist() == [0, 2]
    assert np.allclose(W[0], [0.2, 0.4]) and np.allclose(lam[0, :2], [0.6, 0.4])


def test_one_generator_gets_two_slots():
    Q = np.random.default_rng(1).normal(size=(5, 1, 3))
    idx, lam, cnt, W, _ = _seed(Q)
    assert idx.shape == lam.shape == (5, 2)
    assert (cnt == 1).all() and (W == Q[:, 0]).all() and (lam[:, 0] == 1.0).all()


def test_generators_that_coincide_after_the_shift():
    # 1e-9 apart near the origin, equal once shifted by rows about 1e8 away
    rng = np.random.default_rng(2)
    base = rng.normal(size=(4, 3))
    pts = np.concatenate([base, base + 1e-9 * rng.normal(size=base.shape)])
    X = 1e8 * rng.normal(size=(32, 3))
    Q = pts[None] - X[:, None]
    assert (Q[:, :4] == Q[:, 4:]).all(axis=2).any()
    _check(Q)
    # every generator on one point: no segment at all
    assert (_check(np.broadcast_to(Q[:, :1], Q.shape).copy()) == 1).all()
