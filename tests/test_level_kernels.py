"""The row kernels of a ball_sup level, each against the construction it
replaces, bit for bit: the row norms against np.linalg.norm and the cube
split against the general box split, kept here as the reference; the norms
that the row clamp returns; and the deterministic probe rows a search
starts from.
"""

import numpy as np
import pytest

import hyperconvex.hypermetrics as hm
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
import hyperconvex.projection as projection
from hyperconvex.projection import _row_norms

from test_level_split import _record_sups


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _norm_inputs(rng, k):
    """Row stacks of trailing length k: shapes (rows, k) and (4, rows, k) at
    1 to 5000 rows, unit and 1e+-150 magnitudes, with zero rows mixed in."""
    for rows in (1, 2, 7, 8, 9, 63, 500, 5000):
        for shape in ((rows, k), (4, rows, k)):
            for scale in (1.0, 1e150, 1e-150):
                X = rng.normal(size=shape) * scale * np.exp(rng.uniform(-3.0, 3.0, size=shape))
                X[..., :: 3, :] = 0.0
                yield X


@pytest.mark.parametrize("k", range(1, 13))
def test_row_norms_equal_numpy_norm_bit_for_bit(k):
    # 1 < k < 8 takes the plane-by-plane sum past 64 k rows (k = 1 always),
    # k >= 8 and smaller stacks the one reduce call
    rng = np.random.default_rng(k)
    for X in _norm_inputs(rng, k):
        for Y in (X, np.asfortranarray(X)):
            assert np.array_equal(_bits(_row_norms(Y)), _bits(np.linalg.norm(Y, axis=-1)))


def _general_split(C, H, axes):
    """The general box split: child t of a box takes the upper half along its
    p-th split axis where bit p of t is set, the lower half elsewhere."""
    count = 1 << axes.sum(axis=1)
    box = np.repeat(np.arange(C.shape[0]), count)
    t = np.arange(box.size) - np.repeat(np.cumsum(count) - count, count)
    bit = (t[:, None] >> np.maximum(np.cumsum(axes, axis=1) - 1, 0)[box]) & 1
    axes, half = axes[box], 0.5 * H[box]
    return C[box] + np.where(axes, (2.0 * bit - 1.0) * half, 0.0), np.where(axes, half, H[box])


@pytest.mark.parametrize("k", range(1, 7))
def test_cube_split_equals_the_general_split(k):
    rng = np.random.default_rng(100 + k)
    for boxes in (1, 5, 230):
        C = rng.normal(size=(boxes, k)) * 10.0 ** rng.uniform(-3, 3, size=(boxes, 1))
        h = rng.uniform(1e-6, 2.0, boxes)
        T = hm._split(np.vstack((C.T, h)), k)
        kids, halves = T[:k].T, T[k]
        H = np.repeat(h[:, None], k, axis=1)
        ref_kids, ref_halves = _general_split(C, H, np.ones((boxes, k), dtype=bool))
        assert kids.shape == ref_kids.shape == (boxes << k, k)
        assert np.array_equal(_bits(kids), _bits(ref_kids))
        assert (ref_halves == halves[:, None]).all()


def test_cube_split_keeps_cubes_within_the_axis_cap():
    # a 16-D cube's 2^16 children fill one level, the widest span a level
    # can split
    k = 16
    T = hm._split(np.append(np.zeros(k), 3.0)[:, None], k)
    kids, halves = T[:k].T, T[k]
    assert kids.shape[0] == 1 << k == hm._LEVEL_ROWS and (halves == 1.5).all()
    assert hm._LEVEL_ROWS >> k == 1 and hm._LEVEL_ROWS >> (k + 1) == 0


@pytest.mark.parametrize("k", range(1, 9))
def test_clamp_rows_returns_the_norms_of_its_rows(k):
    # ball_sup reads the shells of clamped centers and probes off these norms
    rng = np.random.default_rng(200 + k)
    for X in _norm_inputs(rng, k):
        X = X.reshape(-1, k)
        for r in (1e-3, 1.0, float(np.median(_row_norms(X))), 1e3):
            Y, t = projection._clamp_rows(X, r)
            assert np.array_equal(_bits(t), _bits(_row_norms(Y)))
            inside = _row_norms(X) <= r
            assert np.array_equal(_bits(Y[inside]), _bits(X[inside]))
            assert (t <= r * (1.0 + 4e-16)).all()


def _probe_pairs(rng, n):
    """A polytope against a flat, two polytopes and two subspaces in R^n."""
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0]
    yield Polytope(rng.normal(size=(3, n))), Flat(rng.normal(size=n), frame[:1])
    yield Polytope(rng.normal(size=(3, n))), Polytope(rng.normal(size=(2, n)))
    yield Subspace(frame[:1]), Subspace(frame[-1:])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_probe_rows_are_the_data_directions_on_the_ladder(n):
    rng = np.random.default_rng(n)
    for a, b in _probe_pairs(rng, n):
        for radius in (0.5, 4.0, 64.0):
            probes, ladder = hm._probes(a, b, radius)
            # the same rows on every call, whatever numpy's global state
            np.random.seed(n)
            np.random.standard_normal(5)
            again, split = hm._probes(a, b, radius)
            assert np.array_equal(_bits(again), _bits(probes)) and split == ladder
            (Pa, La), (Pb, Lb) = hm._rows(a), hm._rows(b)
            U = [u / np.linalg.norm(u) for u in np.vstack([Pa, La, Pb, Lb]) if np.linalg.norm(u) > 1e-12]
            radii = [r for r in hm._LADDER if r < radius] + [radius]
            expected = [s * (1.0 - 1e-12) * r * u for s in (1.0, -1.0) for r in radii for u in U]
            # each row once: a basis row L enters as +L and -L, not twice each;
            # the ladder is linear in the data, 2 (m_a + m_b) rows a radius
            # for two polytopes
            assert ladder == len(expected) <= 2 * (len(Pa) + len(La) + len(Pb) + len(Lb)) * len(radii)
            for row in expected:
                assert np.isclose(probes[:ladder], row, rtol=1e-14, atol=1e-14).all(axis=1).any()
            # after the ladder, the data rows: both sets' P rows and the origin
            assert np.array_equal(probes[ladder:], np.vstack([Pa, Pb, np.zeros((1, n))]))


def test_two_polytopes_probe_a_ladder_linear_in_their_points():
    # 24 + 24 points in R^8 at radius 64: ten radii (the nine _LADDER radii
    # below 64, and 64), two signs, 48 directions, then the 49 data rows
    rng = np.random.default_rng(24)
    a, b = (Polytope(rng.normal(size=(24, 8))) for _ in range(2))
    probes, ladder = hm._probes(a, b, 64.0)
    assert (ladder, probes.shape[0]) == (960, 1009)


def test_sets_without_data_directions_are_at_distance_zero():
    # both sets are {0}: the pair has no data direction, and its probes are
    # the origin rows alone
    a, b = Flat(np.zeros(3), np.zeros((0, 3))), zero_subspace(3)
    assert not hm._probes(a, b, 2.0)[0].any()
    for iv in (
        truncated_hausdorff(a, b, 2.0),
        sup_distance_gap(a, b, 2.0),
        attouch_wets(a, b),
        aw_origin(a, b),
    ):
        assert (iv.lo, iv.hi) == (0.0, 0.0) and iv.certified


def test_readme_pair_takes_the_line_route(monkeypatch):
    # README's segment pair, whose value 1/11 is exact in floating point:
    # its span is a line, so one closed-form sup evaluates the gap at plus
    # and minus the outer sphere of each of its 64 shells and runs no level
    ests = _record_sups(monkeypatch)
    a = Polytope(np.array([[0.0, 0.0], [10.0, 0.0]]))
    b = Polytope(np.array([[0.0, 0.0], [20.0, 0.0]]))
    iv = attouch_wets(a, b, AWParams())
    assert (iv.lo, iv.hi) == (1.0 / 11.0, 1.0 / 11.0) and iv.certified
    assert [(e.evals, e.levels, e.certified) for e in ests] == [(2 * 64, 0, True)]
