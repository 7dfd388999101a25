"""The row kernels of a ball_sup level, each against the construction it
replaces, bit for bit: the row norms against np.linalg.norm, the cube split
against the general box split, and the probe rows against fresh draws from
the probe seed.
"""

import numpy as np
import pytest

import hyperconvex.hypermetrics as hm
from hyperconvex import Flat, Polytope
from hyperconvex.projection import _row_norms


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
    # k < 8 takes the plane-by-plane sum, k >= 8 the one reduce call
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
        for H in (rng.uniform(1e-6, 2.0, size=(boxes, k)), np.repeat(rng.uniform(1e-6, 2.0, (boxes, 1)), k, axis=1)):
            axes = np.ones((boxes, k), dtype=bool)
            kids, halves = hm._split(C, H, axes)
            ref_kids, ref_halves = _general_split(C, H, axes)
            assert kids.shape == ref_kids.shape == (boxes << k, k)
            assert np.array_equal(_bits(kids), _bits(ref_kids))
            assert np.array_equal(_bits(halves), _bits(ref_halves))


def test_cube_split_keeps_cubes_within_the_axis_cap():
    # a cube's children are cubes that split every axis again
    k = hm._SPLIT_AXES
    C, H = np.zeros((1, k)), np.full((1, k), 3.0)
    axes = hm._split_axes(H)
    assert axes.all()
    kids, halves = hm._split(C, H, axes)
    assert kids.shape[0] == 1 << k and (halves == 1.5).all() and hm._split_axes(halves).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_probe_rows_equal_fresh_draws(n):
    # the probe rows as drawn from a fresh generator on every call
    rng = np.random.default_rng(n)
    a = Polytope(rng.normal(size=(3, n)))
    b = Flat(rng.normal(size=n), np.eye(n)[:1])
    radius = 2.5
    gen = np.random.default_rng(hm._PROBE_SEED)
    gauss = gen.standard_normal((max(4 * n, 16), n))
    ball = gen.standard_normal((96, n))
    ball /= np.linalg.norm(ball, axis=1, keepdims=True)
    ball *= radius * gen.random((96, 1)) ** (1.0 / n)
    for _ in range(2):
        probes = hm._ambient_probes(a, b, radius)
        assert np.array_equal(_bits(probes[-96:]), _bits(ball))
        dirs = hm._unit_directions(a, b, n)
        assert np.array_equal(_bits(dirs[-gauss.shape[0] :]), _bits(gauss / np.linalg.norm(gauss, axis=1)[:, None]))
        ladder = hm._ladder_probes(a, b, 4)
        assert np.array_equal(_bits(ladder[: dirs.shape[0]]), _bits((1.0 - 1e-12) * 1.0 * dirs))
    for draw in hm._probe_draws(n):
        assert not draw.flags.writeable
