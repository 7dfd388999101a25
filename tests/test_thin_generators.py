"""The batched Wolfe route on thin generators at large scales.

Generators 1e-9 thick in their last coordinate and scaled by 1e3 to 1e8
give corrals whose bordered systems are nearly singular and whose Gram
entries grow like scale^2 beside the border of ones.  The corral solve
that both Wolfe solvers share divides each system by its largest entry
first; without that, the batched route stalled above tolerance on some of
these rows and returned a NaN row without raising on the first draw below.
Every row must come back finite and agree with the scalar min_norm_point
within both solvers' certificates.
"""

import warnings

import numpy as np
import pytest

from hyperconvex.projection import _min_norm_rows, min_norm_point

from test_wolfe_block_reference import GAP_TOL, _draw

# 2-D thin generators at scale 8.2e7, where the batched route returned a NaN row
NAN_DRAW = (3761455871, 2, 4, "thin", 7.916189534786543, 10, "none", False)


def _thin_draws(count):
    """count seeded draws of thin generators in R^1..R^12, 1 to 40 of them,
    scaled by 10^U(3, 8), ten query rows each."""
    meta = np.random.default_rng(0)
    return [
        (int(meta.integers(0, 2**32)), int(meta.integers(1, 13)), int(meta.integers(1, 41)),
         "thin", float(meta.uniform(3.0, 8.0)), 10, "none", False)
        for _ in range(count)
    ]


def _certificate(gap, pts, x):
    """sqrt(2 g): the distance within which a Wolfe gap g puts w of the
    exact nearest point, with g raised to the gap floor 64 eps max(1,
    max_i |p_i - x|^2), below which both solvers read a gap as 0."""
    floor = 64.0 * np.finfo(float).eps * max(1.0, float(((pts - x) ** 2).sum(axis=1).max()))
    return np.sqrt(2.0 * max(gap, floor))


def _solved(pts, X, cap):
    """_min_norm_rows on X, with no numpy warning (a NaN comes from a divide)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        W, gaps = _min_norm_rows(pts, X, GAP_TOL, cap)
    assert np.isfinite(W).all() and np.isfinite(gaps).all()
    return W, gaps


@pytest.mark.parametrize("draw", [NAN_DRAW] + _thin_draws(64), ids=lambda d: f"{d[0]}-n{d[1]}m{d[2]}")
def test_thin_rows_agree_with_the_scalar_solver(draw):
    # the whole block, and each row alone (the NaN row came from row 5 alone)
    pts, X, cap, _ = _draw(*draw)
    W, gaps = _solved(pts, X, cap)
    for x, w, gap in zip(X, W, gaps):
        ws, gs = min_norm_point(pts - x, GAP_TOL, cap)
        (w1,), (g1,) = _solved(pts, x[None], cap)
        for w_, g_ in ((w, gap), (w1, g1)):
            allowed = _certificate(g_, pts, x) + _certificate(gs, pts, x)
            assert np.linalg.norm(w_ - ws) <= allowed
