"""Chart maps factor each chart matrix once per call.

The chart matrix g = B_w B_v^T of a reference subspace w and a direction v
decides the chart domain through its smallest singular value, and the
conditioning test through s[0] / s[-1], which is np.linalg.cond(g): one SVD
answers both.  The reference maps below test the conditioning with a
separate np.linalg.cond call; the maps must return the same arrays bit for
bit.
"""

import numpy as np
import pytest

from hyperconvex import (
    ChartDomainError,
    ChartTriple,
    Polytope,
    Subspace,
    ToleranceConfig,
    affine_hull,
    chart_convex,
    chart_convex_inv,
    chart_flat,
    chart_flat_inv,
    lift_set,
)
from hyperconvex.grassmann import _COND_CAP, parallel_subspace


def _counted(monkeypatch):
    """Count np.linalg.svd and np.linalg.cond calls, each one factorization."""
    calls = {"svd": 0, "cond": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _chart_pair(rng, n, k):
    """w, a nearby v, an offset orthogonal to w and body coordinates, in a
    random frame: the shapes of the benchmark's chart slots."""
    W = np.linalg.qr(rng.normal(size=(n, k)))[0].T
    V = np.linalg.qr((W + 0.3 * rng.normal(size=W.shape)).T)[0].T
    omega = rng.normal(size=n)
    omega -= W.T @ (W @ omega)
    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return Subspace(W @ R.T), Subspace(V @ R.T), omega @ R.T, rng.normal(size=(k + 2, k))


def _triple(w, v, omega, coords):
    return ChartTriple(v, omega, Polytope(coords @ w.basis))


# ---------------------------------------------------------------------------
# reference maps: the same lifts, conditioning tested by np.linalg.cond


def _reference_lift(w, v, X):
    g = w.basis @ v.basis.T
    if np.linalg.cond(g) > _COND_CAP:
        raise ChartDomainError("chart system is too ill-conditioned to lift reliably")
    return np.array([np.linalg.solve(g, w.basis @ x) @ v.basis for x in X])


def _reference_offset(w, v, p):
    offset = p - _reference_lift(w, v, ((w.basis @ p) @ w.basis)[None, :])[0]
    return offset - (w.basis @ offset) @ w.basis


def _reference_chart_convex(w, triple):
    return _reference_lift(w, triple.direction, triple.body.points) + triple.offset


def _reference_chart_convex_inv(w, b):
    v, p = parallel_subspace(affine_hull(b))
    offset = _reference_offset(w, v, p)
    return v.basis, offset, (b.points - offset) @ (w.basis.T @ w.basis)


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


# ---------------------------------------------------------------------------
# factorization counts


def test_convex_round_trip_takes_three_factorizations(monkeypatch):
    w, v, omega, coords = _chart_pair(np.random.default_rng(0), 5, 3)
    triple = _triple(w, v, omega, coords)
    calls = _counted(monkeypatch)
    b = chart_convex(w, triple)
    assert calls == {"svd": 1, "cond": 0}
    chart_convex_inv(w, b)
    # the hull's SVD, then one of the chart matrix
    assert calls == {"svd": 3, "cond": 0}


def test_flat_round_trip_takes_two_factorizations(monkeypatch):
    w, v, omega, _ = _chart_pair(np.random.default_rng(1), 5, 2)
    calls = _counted(monkeypatch)
    f = chart_flat(w, v, omega)
    chart_flat_inv(w, f)
    assert calls == {"svd": 2, "cond": 0}


@pytest.mark.parametrize("m", [1, 7, 40])
def test_lift_set_factors_once_per_body(monkeypatch, m):
    # one chart-domain and conditioning test for the body, not per generator
    rng = np.random.default_rng(m)
    w = Subspace(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    v = Subspace(np.linalg.qr(np.array([[1.0, 0], [0, 1.0], [0.3, -0.2]]))[0].T)
    body = Polytope(np.c_[rng.normal(size=(m, 2)), np.zeros(m)])
    calls = _counted(monkeypatch)
    lift_set(w, v, body)
    assert calls == {"svd": 1, "cond": 0}


# ---------------------------------------------------------------------------
# the same arrays as the reference


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_round_trips_match_the_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for k in range(1, n):
        for _ in range(6):
            w, v, omega, coords = _chart_pair(rng, n, k)
            triple = _triple(w, v, omega, coords)
            b = chart_convex(w, triple)
            assert _hex(b.points) == _hex(_reference_chart_convex(w, triple))
            t = chart_convex_inv(w, b)
            want = _reference_chart_convex_inv(w, b)
            assert [_hex(t.direction.basis), _hex(t.offset), _hex(t.body.points)] == [
                _hex(a) for a in want
            ]
            v2, omega2 = chart_flat_inv(w, chart_flat(w, v, omega))
            fv, fp = parallel_subspace(chart_flat(w, v, omega))
            assert [_hex(v2.basis), _hex(omega2)] == [_hex(fv.basis), _hex(_reference_offset(w, fv, fp))]


@pytest.mark.parametrize("t", [1e-9, 3e-12, 9e-13, 1e-13, 2e-15])
def test_conditioning_test_decides_as_np_linalg_cond(t):
    # the chart matrix is diag(1, t): cond 1 / t against the cap 1e12, with
    # tau_rank low enough that v stays in the chart domain
    w = Subspace(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    v = Subspace(np.array([[1.0, 0, 0], [0, t, np.sqrt(1.0 - t * t)]]))
    cfg = ToleranceConfig(tau_rank=1e-16)
    body = Polytope(np.array([[0.0, 0, 0], [1.0, 0, 0], [0, t, 0]]))
    try:
        want = _hex(_reference_lift(w, v, body.points))
    except ChartDomainError as exc:
        with pytest.raises(ChartDomainError, match=str(exc)):
            lift_set(w, v, body, cfg)
    else:
        assert _hex(lift_set(w, v, body, cfg).points) == want
