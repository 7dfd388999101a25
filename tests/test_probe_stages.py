"""The two probe stages of ball_sup: the data rows first, then only the
ladder rows whose weights exceed the lower bound the data rows leave, and
no ladder at all when no weight does.  A skipped row scores at most that
bound, so the staged search returns what the one-stage search returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.hypermetrics as hm
from hyperconvex import AWParams, Flat, Polytope, attouch_wets, sup_distance_gap, translate
from hyperconvex.hypermetrics import _Pair
from hyperconvex.projection import _clamp_rows

from test_ball_bounds import CFG, KINDS, _draw, _library_gap, _shell_samples, tilted_segments
from test_level_split import _record_sups


def _record(monkeypatch):
    """(sups, probes): the arguments of every ball_sup call, and the rows
    and lo of every _box_bounds call without boxes, which are the probes."""
    sups, probes = [], []
    real_sup, real_bounds = hm.ball_sup, hm._box_bounds

    def sup(pair, radius, eps, **kwargs):
        sups.append((pair, radius, eps, kwargs))
        return real_sup(pair, radius, eps, **kwargs)

    def bounds(a, b, X, rho, *args):
        lo, hi = real_bounds(a, b, X, rho, *args)
        if rho is None:
            probes.append((X.copy(), lo))
        return lo, hi

    monkeypatch.setattr(hm, "ball_sup", sup)
    monkeypatch.setattr(hm, "_box_bounds", bounds)
    return sups, probes


def _data_count(a, b):
    return hm._rows(a)[0].shape[0] + hm._rows(b)[0].shape[0] + 1


STAGED_CASES = {
    # a segment pair in the plane: the data rows leave the lower bound 1/10
    # (at the point (10, 0)), which keeps the ladder rows at radii 1 to 8
    "tilted segments": tilted_segments,
    "triangles": lambda: (
        Polytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])),
        Polytope(np.array([[1.0, 1.0], [4.0, 1.5], [2.0, 5.0]])),
    ),
    "far triangles": lambda: (
        Polytope(np.array([[30.0, 0.0], [33.0, 0.0], [30.0, 2.0]])),
        Polytope(np.array([[1.0, 1.0], [4.0, 1.5], [2.0, 5.0]])),
    ),
    "triangle and line": lambda: (
        Polytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])),
        Flat(np.array([0.0, 4.0]), np.array([[0.6, 0.8]])),
    ),
    "tetrahedra": lambda: (
        Polytope(np.random.default_rng(7).normal(size=(4, 3)) * 5.0),
        Polytope(np.random.default_rng(8).normal(size=(4, 3)) * 5.0),
    ),
}


@pytest.mark.parametrize("metric", ["attouch_wets", "sup_distance_gap"])
def test_only_ladder_rows_that_can_raise_the_lower_bound_are_evaluated(monkeypatch, metric):
    kept = []
    for name, make in STAGED_CASES.items():
        sups, probes = _record(monkeypatch)
        a, b = make()
        if metric == "attouch_wets":
            attouch_wets(a, b, AWParams())
        else:
            sup_distance_gap(a, b, 6.0)
        ((pair, radius, eps, kw),) = sups
        # every _probes row as ball_sup sees it: sliced by the common span,
        # clamped into the ball, scored at most the weight of its shell
        B = pair.span[0]
        Y, split = hm._probes(a, b, radius)
        assert Y.shape[0] - split == _data_count(a, b), name
        Y, t = _clamp_rows(Y if B is None else Y @ B.T, radius)
        X = Y if B is None else Y @ B
        w = np.asarray(kw["weights"], dtype=float)
        top = w[np.minimum(t // (radius / w.size), w.size - 1).astype(int)]
        # the data rows first, and the lower bound they leave
        (X1, lo), *ladder = probes
        assert np.array_equal(X1, X[split:]), name
        lb = float(np.minimum(lo, top[split:]).max())
        # then exactly the ladder rows whose weights exceed it
        keep = top[:split] > lb
        if not keep.any():
            assert not ladder, name
        else:
            ((X2, _),) = ladder
            assert np.array_equal(X2, X[:split][keep]), name
        kept.append((keep.sum(), keep.size))
    # the cases skip the whole ladder, and cut it in part (the AW segment
    # pair: 20 of 40 rows) or keep it whole (the plain sups)
    assert any(k == 0 for k, size in kept)
    if metric == "attouch_wets":
        assert any(0 < k < size for k, size in kept)
    else:
        assert any(k == size for k, size in kept)


def test_a_translate_evaluates_only_its_data_rows(monkeypatch):
    # a polytope and its translate by 0.15: the extreme generator opposite
    # the translation is at distance 0.15 from the translate, which is the
    # Hausdorff distance that caps every weight, so no shell is live
    rng = np.random.default_rng(15)
    a = Polytope(0.3 * rng.normal(size=(5, 3)))
    v = rng.normal(size=3)
    b = translate(a, 0.15 * v / np.linalg.norm(v))
    ests = _record_sups(monkeypatch)
    calls = []
    real = hm._box_bounds

    def bounds(a_, b_, X, rho, *args):
        calls.append((X.shape[0], rho is None))
        return real(a_, b_, X, rho, *args)

    monkeypatch.setattr(hm, "_box_bounds", bounds)
    iv = attouch_wets(a, b, AWParams())
    (est,) = ests
    assert calls == [(_data_count(a, b), True)]
    assert (est.evals, est.levels, est.certified) == (_data_count(a, b), 0, True)
    assert iv.lo <= 0.15 <= iv.hi and iv.hi - iv.lo <= 1e-3 and iv.certified


def test_a_ladder_row_past_the_live_ball_still_raises_the_lower_bound(monkeypatch):
    # two lines in the plane: the data rows leave lb = 0.99955, within eps
    # of the largest weight 1, so no shell is live; the ladder row -(1, 0)
    # scores 1, and it and the five other shell-1 rows still run, so the
    # interval is the one-stage search's [1, 1] on 9 rows, not 63
    s = 0.01
    a = Flat(np.zeros(2), np.array([[1.0, 0.0]]))
    b = Flat(np.array([0.0, 0.9995 / np.sqrt(1.0 - s * s)]), np.array([[np.sqrt(1.0 - s * s), s]]))
    ests = _record_sups(monkeypatch)
    iv = attouch_wets(a, b, AWParams())
    (est,) = ests
    assert (iv.lo, iv.hi, iv.certified) == (1.0, 1.0, True)
    assert (est.evals, est.levels) == (9, 0) and hm._probes(a, b, 64.0)[0].shape[0] == 63


@pytest.mark.parametrize("shift", [-3, 0, 3])
def test_the_two_stages_are_the_split_that_probes_returns(monkeypatch, shift):
    # ball_sup counts no rows of the sets: it splits the probes where
    # _probes says the ladder ends, so a split moved by a few rows moves
    # its stages with it.  A plain sup keeps every ladder row.
    a, b = tilted_segments()
    real = hm._probes
    Y, split = real(a, b, 6.0)
    split += shift
    monkeypatch.setattr(hm, "_probes", lambda a_, b_, radius: (real(a_, b_, radius)[0], split))
    _, probes = _record(monkeypatch)
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    hm.ball_sup(pair, 6.0, 1e-2, budget=200_000)
    X = _clamp_rows(Y, 6.0)[0]
    (X1, _), (X2, _), *_ = probes
    assert np.array_equal(X1, X[split:]) and np.array_equal(X2, X[:split])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    n=st.integers(2, 3),
    weighted=st.booleans(),
)
def test_staged_search_returns_the_one_stage_interval(seed, kinds, n, weighted):
    # a plain sup, or unit shells weighted min(1/j, c), which a good first
    # lower bound prunes; the one-stage search gets every _probes row
    rng = np.random.default_rng(seed)
    a, b = (_draw(rng, k, n) for k in kinds)
    if weighted:
        radius = float(rng.integers(2, 9))
        w = np.minimum(1.0 / np.arange(1.0, radius + 1.0), rng.uniform(0.05, 1.0))
    else:
        radius, w = float(rng.uniform(0.5, 4.0)), np.array([np.inf])
    pair = _Pair(a, b, CFG)
    staged = hm.ball_sup(pair, radius, 1e-2, budget=200_000, weights=w)
    rows = hm._probes(a, b, radius)[0]
    with pytest.MonkeyPatch.context() as mp:
        # every row in the first stage
        mp.setattr(hm, "_probes", lambda a, b, radius: (rows, 0))
        one = hm.ball_sup(pair, radius, 1e-2, budget=200_000, weights=w)
    assert (staged.lo, staged.hi, staged.certified, staged.levels) == (one.lo, one.hi, one.certified, one.levels)
    assert staged.evals <= one.evals
    X = _shell_samples(rng, n, radius, w.size)
    shells = np.clip(np.ceil(np.linalg.norm(X, axis=1) * w.size / radius) - 1, 0, w.size - 1).astype(int)
    assert (np.minimum(w[shells], _library_gap(a, b, X)) <= staged.hi + 1e-6).all()
