"""The levels of a ball_sup search: a level whose children would number at
most _LEVEL_MIN is split again before it is evaluated, no level holds more
than _LEVEL_ROWS rows, and the deeper split keeps the search sound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconvex.hypermetrics as hm
from hyperconvex import AWParams, Flat, Polytope, attouch_wets
from hyperconvex.hypermetrics import _Pair
from hyperconvex.projection import _row_norms

from test_ball_bounds import CFG, _frame, _gap, _shell_samples, origin_probe, tilted_segments

# levels of the tilted segment pair's search when each level split its
# cubes once
ONE_SPLIT_LEVELS = 12


def _record_sups(monkeypatch):
    ests = []
    real = hm.ball_sup

    def recording(*args, **kwargs):
        est = real(*args, **kwargs)
        ests.append(est)
        return est

    monkeypatch.setattr(hm, "ball_sup", recording)
    return ests


def test_tilted_segment_pair_takes_fewer_levels(monkeypatch):
    ests = _record_sups(monkeypatch)
    iv = attouch_wets(*tilted_segments(), AWParams())
    assert iv.lo == 0.2 and iv.hi - iv.lo <= 1e-3 and iv.certified
    (est,) = ests
    assert est.certified and est.evals <= 800
    assert 0 < est.levels < ONE_SPLIT_LEVELS


def test_one_split_levels_is_the_search_without_the_deeper_split(monkeypatch):
    monkeypatch.setattr(hm, "_LEVEL_MIN", 0)
    ests = _record_sups(monkeypatch)
    attouch_wets(*tilted_segments(), AWParams())
    (est,) = ests
    assert est.levels == ONE_SPLIT_LEVELS


def test_positional_estimates_count_no_levels():
    assert hm.SupEstimate(0.0, 1.0, True, 5).levels == 0


def _record_levels(monkeypatch):
    """Events of a search in order: ("split", cubes in, cubes out) for each
    _split call and ("level", rows) for each level's _box_bounds call."""
    events = []
    real_split, real_bounds = hm._split, hm._box_bounds

    def split(T, k):
        kids = real_split(T, k)
        events.append(("split", T.shape[1], kids.shape[1]))
        return kids

    def bounds(a, b, X, rho=None, *args):
        if rho is not None:
            events.append(("level", X.shape[0]))
        return real_bounds(a, b, X, rho, *args)

    monkeypatch.setattr(hm, "_split", split)
    monkeypatch.setattr(hm, "_box_bounds", bounds)
    return events


@pytest.mark.parametrize("k", range(2, 7))
def test_small_levels_split_again_within_the_caps(monkeypatch, k):
    # a segment against a flat of dimension k - 1 in R^k, whose data span
    # all of it (in R^1 the span is a line, which the cubes never search);
    # a tight width keeps the search going
    rng = np.random.default_rng(40 + k)
    a = Polytope(rng.normal(size=(2, k)))
    b = Flat(rng.normal(size=k), _frame(rng, k, k - 1))
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    events = _record_levels(monkeypatch)
    est = hm.ball_sup(pair, 2.0, 1e-4, budget=20_000)

    levels = [e[1] for e in events if e[0] == "level"]
    assert len(levels) == est.levels >= 2
    assert sum(levels) == est.evals - hm._probes(a, b, 2.0)[0].shape[0]
    assert max(levels) <= hm._LEVEL_ROWS
    # the splits before each level: the first halves the chosen cubes (the
    # root's are all second splits), every later one halves cubes whose
    # children number at most _LEVEL_MIN, and the last leaves more children
    # than that, of which the level evaluates those in the live ball
    group, first = [], True
    for event in events:
        if event[0] == "split":
            group.append(event)
            continue
        assert group
        again = group if first else group[1:]
        assert all(cubes << k <= hm._LEVEL_MIN for _, cubes, _ in again)
        assert group[-1][2] << k > hm._LEVEL_MIN and event[1] <= group[-1][2]
        group, first = [], False


def _family_pair(rng, family):
    """(a, b, n): two segments on one line in R^2, two small polytopes in R^2
    or R^3, or two nearby lines in R^3, which span 1, 2-3 and 3 dimensions."""
    if family == "segments":
        u = _frame(rng, 2, 1)[0]
        ends = rng.uniform(-3.0, 3.0, size=(2, 2))
        return Polytope(ends[0][:, None] * u), Polytope(ends[1][:, None] * u), 2
    if family == "polytopes":
        n = int(rng.integers(2, 4))
        sizes = rng.integers(1, 5, size=2)
        return Polytope(rng.normal(size=(sizes[0], n))), Polytope(rng.normal(size=(sizes[1], n))), n
    F = _frame(rng, 3, 3)
    angle, shift = rng.uniform(0.01, 0.3), rng.uniform(0.01, 0.3)
    a = Flat(0.5 * F[1], F[:1])
    b = Flat(0.5 * F[1] + shift * F[2], (np.cos(angle) * F[0] + np.sin(angle) * F[1])[None, :])
    return a, b, 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["segments", "polytopes", "lines"]),
    weighted=st.booleans(),
)
def test_deeper_split_sup_covers_dense_samples(seed, family, weighted):
    # one probe at the origin, so that the cubes, not the probes, must find
    # the sup; non-increasing weights on 1-5 shells, or the plain sup
    rng = np.random.default_rng(seed)
    a, b, n = _family_pair(rng, family)
    radius = float(rng.uniform(0.5, 4.0))
    w = np.sort(rng.uniform(0.0, 1.5, int(rng.integers(1, 6))))[::-1] if weighted else np.array([np.inf])
    with origin_probe(n):
        est = hm.ball_sup(_Pair(a, b, CFG), radius, 1e-3, budget=100_000, weights=w)
    assert est.lo <= est.hi
    X = _shell_samples(rng, n, radius, len(w))
    shells = np.clip(np.ceil(np.linalg.norm(X, axis=1) * len(w) / radius) - 1, 0, len(w) - 1).astype(int)
    assert (np.minimum(w[shells], _gap(a, b, X)) <= est.hi + 1e-9).all()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 9, 10, 13])
def test_waiting_cubes_leave_with_the_live_ball(monkeypatch, seed):
    # cubes wait once a level cannot split them all, from 7 dimensions up
    # at the real cap; a cap of 512 rows makes them wait in R^4 (32 cubes a
    # level).  Every cube a level splits must meet the live ball of the
    # filter before it, which runs over the waiting cubes too.
    monkeypatch.setattr(hm, "_LEVEL_ROWS", 512)
    events = []
    real_split, real_inside = hm._split, hm._inside

    def split(T, k):
        kids = real_split(T, k)
        events.append(("split", T[:k].T.copy(), T[k].copy(), kids.shape[1]))
        return kids

    def inside(T, k, r, shell):
        events.append(("inside", T.shape[1], r))
        return real_inside(T, k, r, shell)

    monkeypatch.setattr(hm, "_split", split)
    monkeypatch.setattr(hm, "_inside", inside)
    rng = np.random.default_rng(seed)
    a, b = (Polytope(rng.normal(size=(int(rng.integers(1, 4)), 4))) for _ in range(2))
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    w = np.sort(rng.uniform(0.0, 1.5, int(rng.integers(2, 9))))[::-1]
    radius = float(rng.uniform(1.0, 4.0))
    with origin_probe(4):
        hm.ball_sup(pair, radius, 1e-4, budget=20_000, weights=w)

    r, kids, prev, waited = None, 0, None, 0
    for event in events:
        if event[0] == "inside":
            waited += event[1] - kids
            r = event[2]
        else:
            if prev == "inside":
                C, h = event[1], event[2]
                assert (_row_norms(np.maximum(np.abs(C) - h[:, None], 0.0)) <= r).all()
            kids = event[3]
        prev = event[0]
    assert waited > 0
