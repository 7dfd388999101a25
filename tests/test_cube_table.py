"""The cube table of a ball_sup search: fixed searches take exactly their
pinned path, so a change to the search state shows as a changed count; and
every cube keeps the rows of its ancestors, its path from the root cube
among them, through the splits, the sort by bound and both filters.
"""

import numpy as np
import pytest

import hyperconvex.hypermetrics as hm
from hyperconvex import AWParams, Polytope, attouch_wets
from hyperconvex.hypermetrics import _Pair

from test_ball_bounds import CFG, tilted_segments
from test_level_split import _record_sups

# path rows appended to the table: one sign-table column index per halving
# from the root cube, nan past the cube's depth
DEPTH = 48


def test_tilted_segment_pair_takes_its_pinned_path(monkeypatch):
    # README's segments with the far end of the longer one lifted by 1, so
    # that their span is the plane and the cubes, not the line, find the sup
    ests = _record_sups(monkeypatch)
    a, b = tilted_segments()
    iv = attouch_wets(a, b, AWParams())
    assert (iv.lo.hex(), iv.hi.hex(), iv.certified) == ("0x1.999999999999ap-3", "0x1.9b713fc9f166fp-3", True)
    (est,) = ests
    assert (est.evals, est.levels, est.certified) == (350, 8, True)


def test_seven_point_polytopes_in_r4_take_their_pinned_path():
    rng = np.random.default_rng(6)
    a, b = Polytope(rng.normal(size=(7, 4))), Polytope(rng.normal(size=(7, 4)))
    est = hm.ball_sup(_Pair(a, b, CFG), 1.0, 1e-2, budget=300_000)
    assert (est.evals, est.levels, est.certified) == (9_202, 8, True)
    assert est.hi - est.lo <= 1e-2


def _paths_hold(T, k, root):
    """Whether every cube's center and half-width are those its path rows
    give, by the arithmetic of _split, bit for bit."""
    signs = hm._signs(k)
    C, h = np.zeros((k, T.shape[1])), np.full(T.shape[1], root)
    for d in range(DEPTH):
        digit = T[k + 2 + d]
        deeper = ~np.isnan(digit)
        h = np.where(deeper, 0.5 * h, h)
        C = np.where(deeper, C + signs[:, np.where(deeper, digit, 0).astype(int)] * h, C)
    return np.array_equal(T[:k], C) and np.array_equal(T[k], h)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rows_keep_their_ancestors_columns(monkeypatch, k, seed):
    # a cap of 16 rows a level splits at most 4 cubes in R^2 and 2 in R^3,
    # so that cubes wait (the sort by bound runs) and levels split twice
    monkeypatch.setattr(hm, "_LEVEL_ROWS", 16)
    real_split, real_inside = hm._split, hm._inside
    # root half-width; halvings and child steps; the current step's parents,
    # children, kept rows and kept children; waiting, dropped and inactive
    # cubes seen
    seen = dict(root=None, splits=0, steps=0, parents=None, kids=0, kept=0, fresh=0)
    seen.update(sorted=0, dropped=0, inactive=0)
    bound_of = {}

    def keep_bounds(T):
        # an evaluated cube keeps its bound, by its path, until it is split
        for path, u in zip((col.tobytes() for col in T[k + 2 :].T), T[k + 1]):
            assert bound_of.setdefault(path, u) == u

    def split(T, k_):
        assert k_ == k
        if T.shape[0] == k + 2:
            # the root cube, the first cube a search splits up to 6 dimensions
            assert seen["root"] is None and T.shape[1] == 1
            seen["root"] = T[k, 0]
            T = np.vstack((T, np.full((DEPTH, 1), np.nan)))
        assert _paths_hold(T, k, seen["root"])
        if seen["parents"] is None:
            # the first split of a step halves evaluated cubes
            seen["parents"] = T.shape[1]
            if seen["steps"]:
                keep_bounds(T)
        kids = real_split(T, k)
        # a child repeats its parent's column past the center and
        # half-width: the bound and every path row of its ancestors
        assert np.array_equal(kids[k + 1 :], T[k + 1 :].repeat(1 << k, axis=1), equal_nan=True)
        depth = np.count_nonzero(~np.isnan(kids[k + 2 :]), axis=0)
        kids[k + 2 + depth, np.arange(kids.shape[1])] = np.tile(np.arange(1 << k), T.shape[1])
        seen["splits"] += 1
        seen["kids"] = kids.shape[1]
        return kids

    def inside(T, k_, r, shell):
        assert _paths_hold(T, k, seen["root"])
        kids = seen["kids"]
        if seen["steps"]:
            # children first, then the waiting cubes, which a sort left with
            # bounds no higher than any split cube's (the children carry
            # their parents' bounds until evaluated); the active filter
            # before the split kept the parents and the waiting cubes
            waiting = T.shape[1] - kids
            assert waiting >= 0 and seen["parents"] + waiting <= seen["kept"]
            seen["inactive"] += seen["kept"] - seen["parents"] - waiting
            if waiting:
                assert T[k + 1, :kids].min() >= T[k + 1, kids:].max()
                keep_bounds(T[:, kids:])
                seen["sorted"] += 1
        keep = real_inside(T, k, r, shell)
        seen["steps"] += 1
        seen["dropped"] += int(np.count_nonzero(~keep))
        seen["parents"], seen["kept"] = None, int(np.count_nonzero(keep))
        seen["fresh"] = int(np.count_nonzero(keep[:kids]))
        return keep

    real_bounds = hm._box_bounds
    levels = []

    def bounds(a, b, X, rho=None, *args):
        if rho is not None:
            # a level evaluates the children in the live ball, no other cube
            assert X.shape[0] == seen["fresh"]
            levels.append(X.shape[0])
        return real_bounds(a, b, X, rho, *args)

    monkeypatch.setattr(hm, "_split", split)
    monkeypatch.setattr(hm, "_inside", inside)
    monkeypatch.setattr(hm, "_box_bounds", bounds)
    rng = np.random.default_rng(seed)
    a, b = (Polytope(rng.normal(size=(int(rng.integers(1, 4)), k))) for _ in range(2))
    pair = _Pair(a, b, CFG)
    assert pair.span[0] is None
    est = hm.ball_sup(pair, float(rng.uniform(1.0, 4.0)), 1e-6, budget=5_000, probes=np.zeros((1, k)))

    # the search saw every kind of step: double splits (more halvings than
    # child steps), the sort, and both filters
    assert seen["root"] is not None and est.levels == len(levels) >= 3
    assert seen["splits"] > seen["steps"] and seen["sorted"]
    assert seen["dropped"] and seen["inactive"]
    assert est.evals == 1 + sum(levels)
