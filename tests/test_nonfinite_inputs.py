"""Non-finite inputs are rejected at the API boundary with HyperconvexError.

Without a check, each entry point below returns NaN or False for a NaN
input, or fails inside a solver.  The messages are matched, since
ConvergenceError is itself a HyperconvexError.
"""

import numpy as np
import pytest

from hyperconvex import (
    AWParams,
    Flat,
    HyperconvexError,
    Polytope,
    Subspace,
    attouch_wets,
    barycentric_coordinates,
    contains,
    distance_evaluator,
    in_relative_interior,
    lift_point,
    project_hyperplane,
    sup_distance_gap,
    truncated_distance_evaluator,
    truncated_hausdorff,
)

NAN = float("nan")
SQUARE = Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
LINE = Flat(np.array([0.0, 0.5]), np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("tol", [NAN, np.inf])
def test_contains_rejects_a_non_finite_tolerance(tol):
    with pytest.raises(HyperconvexError, match="tolerance must be finite"):
        contains(SQUARE, [0.5, 0.5], tol)


@pytest.mark.parametrize("a,x", [([1.0, 0.0], [NAN, 0.0]), ([np.inf, 0.0], [1.0, 0.0])])
def test_project_hyperplane_rejects_non_finite_vectors(a, x):
    with pytest.raises(HyperconvexError, match="must be finite"):
        project_hyperplane(a, x)


def test_distance_evaluator_rejects_non_finite_rows():
    f = distance_evaluator(SQUARE)
    with pytest.raises(HyperconvexError, match="query rows must be finite"):
        f([[NAN, 0.0]])
    with pytest.raises(HyperconvexError, match="query rows must be finite"):
        distance_evaluator(LINE)(np.array([[0.0, 0.0], [np.inf, 1.0]]))


@pytest.mark.parametrize("s", [SQUARE, LINE], ids=["polytope", "flat"])
def test_truncated_distance_evaluator_rejects_non_finite_rows(s):
    f = truncated_distance_evaluator(s, 1.0)
    with pytest.raises(HyperconvexError, match="query rows must be finite"):
        f([[NAN, 0.0]])
    assert np.isfinite(f([[2.0, 0.5]])).all()


def test_lift_point_rejects_a_non_finite_point():
    w = Subspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(HyperconvexError, match="point to lift must be finite"):
        lift_point(w, w, [NAN, 0.0, 0.0])


@pytest.mark.parametrize("check", [barycentric_coordinates, in_relative_interior])
def test_barycentric_helpers_reject_a_non_finite_point(check):
    simplex = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(HyperconvexError, match="point must be finite"):
        check(simplex, [NAN, 0.2])


BAD_SIZES = [np.inf, -np.inf, NAN, 0.0, -1.0]
ORIGIN_PAIRS = {
    "polytope-subspace": (Polytope(np.array([[-1.0, -1.0], [2.0, 0.0], [0.0, 3.0]])), Subspace(np.array([[0.6, 0.8]]))),
    "subspaces": (Subspace(np.array([[1.0, 0.0]])), Subspace(np.array([[0.6, 0.8]]))),
}


@pytest.mark.parametrize("estimator", [truncated_hausdorff, sup_distance_gap])
@pytest.mark.parametrize("pair", sorted(ORIGIN_PAIRS))
@pytest.mark.parametrize("value", BAD_SIZES)
def test_sup_estimators_reject_a_bad_radius_or_eps(estimator, pair, value):
    # an infinite radius used to fail inside the search with an IndexError
    # or in Interval with a ValueError, an infinite eps likewise
    a, b = ORIGIN_PAIRS[pair]
    with pytest.raises(HyperconvexError, match="radius must be positive and finite"):
        estimator(a, b, value)
    with pytest.raises(HyperconvexError, match="eps must be positive and finite"):
        estimator(a, b, 1.0, eps=value)


@pytest.mark.parametrize("estimator", [truncated_hausdorff, sup_distance_gap])
@pytest.mark.parametrize("pair", sorted(ORIGIN_PAIRS))
@pytest.mark.parametrize("budget", [NAN, np.inf, 0, -5, 2.5, True])
def test_sup_estimators_reject_the_budgets_aw_params_reject(estimator, pair, budget):
    # a NaN or infinite budget used to switch the cap off, so the search ran
    # until it certified; the rest were taken as they came
    a, b = ORIGIN_PAIRS[pair]
    with pytest.raises(HyperconvexError, match="budget must be finite and at least 1000"):
        AWParams(budget=budget)
    with pytest.raises(HyperconvexError, match="budget must be finite and at least 1000"):
        estimator(a, b, 1.0, budget=budget)


@pytest.mark.parametrize("eps_sup", [np.inf, NAN, 0.0, -1.0])
def test_aw_params_reject_an_eps_sup_that_is_not_positive_and_finite(eps_sup):
    # eps_sup = inf used to certify any interval: attouch_wets on the
    # segments [0, e1] and [0, 2 e1] returned [0.5, 1.0] as certified
    with pytest.raises(HyperconvexError, match="eps_sup must be positive and finite"):
        AWParams(eps_sup=eps_sup)


@pytest.mark.parametrize("j_cap", [np.inf, NAN, 2.5, True, 0])
def test_aw_params_reject_a_j_cap_that_is_not_a_positive_integer(j_cap):
    # j_cap = inf used to end in numpy's "Maximum allowed size exceeded";
    # 2.5 and True were taken as they came
    with pytest.raises(HyperconvexError, match="j_cap must be an integer of at least 1"):
        AWParams(j_cap=j_cap)


@pytest.mark.parametrize("j_cap", [1025, 10**4, 10**15, np.int64(2**62)])
def test_aw_params_reject_an_oversized_j_cap(j_cap):
    # j_cap = 10**15 used to end in numpy's MemoryError, and the scan's
    # j_cap x j_cap weight table already takes 0.8 GB at 10**4
    with pytest.raises(HyperconvexError, match="j_cap must be at most 1024"):
        AWParams(j_cap=j_cap)


def test_aw_params_take_the_largest_j_cap():
    # two unit segments at distance 1: every term is min(1/j, 1)
    a = Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))
    iv = attouch_wets(a, Polytope(a.points + [0.0, 1.0]), AWParams(j_cap=1024))
    assert iv.certified and iv.lo <= 1.0 <= iv.hi


@pytest.mark.parametrize("budget", [NAN, np.inf])
def test_aw_params_reject_a_non_finite_budget(budget):
    # a NaN budget passed the old "< 1000" test and turned the budget off
    with pytest.raises(HyperconvexError, match="budget must be finite and at least 1000"):
        AWParams(budget=budget)


def test_aw_params_take_integer_j_caps():
    assert AWParams(j_cap=np.int64(3)).j_cap == 3
    assert AWParams(j_cap=1, budget=1000).budget == 1000
