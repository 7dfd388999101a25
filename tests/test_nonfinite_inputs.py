"""Non-finite inputs, and bools or non-integers where an integer is due, are
rejected at the API boundary with HyperconvexError, and points that are not
vectors of the ambient dimension with DimensionMismatchError.

Without a check, each entry point below returns NaN or False for a NaN
input, or fails inside a solver.  The messages are matched, since
ConvergenceError is itself a HyperconvexError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    AWParams,
    ChartTriple,
    DimensionMismatchError,
    Flat,
    HyperconvexError,
    Polytope,
    Subspace,
    adversarial_independence_check,
    attouch_wets,
    barycentric_coordinates,
    chart_flat,
    contains,
    distance_evaluator,
    in_relative_interior,
    lift_point,
    metric_projection,
    project_hyperplane,
    random_instance,
    run_suite,
    sup_distance_gap,
    translate,
    truncated_distance,
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


W = Subspace(np.array([[1.0, 0.0]]))
SIMPLEX = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# every entry point that takes a point of R^2, with x in the point's place
POINT_ARGUMENTS = {
    "metric_projection": lambda x: metric_projection(SQUARE, x),
    "contains": lambda x: contains(SQUARE, x, 1e-9),
    "truncated_distance": lambda x: truncated_distance(LINE, x, 2.0),
    "project_hyperplane point": lambda x: project_hyperplane([1.0, 0.0], x),
    "project_hyperplane vector": lambda x: project_hyperplane(x, [1.0, 0.0]),
    "lift_point": lambda x: lift_point(W, W, x),
    "translate": lambda x: translate(SQUARE, x),
    "chart_flat": lambda x: chart_flat(W, W, x),
    "ChartTriple": lambda x: ChartTriple(W, x, Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))),
    "barycentric_coordinates": lambda x: barycentric_coordinates(SIMPLEX, x),
    "in_relative_interior": lambda x: in_relative_interior(SIMPLEX, x),
}


@pytest.mark.parametrize("entry", sorted(POINT_ARGUMENTS))
@pytest.mark.parametrize("x", [np.float64(0.0), np.zeros((1, 2)), [[0.0, 1.0]]], ids=["0-d", "(1, 2)", "nested list"])
def test_points_that_are_not_vectors_of_the_ambient_dimension_raise(entry, x):
    # a (1, n) point used to pass: metric_projection returned a (1, n)
    # nearest point, and contains answered for it; flats raised numpy's
    # matmul ValueError, project_hyperplane a TypeError and a scalar point
    # an IndexError
    with pytest.raises(DimensionMismatchError, match="must have shape"):
        POINT_ARGUMENTS[entry](x)


@pytest.mark.parametrize("entry", sorted(POINT_ARGUMENTS))
def test_point_entry_points_reject_a_non_finite_point(entry):
    with pytest.raises(HyperconvexError, match="must be finite"):
        POINT_ARGUMENTS[entry]([0.0, NAN])


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=3).filter(lambda s: s != [2]), entry=st.sampled_from(sorted(POINT_ARGUMENTS)))
def test_every_other_shape_raises_dimension_mismatch(shape, entry):
    with pytest.raises(DimensionMismatchError):
        POINT_ARGUMENTS[entry](np.full(shape, 0.5))


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
    # j_cap = 10**15 used to end in numpy's MemoryError
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


@pytest.mark.parametrize(
    "delta, trials, message",
    [
        (np.inf, 10, "delta must be positive and finite"),
        (NAN, 10, "delta must be positive and finite"),
        (0.1, 2.5, "trials must be a nonnegative integer"),
        (0.1, True, "trials must be a nonnegative integer"),
    ],
)
def test_adversarial_independence_check_rejects_a_bad_delta_or_trial_count(delta, trials, message):
    # delta = inf used to fail inside numpy's SVD after a RuntimeWarning,
    # trials = 2.5 in numpy's TypeError, and trials = True ran one trial
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(HyperconvexError, match=message):
        adversarial_independence_check(triangle, delta, trials, 0)


@pytest.mark.parametrize(
    "n, trials, seed, message",
    [
        (2, True, 1, "trials must be a nonnegative integer"),
        (True, 1, 1, "ambient dimension must be a positive integer"),
        (2, 1, 1.5, "seed must be an integer"),
        (2, 1, "x", "seed must be an integer"),
        (2, 1, None, "seed must be an integer"),
        (2, 1, True, "seed must be an integer"),
    ],
)
def test_run_suite_rejects_a_bool_or_non_integer_argument(n, trials, seed, message):
    # trials = True ran one trial, n = True ran at n = 1, a seed of 1.5 ran
    # as seed 1, and "x" or None ended in Python's ValueError or TypeError
    with pytest.raises(HyperconvexError, match=message):
        run_suite("gap-complement", n, trials, seed)


@pytest.mark.parametrize(
    "n, k, seed, message",
    [
        (True, 1, 0, "integer dims"),
        (2, True, 0, "integer dims"),
        (2, 1, 1.5, "seed must be an integer"),
        (2, 1, "a", "seed must be an integer"),
    ],
)
def test_random_instance_rejects_a_bool_or_non_integer_argument(n, k, seed, message):
    # each of these ended in numpy's TypeError
    with pytest.raises(HyperconvexError, match=message):
        random_instance("uniform-subspace", n, k, seed)


def test_run_suite_and_random_instance_take_numpy_integers():
    i = np.int64
    assert run_suite("gap-complement", i(2), i(1), i(4)).trials == 1
    assert random_instance("uniform-subspace", i(3), i(1), i(11)) == random_instance("uniform-subspace", 3, 1, 11)
