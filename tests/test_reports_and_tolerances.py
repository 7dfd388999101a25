"""A caller's tolerances reach containment and truncated evaluators, set
construction never reads the environment, and every report carries
runtime_ms as an int."""

import numpy as np
import pytest

import hyperconvex.suites as suites
from hyperconvex import (
    Flat,
    Polytope,
    Subspace,
    ToleranceConfig,
    adversarial_independence_check,
    contains,
    is_affinely_independent,
    parse_set,
    run_suite,
    truncated_distance_evaluator,
)

TRIANGLE = Polytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))


def test_contains_and_truncated_evaluator_take_the_callers_tolerances(monkeypatch):
    # with an explicit config, a malformed HYPERCONVEX_TOL is never read
    monkeypatch.setenv("HYPERCONVEX_TOL", "oops")
    cfg = ToleranceConfig()
    assert contains(TRIANGLE, np.array([0.5, 0.5]), 1e-9, cfg)
    assert not contains(TRIANGLE, np.array([2.0, 2.0]), 1e-9, cfg)
    f = truncated_distance_evaluator(TRIANGLE, 1.0, cfg)
    # the nearest point of the cut triangle is (1, 0), found to within tau_geom
    assert abs(f(np.array([[3.0, 0.0]]))[0] - 2.0) <= 2 * cfg.tau_geom


@pytest.mark.parametrize("field", ["tau_orth", "tau_rank", "tau_geom"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        ToleranceConfig(**{field: value})


def test_set_construction_ignores_a_malformed_environment(monkeypatch):
    # HYPERCONVEX_TOL overrides tau_geom only; building a set takes the
    # default tau_orth or tau_rank and never reads it
    monkeypatch.setenv("HYPERCONVEX_TOL", "oops")
    assert Subspace(np.eye(2)).dim == 2
    assert Flat(np.ones(2), np.array([[1.0, 0.0]])).dim == 1
    # rows about 5e-13 off orthonormal are re-orthonormalised against tau_orth
    assert parse_set({"type": "subspace", "ambient_dim": 2, "basis": [[1.0, 1e-6]]}).dim == 1
    assert is_affinely_independent(np.eye(3))


def test_projection_suite_passes_its_tolerances_to_contains(monkeypatch):
    seen = []
    real = suites.contains

    def recording(s, x, tol, tolerances=None):
        seen.append(tolerances)
        return real(s, x, tol, tolerances)

    monkeypatch.setattr(suites, "contains", recording)
    cfg = ToleranceConfig(tau_geom=2e-9)
    run_suite("projection-laws", 2, 3, 0, cfg)
    assert seen and all(t is cfg for t in seen)


def test_independence_report_runtime_is_an_int():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for trials in (0, 50):
        report = adversarial_independence_check(pts, 0.1, trials, seed=1)
        assert isinstance(report.runtime_ms, int)
        assert isinstance(report.to_dict()["runtime_ms"], int)
