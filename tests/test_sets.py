"""Set representations: constructors, hulls, dimension, Minkowski sums."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    Flat,
    HyperconvexError,
    Interval,
    Polytope,
    Subspace,
    affine_hull,
    attouch_wets,
    dimension,
    distance_evaluator,
    gap,
    minkowski_sum,
    serialize_set,
    translate,
    zero_subspace,
)

from conftest import flat, poly, seg, span


class TestConstructors:
    def test_polytope_rejects_empty(self):
        with pytest.raises(HyperconvexError):
            Polytope(np.zeros((0, 2)))

    def test_polytope_rejects_non_finite(self):
        with pytest.raises(HyperconvexError):
            Polytope(np.array([[np.nan, 0.0]]))

    def test_subspace_rejects_non_orthonormal(self):
        with pytest.raises(HyperconvexError):
            Subspace(np.array([[2.0, 0.0]]))

    def test_subspace_rejects_overfull_basis(self):
        with pytest.raises(HyperconvexError):
            Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))

    def test_flat_rejects_mismatched_base(self):
        with pytest.raises(HyperconvexError):
            Flat(np.array([0.0, 1.0, 2.0]), np.array([[1.0, 0.0]]))

    def test_flat_rejects_ambient_dimension_zero(self):
        # as Polytope and Subspace do, and as parse_set rejects ambient_dim 0
        with pytest.raises(HyperconvexError, match="non-empty"):
            Flat(np.zeros(0), np.zeros((0, 0)))

    def test_flat_rejects_dependent_basis(self):
        with pytest.raises(HyperconvexError):
            Flat(np.zeros(2), np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_zero_subspace(self):
        z = zero_subspace(3)
        assert z.ambient_dim == 3
        assert z.basis.shape == (0, 3)

    def test_values_are_immutable(self):
        p = seg((0, 0), (1, 0))
        with pytest.raises(ValueError):
            p.points[0, 0] = 5.0


def _frame(rng, n: int, k: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)))[0][:k]


class TestEquality:
    def test_sets_of_different_kinds_are_unequal(self):
        basis = np.array([[0.6, 0.8]])

        def kinds():
            return [poly((0, 0), (1, 0)), Flat(np.zeros(2), basis), Subspace(basis)]

        for i, a in enumerate(kinds()):
            for j, b in enumerate(kinds()):
                assert (a == b) is (i == j)
                assert (a != b) is (i != j)
        assert poly((0, 0)) != (0.0, 0.0)

    def test_a_subspace_is_not_equal_to_its_flat_through_the_origin(self):
        basis = np.array([[0.6, 0.8]])
        assert Subspace(basis) != Flat(np.zeros(2), basis)
        assert Subspace(basis) == Subspace(basis.copy())
        assert Flat(np.zeros(2), basis) == Flat(np.zeros(2), basis.copy())

    def test_flats_differ_by_base_or_basis(self):
        basis = np.array([[1.0, 0.0]])
        assert Flat(np.zeros(2), basis) != Flat(np.array([0.0, 1.0]), basis)
        assert Flat(np.zeros(2), basis) != Flat(np.zeros(2), -basis)
        assert Subspace(basis) != Subspace(np.eye(2))

    def test_sets_are_unhashable(self):
        basis = np.array([[0.6, 0.8]])
        for s in (poly((0, 0), (1, 0)), Flat(np.zeros(2), basis), Subspace(basis)):
            assert s == s
            with pytest.raises(TypeError):
                hash(s)

    def test_equal_polytopes_are_at_distance_exactly_zero(self):
        a = poly((0, 0), (1, 0), (0, 2))
        iv = attouch_wets(a, Polytope(a.points.copy()))
        assert iv == Interval(0.0, 0.0)
        assert iv.certified


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 5))
def test_permuted_or_repeated_generators_compare_equal(seed, m, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, n))
    p = Polytope(pts)
    shuffled = pts[rng.permutation(m)]
    repeated = pts[np.concatenate((np.arange(m), rng.integers(0, m, size=int(rng.integers(1, 4)))))]
    assert p == Polytope(shuffled) == Polytope(repeated)
    moved = pts.copy()
    moved[int(rng.integers(m)), int(rng.integers(n))] += 1.0
    assert p != Polytope(moved)
    if m > 1:
        assert p != Polytope(pts[1:])


class TestSubspace:
    def test_a_subspace_is_a_flat_through_the_origin(self):
        s = Subspace(np.array([[0.6, 0.8]]))
        assert isinstance(s, Flat)
        assert s.ambient_dim == 2 and s.dim == 1
        np.testing.assert_array_equal(s.base, np.zeros(2))

    def test_base_is_stored_once_and_read_only(self):
        s = Subspace(np.array([[0.6, 0.8]]))
        assert s.base is s.base
        with pytest.raises(ValueError):
            s.base[0] = 1.0
        with pytest.raises(AttributeError):
            s.base = np.ones(2)

    @pytest.mark.parametrize("basis", [np.zeros(2), np.zeros((1, 0)), 1.0, np.zeros((1, 2, 2))])
    def test_rejects_a_basis_that_is_not_a_matrix(self, basis):
        with pytest.raises(HyperconvexError, match="basis must be a"):
            Subspace(basis)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), data=st.data())
def test_a_subspace_serves_as_the_flat_through_the_origin(seed, n, data):
    k = data.draw(st.integers(0, n))
    basis = _frame(np.random.default_rng(seed), n, k)
    s, f = Subspace(basis), Flat(np.zeros(n), basis)
    assert s == Subspace(basis) and f == Flat(np.zeros(n), basis) and s != f
    np.testing.assert_array_equal(s.base, f.base)
    np.testing.assert_array_equal(s.basis, f.basis)
    assert translate(s, np.zeros(n)) is s
    assert translate(s, np.ones(n)) == translate(f, np.ones(n))


class TestAffineHull:
    def test_segment(self):
        f = affine_hull(seg((0, 0), (1, 0)))
        assert np.allclose(f.base, [0, 0])
        assert abs(abs(f.basis[0, 0]) - 1.0) < 1e-12

    def test_singleton(self):
        f = affine_hull(poly((3, 4)))
        assert f.basis.shape == (0, 2)
        assert np.allclose(f.base, [3, 4])

    def test_plane_at_height_one(self):
        # hull of three points in {z = 1}: direction span{e1, e2}
        f = affine_hull(poly((0, 0, 1), (1, 0, 1), (0, 1, 1)))
        assert f.basis.shape == (2, 3)
        assert np.max(np.abs(f.basis[:, 2])) < 1e-9
        for g in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]:
            rel = np.array(g, dtype=float) - f.base
            residual = rel - f.basis.T @ (f.basis @ rel)
            assert np.linalg.norm(residual) < 1e-9

    def test_generators_lie_on_hull(self, rng):
        pts = rng.normal(size=(5, 4))
        pts[:, 3] = 2.0
        f = affine_hull(Polytope(pts))
        assert f.basis.shape[0] == 3
        rel = pts - f.base
        residual = rel - rel @ f.basis.T @ f.basis
        assert np.max(np.abs(residual)) < 1e-9


class TestDimension:
    @pytest.mark.parametrize(
        "s, k",
        [
            (poly((2, 5)), 0),
            (seg((0, 0), (1, 0)), 1),
            (poly((0, 0), (1, 0), (0, 1)), 2),
            (flat((0, 1), (1, 0)), 1),
            (span((1, 1)), 1),
            (zero_subspace(2), 0),
        ],
    )
    def test_examples(self, s, k):
        assert dimension(s) == k

    def test_collinear_triple_is_one_dimensional(self):
        assert dimension(poly((0, 0), (1, 0), (2, 0))) == 1


class TestMinkowskiSum:
    def test_unit_square(self):
        out = minkowski_sum(seg((0, 0), (1, 0)), seg((0, 0), (0, 1)))
        got = {tuple(p) for p in np.round(out.points, 12).tolist()}
        assert {(0, 0), (1, 0), (0, 1), (1, 1)} <= got

    def test_singleton_is_identity(self):
        p = poly((1, 1), (2, 1))
        out = minkowski_sum(p, poly((0, 0)))
        assert np.allclose(np.sort(out.points, axis=0), np.sort(p.points, axis=0))

    def test_flat_plus_singleton_translates(self):
        out = minkowski_sum(flat((0, 1), (1, 0)), poly((0, 2)))
        assert isinstance(out, Flat)
        assert np.allclose(out.base, [0, 3])
        assert gap(Subspace(out.basis), span((1, 0))) < 1e-12

    def test_unsupported_pair(self):
        with pytest.raises(HyperconvexError):
            minkowski_sum(span((1, 0)), seg((0, 0), (1, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(HyperconvexError):
            minkowski_sum(seg((0, 0), (1, 0)), Polytope(np.zeros((1, 3))))


coords = st.floats(-50, 50, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=5),
    shift=st.tuples(coords, coords, coords),
)
def test_dimension_is_translation_invariant(pts, shift):
    p = Polytope(np.array(pts, dtype=float))
    q = translate(p, np.array(shift, dtype=float))
    assert dimension(p) == dimension(q)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
    b=st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
)
def test_minkowski_sum_generators_are_pairwise_sums(a, b):
    pa, pb = np.array(a, dtype=float), np.array(b, dtype=float)
    out = minkowski_sum(Polytope(pa), Polytope(pb))
    want = {tuple(x + y) for x in pa for y in pb}
    assert {tuple(p) for p in out.points.tolist()} <= want


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 24),
    n=st.integers(1, 8),
    values=st.sampled_from(("normal", "small integers", "signed zeros")),
)
def test_unique_points_are_the_rows_np_unique_gives(seed, m, n, values):
    rng = np.random.default_rng(seed)
    if values == "normal":
        pts = rng.standard_normal((m, n))
    elif values == "small integers":
        pts = rng.integers(-1, 2, size=(m, n)).astype(float)
    else:
        pts = rng.choice([-0.0, 0.0, 1.0], size=(m, n))
    pts = pts[rng.integers(0, m, size=m + int(rng.integers(0, m + 1)))]  # repeated rows
    u = Polytope(pts).unique_points
    # equal as numbers: which of two rows that differ only in the sign of a
    # zero stands for both is not fixed by np.unique either
    np.testing.assert_array_equal(u, np.unique(pts, axis=0))
    assert not u.flags.writeable


# ---------------------------------------------------------------------------
# the residual map a set keeps


KEEPERS = {
    "polytope": lambda: poly((0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 1)),
    "wolfe polytope": lambda: Polytope(np.random.default_rng(3).normal(size=(12, 3))),
    "flat": lambda: flat((1, 2, 3), (1, 1, 0)),
    "subspace": lambda: span((1, 1, 0), (0, 0, 1)),
}


@pytest.mark.parametrize("kind", sorted(KEEPERS))
def test_sets_pickle_and_copy_once_their_map_is_built(kind):
    s = KEEPERS[kind]()
    doc = serialize_set(s)
    X = np.random.default_rng(4).normal(size=(40, 3))
    d = distance_evaluator(s)(X)
    assert "_residuals" in vars(s)  # built and kept
    assert serialize_set(s) == doc
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert type(t) is type(s) and t == s
        assert distance_evaluator(t)(X).tobytes() == d.tobytes()
        assert serialize_set(t) == doc


@pytest.mark.parametrize("kind", ["polytope", "flat", "subspace"])
@pytest.mark.parametrize("built", [False, True])
def test_pickles_and_copies_keep_their_arrays_read_only(kind, built):
    # a polytope before and after its unique_points and map exist, a flat
    # and a subspace: a copy's arrays are as read-only as the original's
    s = KEEPERS[kind]()
    if built:
        distance_evaluator(s)(np.zeros((2, 3)))
        assert "_residuals" in vars(s)
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == {"polytope": 1 + built, "flat": 2, "subspace": 2}[kind]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
        assert t == s
