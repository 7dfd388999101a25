"""Core set representations.

Two closed convex representations in R^n, with one special case:

* ``Polytope`` -- convex hull of finitely many generator points (V-rep),
* ``Flat``     -- affine subspace, base point plus orthonormal direction rows,
* ``Subspace`` -- the flat through the origin: a ``Flat`` whose base is the
  origin, built from its basis rows alone.

A flat is one point plus a linear span L and a subspace is {0} plus L, so
every routine that reads ``base`` and ``basis`` serves flats and subspaces
alike, and only polytopes need a branch of their own.

Instances are frozen and their arrays are made read-only, so values can be
shared freely across threads; every operation returns new objects.  Two
sets are equal when they are of the same class and hold the same data: a
polytope's distinct generators (``unique_points``, deduplicated on first
use, not at construction, and kept out of serialization), a flat's base
and basis.  Sets are not hashable.  ``_point`` is the one check of a point
argument: a finite float vector of the ambient dimension.  A set builds
its batch residual map (``_residuals``) on first use and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import DimensionMismatchError, HyperconvexError


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    if not np.isfinite(a).all():
        raise HyperconvexError("coordinates must be finite")
    a.setflags(write=False)
    return a


def _point(x, n: int, name: str) -> np.ndarray:
    """x as a float vector of shape (n,): DimensionMismatchError for any
    other shape, HyperconvexError unless finite; both messages name x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"{name} must have shape ({n},), not {x.shape}")
    if not np.isfinite(x).all():
        raise HyperconvexError(f"{name} must be finite")
    return x


def _integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not one here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_orthonormal_rows(basis: np.ndarray, tau: float) -> None:
    k = basis.shape[0]
    if k == 0:
        return
    gram = basis @ basis.T
    err = float(np.abs(gram - np.eye(k)).max())
    if err > tau:
        raise HyperconvexError(
            f"basis rows are not orthonormal (deviation {err:.3e} > {tau:.1e})"
        )


class _Kernel:
    """Keeps a set's batch residual map (projection._residual_rows, which
    picks the route), built on first use; the map takes no tolerances, and
    pickles and copies leave it out, as a closure does not pickle.  They
    get their arrays back read-only, as the map and unique_points rest on
    the data staying as it was."""

    @cached_property
    def _residuals(self):
        from .projection import _residual_rows  # projection imports sets

        return _residual_rows(self)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_residuals"}

    def __setstate__(self, state):
        for v in state.values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class Polytope(_Kernel):
    """Convex hull of the rows of ``points`` (shape (m, n), m >= 1)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _freeze(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise HyperconvexError("points must be a non-empty (m, n) array")
        object.__setattr__(self, "points", pts)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.unique_points, other.unique_points)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def unique_points(self) -> np.ndarray:
        """The distinct generators in lexicographic order, read-only: the
        rows np.unique(points, axis=0) gives.

        A stable lexsort, then every row equal to its predecessor dropped,
        which costs a fraction of np.unique's sort of the rows as records;
        of rows that differ only in the sign of a zero the first one stays.
        """
        pts = self.points[np.lexsort(self.points.T[::-1])]
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        pts = pts[keep]
        pts.setflags(write=False)
        return pts


@dataclass(frozen=True, eq=False)
class Flat(_Kernel):
    """Affine subspace ``base + span(basis rows)``; basis rows orthonormal."""

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        base = _freeze(self.base)
        basis = _freeze(self.basis)
        if base.ndim != 1 or base.shape[0] < 1:
            raise HyperconvexError("base must be a non-empty vector")
        if basis.ndim != 2 or basis.shape[1] != base.shape[0]:
            raise HyperconvexError("basis must be (k, n) with n matching base")
        if basis.shape[0] > basis.shape[1]:
            raise HyperconvexError("more basis rows than ambient dimensions")
        _check_orthonormal_rows(basis, ToleranceConfig().tau_orth)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.base, other.base) and np.array_equal(self.basis, other.basis)

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


class Subspace(Flat):
    """Linear subspace spanned by orthonormal ``basis`` rows (k, n); k may
    be 0.  It is the flat through the origin: ``base`` is the origin."""

    def __init__(self, basis) -> None:
        shape = np.shape(basis)
        if len(shape) != 2 or shape[1] < 1:
            raise HyperconvexError("basis must be a (k, n) array with n >= 1")
        super().__init__(np.zeros(shape[1]), basis)


ConvexSet = Union[Polytope, Flat]


def zero_subspace(n: int) -> Subspace:
    return Subspace(np.zeros((0, n)))


def check_same_ambient(*sets: ConvexSet) -> None:
    dims = [s.ambient_dim for s in sets]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"ambient dimensions disagree: {dims}")


def _row_space(a: np.ndarray, tau_rank: float) -> np.ndarray:
    """Orthonormal rows spanning the row space of a: the right singular
    vectors whose singular values exceed tau_rank * max(sigma_max, 1)."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = tau_rank * max(float(s[0]) if s.size else 0.0, 1.0)
    return vh[: int(np.sum(s > cutoff))]


def affine_hull(p: Polytope, tol: ToleranceConfig | None = None) -> Flat:
    """Smallest flat containing the polytope: its first generator plus the
    row space of the generator differences, by _row_space's rank cut."""
    cfg = resolve(tol)
    base = p.points[0]
    if p.points.shape[0] == 1:
        return Flat(base, np.zeros((0, p.ambient_dim)))
    return Flat(base, _row_space(p.points[1:] - base, cfg.tau_rank))


def dimension(s: ConvexSet, tol: ToleranceConfig | None = None) -> int:
    """Affine dimension of the set."""
    if isinstance(s, Polytope):
        return affine_hull(s, tol).dim
    return s.dim


def translate(s: ConvexSet, v: np.ndarray) -> ConvexSet:
    """Exact translate of a set by the vector v."""
    v = _point(v, s.ambient_dim, "translation vector")
    if isinstance(s, Polytope):
        return Polytope(s.points + v)
    if isinstance(s, Subspace) and not v.any():
        return s
    return Flat(s.base + v, s.basis)


def minkowski_sum(a: ConvexSet, b: ConvexSet) -> ConvexSet:
    """Minkowski sum for the supported pairs.

    polytope + polytope gives the hull of pairwise generator sums; adding a
    singleton polytope translates the other operand.  Sums that would leave
    the representable fragment (flat + non-degenerate polytope produce
    slabs) are rejected.
    """
    check_same_ambient(a, b)
    if isinstance(b, Polytope) and b.points.shape[0] == 1:
        return translate(a, b.points[0])
    if isinstance(a, Polytope) and a.points.shape[0] == 1:
        return translate(b, a.points[0])
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.ambient_dim)
        return Polytope(pts)
    raise HyperconvexError(
        "minkowski_sum supports polytope+polytope and set+singleton pairs only"
    )

