"""Charts for convex bodies riding on flats near a reference subspace.

A polytope B whose affine hull has direction v in the chart domain of w is
encoded by the triple (v, omega, a): the direction subspace, the offset of
the hull in the complement of w, and the shadow a = proj_w(B - omega), a
polytope living inside w.  Forward and inverse are mutually inverse and
linear in the generators, so they preserve affine dimension exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ToleranceConfig, resolve
from .grassmann import chart_flat_inv, check_complement_offset, lift_rows
from .sets import ConvexSet, Polytope, Subspace, _point, affine_hull, check_same_ambient


@dataclass(frozen=True)
class ChartTriple:
    direction: Subspace
    offset: np.ndarray
    body: Polytope

    def __post_init__(self):
        check_same_ambient(self.direction, self.body)
        object.__setattr__(self, "offset", _point(self.offset, self.body.ambient_dim, "offset"))


def base_map(s: ConvexSet) -> Subspace:
    """Direction subspace of the affine hull; a retraction (subspaces map
    to themselves)."""
    if isinstance(s, Subspace):
        return s
    if isinstance(s, Polytope):
        s = affine_hull(s)
    return Subspace(s.basis)


def lift_set(
    w: Subspace, v: Subspace, a: Polytope, tol: ToleranceConfig | None = None
) -> Polytope:
    """Generator-wise lift of a polytope contained in w onto v; the chart
    domain, containment and conditioning tests run once for the body."""
    cfg = resolve(tol)
    check_same_ambient(w, v, a)
    return Polytope(lift_rows(w, v, a.points, cfg, "direction subspace outside the chart domain"))


def chart_convex(
    w: Subspace, triple: ChartTriple, tol: ToleranceConfig | None = None
) -> Polytope:
    """Polytope encoded by the triple: lift of the body onto the direction
    subspace, translated by the offset."""
    cfg = resolve(tol)
    check_same_ambient(w, triple.direction)
    check_complement_offset(w, triple.offset, cfg)
    lifted = lift_rows(w, triple.direction, triple.body.points, cfg, "direction subspace outside the chart domain")
    return Polytope(lifted + triple.offset)


def chart_convex_inv(
    w: Subspace, b: Polytope, tol: ToleranceConfig | None = None
) -> ChartTriple:
    """Chart coordinates of a polytope: hull direction, hull offset in the
    complement of w (chart_flat_inv of the affine hull), and the shadow of
    the translated body inside w.

    The hull direction must have the chart dimension; flatter bodies have
    no preimage with a w-dimensional shadow and are rejected.
    """
    cfg = resolve(tol)
    v, offset = chart_flat_inv(w, affine_hull(b, cfg), cfg)
    shadow = (b.points - offset) @ (w.basis.T @ w.basis)
    return ChartTriple(v, offset, Polytope(shadow))
