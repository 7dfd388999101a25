"""Deterministic random instances for suites and fixtures."""

from __future__ import annotations

import numpy as np

from .errors import HyperconvexError
from .sets import ConvexSet, Flat, Polytope, Subspace, _integer, dimension, zero_subspace

# the order is part of every draw: random_instance keys its stream by a
# kind's position, and the verify suites pick kinds by index
_KINDS = ("gaussian-polytope", "uniform-subspace", "random-flat")


def _uniform_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    if k == 0:
        return zero_subspace(n)
    g = rng.standard_normal((n, k))
    q, _ = np.linalg.qr(g)
    return Subspace(q.T)


def random_instance(kind: str, n: int, k: int, seed: int) -> ConvexSet:
    """Deterministic draw of a random set.

    gaussian-polytope: hull of k+1 plus a few extra standard-normal points
    (redrawn on a rank-degenerate draw); uniform-subspace: rotation
    invariant k-dimensional subspace; random-flat: uniform subspace with a
    Gaussian offset.
    """
    if kind not in _KINDS:
        raise HyperconvexError(f"unknown generator kind {kind!r}")
    if not (_integer(n) and _integer(k)) or not 0 <= k <= n or n < 1:
        raise HyperconvexError("need integer dims with 0 <= k <= n and n >= 1")
    if not _integer(seed):
        raise HyperconvexError("seed must be an integer")
    rng = np.random.default_rng([_KINDS.index(kind) + 1, n, k, seed & 0x7FFFFFFF])
    if kind == "uniform-subspace":
        return _uniform_subspace(n, k, rng)
    if kind == "random-flat":
        v = _uniform_subspace(n, k, rng)
        return Flat(rng.standard_normal(n), v.basis)
    m = k + 1 + int(rng.integers(0, 3))
    for _ in range(64):
        pts = rng.standard_normal((m, n))
        p = Polytope(pts)
        if dimension(p) == min(m - 1, n):
            return p
    raise HyperconvexError("could not draw a non-degenerate polytope")
