"""Affine independence: certificates, perturbation radii, and stress tests.

The quantitative certificate: a family of k+1 points whose difference
matrix has smallest singular value sigma stays affinely independent under
any perturbation of the points by less than sigma / (4 sqrt(k)).  The
adversarial checker hammers that radius with random and structured
perturbations and reports every independence failure it finds.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import HyperconvexError
from .report import Report
from .sets import _integer, _point


def _family(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise HyperconvexError("expected a nonempty 2d array of points")
    if not np.all(np.isfinite(pts)):
        raise HyperconvexError("points must be finite")
    return pts


def _diff_matrix(pts: np.ndarray) -> np.ndarray:
    return pts[1:] - pts[0]


def _independent_svd(d: np.ndarray, tol: float, compute_uv: bool = False):
    """The SVD of the difference matrix d (k >= 1 rows) of a family, its
    singular values alone unless compute_uv, or None when the family is
    affinely dependent: k above the dimension, or a smallest singular value
    at or below tol times the largest floored at 1."""
    if d.shape[0] > d.shape[1]:
        return None
    svd = np.linalg.svd(d, full_matrices=False, compute_uv=compute_uv)
    sv = svd[1] if compute_uv else svd
    return svd if sv[-1] > tol * max(float(sv[0]), 1.0) else None


def is_affinely_independent(points, tol: float | None = None) -> bool:
    """True when no point lies in the affine hull of the others.

    Decided on the smallest singular value of the difference matrix, with
    cutoff tol times the largest singular value floored at 1.
    """
    pts = _family(points)
    tol = ToleranceConfig().tau_rank if tol is None else tol
    return pts.shape[0] == 1 or _independent_svd(_diff_matrix(pts), tol) is not None


def independence_radius(points, tol: ToleranceConfig | None = None) -> float:
    """Certified perturbation radius: moving every point by strictly less
    than this keeps the family affinely independent.  A single point is
    unconditionally independent (radius inf)."""
    cfg = resolve(tol)
    pts = _family(points)
    k = pts.shape[0] - 1
    if k == 0:
        return math.inf
    sv = _independent_svd(_diff_matrix(pts), cfg.tau_rank)
    if sv is None:
        raise HyperconvexError("family is affinely dependent; no radius exists")
    return float(sv[-1]) / (4.0 * math.sqrt(k))


_BLOCK = 256


def adversarial_independence_check(
    points, delta: float, trials: int, seed: int
) -> Report:
    """Try to break affine independence by perturbing each point within a
    closed delta-ball.

    Perturbations: uniform in the ball, boundary-biased (pushed to radius
    delta), and a structured probe that projects the family onto its best
    least-squares fitting hyperplane whenever that fits within delta.  A
    trial fails when the perturbed difference matrix is numerically rank
    deficient.  Work is sharded into fixed blocks with RNG substreams keyed
    by (seed, block), so results do not depend on execution order.
    """
    t0 = time.perf_counter()
    pts = _family(points)
    if not 0.0 < delta < math.inf:
        raise HyperconvexError("delta must be positive and finite")
    if not _integer(trials) or trials < 0:
        raise HyperconvexError("trials must be a nonnegative integer")
    k = pts.shape[0] - 1
    report = Report(suite="independence-adversarial", trials=trials, seed=seed)
    if trials == 0 or k == 0:
        report.runtime_ms = int(round((time.perf_counter() - t0) * 1000))
        return report
    sv = _independent_svd(_diff_matrix(pts), ToleranceConfig().tau_rank)
    floor = 1e-9 if sv is None else min(1e-9, float(sv[-1]) / 4.0)

    def record(perturbed: np.ndarray, sigma: float, kind: str) -> None:
        report.failures.append(
            {
                "kind": kind,
                "inputs": {"points": perturbed.tolist(), "delta": delta},
                "residual": sigma,
                "threshold": floor,
            }
        )

    # structured probe: flatten onto the best-fit affine hyperplane
    center = pts.mean(axis=0)
    _, s, vh = np.linalg.svd(pts - center, full_matrices=False)
    if s.size >= 1:
        drop = vh[-1]
        coords = (pts - center) @ drop
        if float(np.abs(coords).max()) <= delta:
            flattened = pts - coords[:, None] * drop[None, :]
            sv = np.linalg.svd(_diff_matrix(flattened), compute_uv=False)
            sigma = float(sv[-1])
            if sigma <= floor:
                record(flattened, sigma, "structured-probe")

    m, n = pts.shape
    done = 0
    block = 0
    while done < trials:
        count = min(_BLOCK, trials - done)
        rng = np.random.default_rng([seed, block])
        noise = rng.standard_normal((count, m, n))
        noise /= np.maximum(np.linalg.norm(noise, axis=2, keepdims=True), 1e-300)
        radii = delta * rng.random((count, m, 1)) ** (1.0 / n)
        # push half of each block to the boundary of the delta-ball
        half = count // 2
        radii[:half] = delta * (1.0 - 1e-12)
        perturbed = pts[None, :, :] + noise * radii
        diffs = perturbed[:, 1:, :] - perturbed[:, :1, :]
        sv = np.linalg.svd(diffs, compute_uv=False)
        bad = np.nonzero(sv[:, -1] <= floor)[0]
        for i in bad:
            record(perturbed[i], float(sv[i, -1]), "random")
        done += count
        block += 1
    report.runtime_ms = int(round((time.perf_counter() - t0) * 1000))
    return report


def _barycentric(pts: np.ndarray, x: np.ndarray, tol: float):
    """Barycentric coordinates of x in the family pts from one SVD of its
    difference matrix, or None when x sits off the affine hull by more than
    tol relative to the data scale; a dependent family raises."""
    d, r, mu = _diff_matrix(pts), x - pts[0], np.zeros(0)
    if d.shape[0]:
        svd = _independent_svd(d, ToleranceConfig().tau_rank, compute_uv=True)
        if svd is None:
            raise HyperconvexError("simplex points must be affinely independent")
        u, sv, vt = svd
        mu = u @ ((vt @ r) / sv)  # the least-squares solution of mu @ d = r
    scale = max(1.0, float(np.linalg.norm(x)), float(np.abs(pts).max()))
    if np.linalg.norm(mu @ d - r) > tol * scale:
        return None
    return np.concatenate([[1.0 - mu.sum()], mu])


def barycentric_coordinates(simplex, x, tol: float = 1e-9) -> np.ndarray:
    """Barycentric coordinates of x with respect to an affinely independent
    family; unique because the difference matrix has full row rank.

    Raises when the family is dependent, x is not finite, or x sits off the
    affine hull by more than tol relative to the data scale.
    """
    pts = _family(simplex)
    lam = _barycentric(pts, _point(x, pts.shape[1], "point"), tol)
    if lam is None:
        raise HyperconvexError("point lies off the affine hull of the simplex")
    return lam


def in_relative_interior(simplex, x, tol: float = 1e-9) -> bool:
    """True when x lies strictly inside the simplex: every barycentric
    coordinate in (tol, 1 - tol).  Points off the affine hull (by 1e-9
    relative to the data scale) are outside; a non-finite x raises.
    """
    pts = _family(simplex)
    x = _point(x, pts.shape[1], "point")
    if pts.shape[0] == 1:
        return bool(np.linalg.norm(x - pts[0]) <= tol)
    lam = _barycentric(pts, x, 1e-9)
    return lam is not None and bool(np.all(lam > tol) and np.all(lam < 1.0 - tol))
