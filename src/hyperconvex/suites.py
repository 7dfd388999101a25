"""Randomized verification suites for the library's geometric laws.

A suite is one row of the table _SUITES: its name and a check that runs
one trial, check(rng, n, t, cfg, rec).  run_suite holds the only trial
loop.  It hands each trial a seeded substream, keyed by suite, dimension,
seed and trial index, so runs are reproducible and order-independent.  A
check draws a random instance and tests a family of exact or certified
inequalities on it.  Violations are recorded with the offending inputs,
the measured residual, and the threshold it broke; a check passes its
inputs to the recorder as keywords, and they are serialized only when
the check fails.  Checks that compare certified intervals against a cut
point can come back undecided when the interval straddles the cut; those
trials count as inconclusive, never as failures.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .bundle import ChartTriple, base_map, chart_convex, chart_convex_inv, lift_set
from .config import ToleranceConfig, resolve
from .errors import HyperconvexError
from .generators import _KINDS, random_instance
from .grassmann import (
    chart_flat,
    chart_flat_inv,
    gap,
    gap_direct,
    in_chart_domain,
    lift_point,
    orthogonal_complement,
    orthonormal_basis,
    projection_matrix,
)
from .hypermetrics import (
    AWParams,
    attouch_wets,
    aw_origin,
    hausdorff,
    sup_distance_gap,
    truncated_hausdorff,
)
from .independence import (
    adversarial_independence_check,
    barycentric_coordinates,
    in_relative_interior,
    independence_radius,
    is_affinely_independent,
)
from .projection import contains, metric_projection, truncated_distance
from .report import Report
from .serialization import serialize_set
from .sets import ConvexSet, Flat, Polytope, Subspace, _integer, dimension, translate, zero_subspace

# noise floor for cross-checks between certified bounds: the bounds are
# sound up to rounding in the evaluated distance functions
_SLACK = 1e-9


class _Recorder:
    def __init__(self):
        self.failures: list[dict] = []
        self.inconclusive = 0

    def fail(self, check: str, residual: float, threshold: float, /, **inputs) -> None:
        self.failures.append(
            {
                "check": check,
                "inputs": _payload(inputs),
                "residual": float(residual),
                "threshold": float(threshold),
            }
        )

    def require(self, check: str, residual: float, threshold: float, /, **inputs) -> None:
        if not residual <= threshold:
            self.fail(check, residual, threshold, **inputs)


def _payload(inputs: dict) -> dict:
    out = {}
    for key, val in inputs.items():
        if isinstance(val, (Polytope, Flat)):
            out[key] = serialize_set(val)
        elif isinstance(val, np.ndarray):
            out[key] = np.asarray(val, dtype=float).tolist()
        elif isinstance(val, (np.floating, float)):
            out[key] = float(val)
        elif isinstance(val, (np.integer, int)):
            out[key] = int(val)
        else:
            out[key] = val
    return out


def _trial_rng(suite: str, n: int, seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        [SUITE_NAMES.index(suite), n, seed & 0x7FFFFFFF, trial]
    )


def _rand_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _random_set(rng, n: int, kind: str | None = None, k: int | None = None) -> ConvexSet:
    if kind is None:
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
    if k is None:
        k = int(rng.integers(1, n + 1))
    return random_instance(kind, n, k, _rand_seed(rng))


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    nv = np.linalg.norm(v)
    while nv < 1e-12:
        v = rng.normal(size=n)
        nv = np.linalg.norm(v)
    return v / nv


def _aw_params(n: int) -> AWParams:
    # the laws under test hold at any certification width; tight widths in
    # higher ambient dimension cost grid time without adding information
    if n <= 2:
        eps = 1e-3
    elif n == 3:
        eps = 1e-2
    else:
        eps = 5e-2
    return AWParams(eps_sup=eps)


def _independent_points(rng, n: int, k: int) -> np.ndarray:
    while True:
        pts = rng.normal(size=(k + 1, n))
        if is_affinely_independent(pts):
            return pts


def _point_on(rng, s: ConvexSet) -> np.ndarray:
    if isinstance(s, Polytope):
        lam = rng.dirichlet(np.ones(s.points.shape[0]))
        return lam @ s.points
    coords = rng.normal(size=s.basis.shape[0]) * 1.5
    return s.base + coords @ s.basis


def _tilted_subspace(rng, w: Subspace, lo: float = 0.05, hi: float = 0.7) -> Subspace:
    # bounded tilt keeps the chart linear systems well conditioned
    if w.dim == 0:
        return w
    for _ in range(32):
        t = float(rng.uniform(lo, hi))
        cand = orthonormal_basis(w.basis + t * rng.normal(size=w.basis.shape))
        if cand.dim == w.dim and in_chart_domain(w, cand):
            return cand
    return w


def _complement_vector(rng, w: Subspace, scale: float = 1.5) -> np.ndarray:
    g = rng.normal(size=w.basis.shape[1]) * scale
    if w.dim:
        g = g - (w.basis @ g) @ w.basis
        g = g - (w.basis @ g) @ w.basis
    return g


def _interval_disjointness(a, b) -> float:
    return max(a.lo - b.hi, b.lo - a.hi)


# ---------------------------------------------------------------------------
# projection laws


def _simplex_grid(m: int, g: int) -> np.ndarray:
    """All convex-weight vectors with m entries on the grid of step 1/g."""
    rows = []
    for cuts in itertools.combinations(range(g + m - 1), m - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(g + m - 2 - prev)
        rows.append(comp)
    return np.asarray(rows, dtype=float) / g


_GRID_STEPS = {1: 1, 2: 48, 3: 24, 4: 14, 5: 10, 6: 8}


def _grid_distance(s: ConvexSet, x: np.ndarray) -> tuple[float, float]:
    """(dense-grid minimum distance, certified covering error) over the set.

    The grid covers the region containing the true nearest point, so the
    grid minimum exceeds the distance by at most the covering error.
    """
    if isinstance(s, Polytope):
        pts = s.points
        m = pts.shape[0]
        g = _GRID_STEPS.get(m, 6)
        lam = _simplex_grid(m, g)
        cloud = lam @ pts
        gridmin = float(np.min(np.linalg.norm(cloud - x, axis=1)))
        spread = float(np.max(np.linalg.norm(pts - pts[0], axis=1)))
        return gridmin, m / g * spread
    basis, base = s.basis, s.base
    k = basis.shape[0]
    if k == 0:
        return float(np.linalg.norm(x - base)), 0.0
    center = basis @ (x - base)
    half = 0.75
    counts = {1: 201, 2: 41, 3: 17}[k]
    axes = [np.linspace(c - half, c + half, counts) for c in center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    cloud = base + mesh @ basis
    gridmin = float(np.min(np.linalg.norm(cloud - x, axis=1)))
    h = 2 * half / (counts - 1)
    return gridmin, h * math.sqrt(k) / 2


def _projection_laws(rng, n, t, cfg, rec):
    tau = cfg.tau_geom
    s = _random_set(rng, n, kind=_KINDS[t % 3])
    x = rng.normal(size=n) * 2.0
    y = rng.normal(size=n) * 2.0
    px, dx = metric_projection(s, x, cfg)
    py, _ = metric_projection(s, y, cfg)
    rec.require(
        "nonexpansive",
        float(np.linalg.norm(px - py) - np.linalg.norm(x - y)),
        tau,
        set=s, x=x, y=y,
    )
    if isinstance(s, Polytope):
        rec.require("variational", float(np.max((s.points - px) @ (x - px))), tau, set=s, x=x)
    elif s.basis.shape[0]:
        rec.require(
            "orthogonality", float(np.max(np.abs(s.basis @ (x - px)))), tau, set=s, x=x
        )
    z = _point_on(rng, s)
    pz, dz = metric_projection(s, z, cfg)
    if contains(s, z, tau, cfg):
        rec.require("fixed-point", float(np.linalg.norm(pz - z)), tau, set=s, z=z)
    k = int(rng.integers(1, min(n, 4) + 1))
    a = _independent_points(rng, n, k)
    r = float(rng.uniform(0.1, 1.0))
    radii = r * (1 - 1e-9) * rng.uniform(0, 1, size=k + 1) ** (1.0 / n)
    noise = rng.normal(size=(k + 1, n))
    noise *= (radii / np.linalg.norm(noise, axis=1))[:, None]
    lam = rng.dirichlet(np.ones(k + 1))
    rec.require(
        "combination-bound",
        float(np.linalg.norm(lam @ noise)),
        r,
        a=a, b=a + noise, weights=lam, r=r,
    )
    if n <= 3:
        gridmin, covering = _grid_distance(s, x)
        rec.require("grid-upper", dx - gridmin, 1e-9, set=s, x=x)
        rec.require("grid-lower", gridmin - dx, covering + 1e-9, set=s, x=x)


# ---------------------------------------------------------------------------
# truncation identity


def _truncation_lemma(rng, n, t, cfg, rec):
    s = _random_set(rng, n, kind=_KINDS[t % 3])
    _, nu = metric_projection(s, np.zeros(n), cfg)
    for j in (1, 2, 3):
        big = 2 * j + nu + 1.0
        x = 0.99 * j * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        _, plain = metric_projection(s, x, cfg)
        cut = truncated_distance(s, x, big, cfg)
        rec.require(
            "truncation-identity", abs(cut - plain), cfg.tau_geom, set=s, x=x, j=j, bound=big
        )


# ---------------------------------------------------------------------------
# localized-convergence metric axioms and threshold rules


def _aw_pair_partner(rng, a: ConvexSet, n: int) -> ConvexSet:
    if rng.uniform() < 0.5:
        v = rng.uniform(0.05, 0.8) * _unit(rng, n)
        return translate(a, v)
    return _random_set(rng, n)


def _aw_metric(rng, n, t, cfg, rec):
    params = _aw_params(n)
    a = _random_set(rng, n)
    b = _aw_pair_partner(rng, a, n)
    c = _aw_pair_partner(rng, b, n)
    ab = attouch_wets(a, b, params, cfg)
    ba = attouch_wets(b, a, params, cfg)
    rec.require("symmetry", _interval_disjointness(ab, ba), _SLACK, a=a, b=b)
    bc = attouch_wets(b, c, params, cfg)
    ac = attouch_wets(a, c, params, cfg)
    rec.require("triangle", ac.lo - (ab.hi + bc.hi), _SLACK, a=a, b=b, c=c)
    straddled = False
    for j in (1, 2):
        sg = sup_distance_gap(a, b, float(j), params.eps_sup, cfg)
        cut = 1.0 / j
        # a certified value below the cut forces the ball gap below it
        if ab.hi < cut:
            rec.require("threshold-forward", sg.lo - ab.hi, _SLACK, a=a, b=b, j=j)
        elif ab.lo < cut:
            straddled = True
        # conversely, a small ball gap pins the metric under the grid cut
        if sg.hi < cut:
            rec.require(
                "threshold-converse",
                ab.lo - max(sg.hi, 1.0 / (j + 1)),
                _SLACK,
                a=a, b=b, j=j,
            )
        elif sg.lo < cut:
            straddled = True
    rec.inconclusive += straddled


# ---------------------------------------------------------------------------
# origin route equivalence


def _random_origin_set(rng, n: int, kind: str) -> ConvexSet:
    s = _random_set(rng, n, kind)
    if isinstance(s, Subspace):
        return s
    if isinstance(s, Flat):
        return Flat(np.zeros(n), s.basis)
    return Polytope(s.points - s.points.mean(axis=0))


def _origin_pair(rng, n: int, t: int) -> tuple[ConvexSet, ConvexSet]:
    style = t % 5
    if style <= 1:
        for _ in range(16):
            a = _random_origin_set(rng, n, "uniform-subspace")
            b = _random_origin_set(rng, n, "uniform-subspace")
            # near-identical lines make the index sweep deep for no gain
            if gap(a, b) >= 0.05:
                return a, b
        return a, b
    if style == 2:
        a = _random_origin_set(rng, n, "random-flat")
        b = _random_origin_set(rng, n, "random-flat")
        return a, b
    return (
        _random_origin_set(rng, n, "gaussian-polytope"),
        _random_origin_set(rng, n, "gaussian-polytope"),
    )


def _aw_origin_equivalence(rng, n, t, cfg, rec):
    params = _aw_params(n)
    a, b = _origin_pair(rng, n, t)
    aw = attouch_wets(a, b, params, cfg)
    ao = aw_origin(a, b, params, cfg)
    rec.require("origin-agreement", _interval_disjointness(aw, ao), _SLACK, a=a, b=b)
    straddled = False
    for j in (1, 2):
        th = truncated_hausdorff(a, b, float(j), params.eps_sup, cfg)
        # interior cut points: values pinned exactly at 1/m would make
        # the endpoint cut permanently undecidable
        for eps in (0.99 / j, 0.5 * (1.0 / j + 1.0 / (j + 1))):
            aw_below, aw_above = aw.hi < eps - _SLACK, aw.lo >= eps + _SLACK
            th_below, th_above = th.hi < eps - _SLACK, th.lo >= eps + _SLACK
            if aw_below and th_above:
                rec.fail("cutoff-forward", th.lo - eps, 0.0, a=a, b=b, j=j, eps=eps)
            elif th_below and aw_above:
                rec.fail("cutoff-converse", aw.lo - eps, 0.0, a=a, b=b, j=j, eps=eps)
            elif not (aw_below or aw_above) or not (th_below or th_above):
                straddled = True
    rec.inconclusive += straddled


# ---------------------------------------------------------------------------
# gap oracle, complement isometry, sandwich


def _gap_oracle(rng, n, t, cfg, rec):
    eps = 1e-3
    v = _random_set(rng, n, "uniform-subspace", int(rng.integers(0, n + 1)))
    w = _random_set(rng, n, "uniform-subspace", int(rng.integers(0, n + 1)))
    u = _random_set(rng, n, "uniform-subspace", int(rng.integers(0, n + 1)))
    g = gap(v, w)
    gd = gap_direct(v, w, eps, cfg)
    rec.require("oracle-agreement", abs(g - gd.mid), eps + gd.width + _SLACK, v=v, w=w)
    rec.require("symmetry", abs(g - gap(w, v)), _SLACK, v=v, w=w)
    rec.require("triangle", gap(v, u) - (g + gap(w, u)), cfg.tau_geom, v=v, w=w, u=u)


def _gap_complement(rng, n, t, cfg, rec):
    v = _random_set(rng, n, "uniform-subspace", int(rng.integers(0, n + 1)))
    w = _random_set(rng, n, "uniform-subspace", int(rng.integers(0, n + 1)))
    rec.require(
        "complement-isometry",
        abs(gap(v, w) - gap(orthogonal_complement(v), orthogonal_complement(w))),
        cfg.tau_geom,
        v=v, w=w,
    )


def _gap_sandwich(rng, n, t, cfg, rec):
    eps = 1e-3
    k = int(rng.integers(1, n + 1))
    v = _random_set(rng, n, "uniform-subspace", k)
    kw = k if rng.uniform() < 0.7 else int(rng.integers(1, n + 1))
    w = _random_set(rng, n, "uniform-subspace", kw)
    theta = gap(v, w)
    straddled = False
    for j in (1, 2, 3):
        iv = truncated_hausdorff(v, w, float(j), eps, cfg)
        slack = eps + cfg.tau_geom
        if iv.hi < theta - slack:
            rec.fail("sandwich-lower", theta - iv.hi, slack, v=v, w=w, j=j)
        elif iv.lo > j * theta + slack:
            rec.fail("sandwich-upper", iv.lo - j * theta, slack, v=v, w=w, j=j)
        elif iv.lo < theta - slack or iv.hi > j * theta + slack:
            straddled = True
    rec.inconclusive += straddled


# ---------------------------------------------------------------------------
# charts of flats


def _flat_charts(rng, n, t, cfg, rec):
    tau = cfg.tau_geom
    k = int(rng.integers(0, n))
    w = (
        random_instance("uniform-subspace", n, k, _rand_seed(rng))
        if k
        else zero_subspace(n)
    )
    v = _tilted_subspace(rng, w)
    omega = _complement_vector(rng, w)
    f = chart_flat(w, v, omega, cfg)
    v2, omega2 = chart_flat_inv(w, f, cfg)
    rec.require("round-trip-direction", gap(v, v2), tau, w=w, v=v, omega=omega)
    rec.require(
        "round-trip-offset", float(np.linalg.norm(omega - omega2)), tau, w=w, v=v, omega=omega
    )
    dirsub = _tilted_subspace(rng, w)
    f2 = Flat(rng.normal(size=n) * 1.5, dirsub.basis)
    v3, omega3 = chart_flat_inv(w, f2, cfg)
    f3 = chart_flat(w, v3, omega3, cfg)
    rec.require("reverse-direction", gap(v3, dirsub), tau, w=w, f=f2)
    rec.require(
        "reverse-base-forward", metric_projection(f2, f3.base, cfg)[1], tau, w=w, f=f2
    )
    rec.require("reverse-base-back", metric_projection(f3, f2.base, cfg)[1], tau, w=w, f=f2)
    if k:
        w1 = rng.normal(size=k) @ w.basis
        w2 = rng.normal(size=k) @ w.basis
        alpha = float(rng.uniform(-2, 2))
        x1 = lift_point(w, v, w1, cfg)
        x2 = lift_point(w, v, w2, cfg)
        rec.require(
            "lift-section",
            float(np.linalg.norm((w.basis @ x1) @ w.basis - w1)),
            tau,
            w=w, v=v, point=w1,
        )
        rec.require(
            "lift-membership",
            float(np.linalg.norm(x1 - (v.basis @ x1) @ v.basis)),
            tau,
            w=w, v=v, point=w1,
        )
        rec.require(
            "lift-linearity",
            float(np.linalg.norm(lift_point(w, v, alpha * w1 + w2, cfg) - (alpha * x1 + x2))),
            tau,
            w=w, v=v, p1=w1, p2=w2, alpha=alpha,
        )
    p = projection_matrix(v)
    pc = projection_matrix(orthogonal_complement(v))
    eye = np.eye(n)
    rec.require("projector-partition", float(np.abs(p + pc - eye).max()), cfg.tau_orth, v=v)
    rec.require("projector-symmetric", float(np.abs(p - p.T).max()), cfg.tau_orth, v=v)
    rec.require("projector-idempotent", float(np.abs(p @ p - p).max()), cfg.tau_orth, v=v)
    rec.require("projector-trace", abs(float(np.trace(p)) - v.dim), cfg.tau_rank, v=v)


# ---------------------------------------------------------------------------
# charts of convex bodies


def _body_in(rng, w: Subspace, k: int) -> Polytope:
    for _ in range(8):
        m = k + 1 + int(rng.integers(0, 3))
        pts = (rng.normal(size=(m, k)) * 1.2) @ w.basis
        body = Polytope(pts)
        if dimension(body) == k:
            return body
    raise HyperconvexError("could not draw a full-dimensional body in the base")


def _convex_charts(rng, n, t, cfg, rec):
    tau = cfg.tau_geom
    k = int(rng.integers(1, min(n - 1, 3) + 1))
    w = random_instance("uniform-subspace", n, k, _rand_seed(rng))
    v = _tilted_subspace(rng, w)
    omega = _complement_vector(rng, w)
    body = _body_in(rng, w, k)
    lifted = chart_convex(w, ChartTriple(v, omega, body), cfg)
    back = chart_convex_inv(w, lifted, cfg)
    rec.require("round-trip-direction", gap(v, back.direction), tau, w=w, v=v)
    rec.require(
        "round-trip-offset",
        float(np.linalg.norm(omega - back.offset)),
        tau,
        w=w, v=v, omega=omega,
    )
    rec.require("round-trip-body", hausdorff(body, back.body), tau, w=w, v=v, body=body)
    rec.require(
        "dimension-preserved",
        abs(dimension(lifted) - dimension(body)),
        0,
        w=w, v=v, body=body,
    )
    shadow = Polytope(lift_set(w, v, body, cfg).points @ (w.basis.T @ w.basis))
    rec.require("section", hausdorff(shadow, body), tau, w=w, v=v, body=body)
    rec.require("base-equivariance", gap(base_map(lifted), v), tau, w=w, v=v, body=body)
    # a second, generically separated triple must land elsewhere
    v2 = _tilted_subspace(rng, w)
    omega2 = _complement_vector(rng, w)
    body2 = _body_in(rng, w, k)
    separation = max(
        gap(v, v2),
        float(np.linalg.norm(omega - omega2)),
        hausdorff(body, body2),
    )
    if separation > 1e-3:
        other = chart_convex(w, ChartTriple(v2, omega2, body2), cfg)
        moved = hausdorff(lifted, other)
        if moved <= 10 * tau:
            rec.fail(
                "injectivity",
                moved,
                10 * tau,
                w=w, v=v, v2=v2, omega=omega, omega2=omega2,
            )
    back2 = chart_convex_inv(w, lifted, cfg)
    again = chart_convex(w, back2, cfg)
    rec.require("reverse-round-trip", hausdorff(lifted, again), tau, w=w, body=body)


# ---------------------------------------------------------------------------
# independence certificates


def _independence(rng, n, t, cfg, rec):
    k = int(rng.integers(1, min(n, 5) + 1))
    fam = _independent_points(rng, n, k)
    delta = independence_radius(fam, cfg)
    rep = adversarial_independence_check(fam, delta, 2000, _rand_seed(rng))
    if rep.failures:
        rec.fail("certificate-soundness", len(rep.failures), 0, points=fam, delta=delta)
    c = float(rng.uniform(0.1, 10.0))
    rec.require(
        "radius-scaling",
        abs(independence_radius(c * fam, cfg) - c * delta),
        cfg.tau_geom,
        points=fam, c=c,
    )
    lam = rng.dirichlet(np.full(k + 1, 2.0))
    lam = (lam + 0.01) / (1 + 0.01 * (k + 1))
    x = lam @ fam
    if not in_relative_interior(fam, x):
        rec.fail("interior-detection", 1.0, 0, points=fam, x=x)
    else:
        lam2 = barycentric_coordinates(fam, x)
        rec.require(
            "barycentric-reconstruction",
            float(np.linalg.norm(lam2 @ fam - x)),
            cfg.tau_geom,
            points=fam, x=x,
        )


# ---------------------------------------------------------------------------
# stability of simplices under perturbed vertices


def _regular_simplex(k: int) -> np.ndarray:
    """k+1 vertices of a regular simplex in R^k, centered, circumradius 1."""
    e = np.eye(k + 1) - np.full((k + 1, k + 1), 1.0 / (k + 1))
    _, _, vh = np.linalg.svd(np.ones((1, k + 1)))
    coords = e @ vh[1:].T
    return coords / np.linalg.norm(coords[0])


def _nearby_flat(rng, f: Flat, tilt: float) -> Flat:
    basis = orthonormal_basis(f.basis + tilt * rng.normal(size=f.basis.shape)).basis
    return Flat(f.base + tilt * rng.normal(size=f.base.shape), basis)


def _simplex_stability(rng, n, t, cfg, rec):
    k = int(rng.integers(1, min(n, 3) + 1))
    flat = random_instance("random-flat", n, k, _rand_seed(rng))
    anchor = flat.base + (rng.normal(size=k) * 1.2) @ flat.basis
    scale = float(rng.uniform(0.8, 2.0))
    verts = anchor + scale * _regular_simplex(k) @ flat.basis
    # the ball of radius 3M around the anchor must stay strictly inside
    # the simplex (inradius scale/k), and vertex balls of radius M must
    # stay affinely independent
    m_bound = min(scale / (4 * k), 0.9 * independence_radius(verts, cfg))
    m = m_bound * float(rng.uniform(0.6, 1.0))
    tilt = 0.1 * m / (1.0 + float(np.linalg.norm(anchor)) + scale)
    for _ in range(6):
        other = _nearby_flat(rng, flat, tilt)
        lifted = np.array([metric_projection(other, vert, cfg)[0] for vert in verts])
        if float(np.linalg.norm(lifted - verts, axis=1).max()) <= 0.9 * m:
            break
        tilt /= 4.0
    else:
        other = flat
        lifted = verts.copy()
    center = lifted.mean(axis=0)
    for _ in range(8):
        mu = rng.dirichlet(np.ones(k + 1))
        cand = mu @ lifted
        if np.linalg.norm(cand - anchor) <= 0.995 * m:
            center = cand
            break
    for probe in range(10):
        direction = _unit(rng, k) @ other.basis
        rho = m * (1 - 1e-9)
        if probe < 5:
            rho *= float(rng.uniform(0, 1)) ** (1.0 / k)
        y = center + rho * direction
        if not in_relative_interior(lifted, y):
            rec.fail("stability", 1.0, 0, simplex=lifted, y=y, m=m)
            continue
        lam = barycentric_coordinates(lifted, y)
        rec.require(
            "barycentric-reconstruction",
            float(np.linalg.norm(lam @ lifted - y)),
            cfg.tau_geom,
            simplex=lifted, y=y,
        )


# ---------------------------------------------------------------------------
# continuity probes


_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def _continuity_probes(rng, n, t, cfg, rec):
    params = _aw_params(n)
    s = _random_set(rng, n, kind=_KINDS[t % 3])
    u = _unit(rng, n)
    ivs = []
    for step in _LADDER:
        moved = translate(s, step * u)
        ivs.append(attouch_wets(s, moved, params, cfg))
    for lo_iv, hi_iv in zip(ivs[1:], ivs[:-1]):
        rec.require("translation-monotone", lo_iv.lo - hi_iv.hi, _SLACK, set=s, direction=u)
    rec.require("translation-limit", ivs[-1].hi, 1e-2, set=s, direction=u)
    p0, nu0 = metric_projection(s, np.zeros(n), cfg)
    for step in _LADDER:
        if isinstance(s, Polytope):
            noise = rng.normal(size=s.points.shape)
            norms = np.maximum(np.linalg.norm(noise, axis=1), 1e-12)
            nearby = Polytope(s.points + noise * (step * 0.99 / norms)[:, None])
        else:
            nearby = translate(s, step * _unit(rng, n))
        p1, nu1 = metric_projection(nearby, np.zeros(n), cfg)
        rec.require(
            "nearest-value-continuity",
            abs(nu1 - nu0),
            10 * math.sqrt(step),
            set=s, perturbation=step,
        )
        rec.require(
            "nearest-point-continuity",
            float(np.linalg.norm(p1 - p0)),
            10 * math.sqrt(step),
            set=s, perturbation=step,
        )


# ---------------------------------------------------------------------------
# entry point


# the order is part of every report: _trial_rng keys each suite's streams
# by its index in SUITE_NAMES
_SUITES = {
    "projection-laws": _projection_laws,
    "truncation-lemma": _truncation_lemma,
    "aw-metric": _aw_metric,
    "aw-origin-equivalence": _aw_origin_equivalence,
    "gap-oracle": _gap_oracle,
    "gap-complement": _gap_complement,
    "gap-sandwich": _gap_sandwich,
    "flat-charts": _flat_charts,
    "convex-charts": _convex_charts,
    "independence": _independence,
    "simplex-stability": _simplex_stability,
    "continuity-probes": _continuity_probes,
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(
    name: str,
    n: int,
    trials: int,
    seed: int,
    tolerances: ToleranceConfig | None = None,
) -> Report:
    """Run one named suite (or "all", every suite in turn, its failures
    tagged with their suite) and return its report.

    Reports are reproducible: identical arguments give identical content
    up to runtime_ms.
    """
    cfg = resolve(tolerances)
    if not _integer(n) or n < 1:
        raise HyperconvexError("ambient dimension must be a positive integer")
    if not _integer(trials) or trials < 0:
        raise HyperconvexError("trials must be a nonnegative integer")
    if not _integer(seed):
        raise HyperconvexError("seed must be an integer")
    if name != "all" and name not in _SUITES:
        raise HyperconvexError(f"unknown suite: {name!r}")
    n, trials, seed = int(n), int(trials), int(seed)
    subs = tuple(_SUITES) if name == "all" else (name,)
    start = time.perf_counter()
    failures, inconclusive = [], 0
    for sub in subs:
        check = _SUITES[sub]
        if check is _convex_charts and n < 2:
            raise HyperconvexError("convex-charts needs ambient dimension at least 2")
        rec = _Recorder()
        for t in range(trials):
            check(_trial_rng(sub, n, seed, t), n, t, cfg, rec)
        inconclusive += rec.inconclusive
        failures += [{"suite": sub, **f} for f in rec.failures] if name == "all" else rec.failures
    ms = int(round((time.perf_counter() - start) * 1000))
    return Report(name, len(subs) * trials, failures, inconclusive, seed, ms)
