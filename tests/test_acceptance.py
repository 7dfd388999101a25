"""Acceptance checks: every release gate in one module.

Each test drives one property at full load, prints a single PASS/FAIL line
with its runtime, and enforces a wall-clock budget.  Run with -v to get the
per-criterion verdict list.
"""

import time

import numpy as np

from hyperconvex import (
    ChartTriple,
    Flat,
    Polytope,
    Subspace,
    adversarial_independence_check,
    attouch_wets,
    aw_origin,
    base_map,
    chart_convex,
    chart_convex_inv,
    chart_flat,
    chart_flat_inv,
    dimension,
    gap,
    gap_direct,
    hausdorff,
    in_chart_domain,
    in_relative_interior,
    independence_radius,
    is_affinely_independent,
    metric_projection,
    nearest_point,
    orthogonal_complement,
    orthonormal_basis,
    random_instance,
    translate,
    truncated_distance,
    truncated_hausdorff,
    zero_subspace,
)

MARGIN = 1e-9  # float rounding allowance on certified interval endpoints


def conclude(name: str, elapsed: float, budget: float, ok: bool, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s budget]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: exceeded {budget:.0f}s budget ({elapsed:.2f}s)"


def draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def random_set(rng, n: int, kind_idx: int):
    kind = ("gaussian-polytope", "random-flat", "uniform-subspace")[kind_idx % 3]
    k = 1 + kind_idx % n if n > 1 else 1
    return random_instance(kind, n, min(k, n), draw_seed(rng))


def random_subspace(rng, n: int, k: int) -> Subspace:
    if k == 0:
        return zero_subspace(n)
    return random_instance("uniform-subspace", n, k, draw_seed(rng))


def ball_point(rng, n: int, radius: float) -> np.ndarray:
    x = rng.normal(size=n)
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        return np.zeros(n)
    return x * (radius * rng.uniform() ** (1.0 / n) / norm)


def tilted(rng, w: Subspace, spread: float = 0.4) -> Subspace:
    """A subspace of the same dimension inside w's chart neighborhood."""
    if w.dim == 0:
        return w
    for _ in range(32):
        v = orthonormal_basis(w.basis + spread * rng.normal(size=w.basis.shape))
        if v.dim == w.dim and in_chart_domain(w, v):
            return v
    return w


def complement_offset(rng, w: Subspace) -> np.ndarray:
    comp = orthogonal_complement(w)
    if comp.dim == 0:
        return np.zeros(w.ambient_dim)
    return comp.basis.T @ rng.normal(size=comp.dim)


def vi_residual(s, x, px) -> float:
    """Largest violation of the nearest-point variational inequality."""
    if isinstance(s, Polytope):
        return float(np.max((s.points - px) @ (x - px)))
    basis = s.basis
    if basis.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(basis @ (x - px))))


def test_c01_projection_laws():
    rng = np.random.default_rng(101)
    budget, t0 = 10.0, time.perf_counter()
    worst_p3, worst_p2 = 0.0, 0.0
    for i in range(1000):
        n = 2 + i % 5
        s = random_set(rng, n, i)
        x, y = rng.normal(size=n) * 4, rng.normal(size=n) * 4
        px, dx = metric_projection(s, x)
        py, _ = metric_projection(s, y)
        worst_p3 = max(worst_p3, float(np.linalg.norm(px - py) - np.linalg.norm(x - y)))
        worst_p2 = max(worst_p2, vi_residual(s, x, px), vi_residual(s, y, py))
        assert abs(dx - np.linalg.norm(x - px)) < 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_p3 <= 1e-8 and worst_p2 <= 1e-8
    conclude(
        "projection laws (1000 triples per variant, n<=6)",
        elapsed,
        budget,
        ok,
        f"nonexpansiveness residual {worst_p3:.2e}, variational residual {worst_p2:.2e}",
    )


def test_c02_truncation_identity():
    rng = np.random.default_rng(102)
    budget, t0 = 30.0, time.perf_counter()
    worst = 0.0
    for i in range(500):
        n = 2 + i % 4
        s = random_set(rng, n, i)
        j = 1 + i % 3
        _, nu = nearest_point(s)
        L = 2 * j + nu + 1.0
        for _ in range(20):
            x = ball_point(rng, n, 0.999 * j)
            _, dist = metric_projection(s, x)
            worst = max(worst, abs(dist - truncated_distance(s, x, L)))
    elapsed = time.perf_counter() - t0
    conclude(
        "truncation identity (500 sets x 20 points, j in 1..3)",
        elapsed,
        budget,
        worst <= 1e-7,
        f"max |d(x,S) - d(x,S cut at L)| = {worst:.2e}",
    )


def test_c03_gap_oracle_equivalence():
    rng = np.random.default_rng(103)
    budget, t0 = 60.0, time.perf_counter()
    worst = 0.0
    for i in range(300):
        n = 2 + i % 5
        v = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        w = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        iv = gap_direct(v, w, 1e-3)
        worst = max(worst, abs(gap(v, w) - iv.mid))
    elapsed = time.perf_counter() - t0
    conclude(
        "gap oracle equivalence (300 pairs, n<=6)",
        elapsed,
        budget,
        worst <= 2e-3,
        f"max |gap - mid(direct estimate)| = {worst:.2e}",
    )


def test_c04_complement_isometry():
    rng = np.random.default_rng(104)
    budget, t0 = 5.0, time.perf_counter()
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 5
        v = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        w = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        worst = max(worst, abs(gap(v, w) - gap(orthogonal_complement(v), orthogonal_complement(w))))
    elapsed = time.perf_counter() - t0
    conclude(
        "complement isometry (1000 pairs)",
        elapsed,
        budget,
        worst <= 1e-9,
        f"max |gap(V,W) - gap(perp V, perp W)| = {worst:.2e}",
    )


def test_c05_gap_sandwich():
    rng = np.random.default_rng(105)
    budget, t0 = 120.0, time.perf_counter()
    eps, violations, worst = 1e-3, 0, 0.0
    for i in range(200):
        n = 2 + i % 2
        k = 1 + i % (n - 1) if n > 1 else 1
        v = random_subspace(rng, n, k)
        w = tilted(rng, v, spread=0.8)
        theta = gap(v, w)
        for j in (1.0, 2.0, 3.0):
            iv = truncated_hausdorff(v, w, j, eps)
            low_gap = (theta - eps) - iv.lo
            high_gap = iv.hi - (j * theta + eps)
            worst = max(worst, low_gap, high_gap)
            if low_gap > MARGIN or high_gap > MARGIN:
                violations += 1
    elapsed = time.perf_counter() - t0
    conclude(
        "ball-restricted sandwich (200 pairs, j in 1..3, n<=3)",
        elapsed,
        budget,
        violations == 0,
        f"{violations} containment violations, worst excess {worst:.2e}",
    )


def test_c06_worked_segment_value():
    rng = np.random.default_rng(106)
    budget, t0 = 10.0, time.perf_counter()
    a = Polytope(np.array([[0.0, 0.0], [10.0, 0.0]]))
    b = Polytope(np.array([[0.0, 0.0], [20.0, 0.0]]))
    iv = attouch_wets(a, b)
    ok = iv.contains(1.0 / 11.0, slack=MARGIN) and iv.width <= 1e-3 and iv.certified
    identity_hi = 0.0
    for i in range(10):
        s = random_set(rng, 2 + i % 3, i)
        same = attouch_wets(s, s)
        identity_hi = max(identity_hi, same.hi)
        ok = ok and same.lo == 0.0
    ok = ok and identity_hi <= 1e-6
    elapsed = time.perf_counter() - t0
    conclude(
        "metric worked value (segment pair and identity pairs)",
        elapsed,
        budget,
        ok,
        f"interval [{iv.lo:.9f}, {iv.hi:.9f}] vs 1/11 = {1 / 11:.9f}, identity hi {identity_hi:.1e}",
    )


def origin_pair(rng, t: int):
    """An origin-containing pair in the plane, cycling set representations."""
    mode = t % 5
    if mode <= 1:
        for _ in range(16):
            v = random_subspace(rng, 2, 1)
            w = random_subspace(rng, 2, 1 if mode == 0 else 1 + t % 2)
            if gap(v, w) >= 0.05:
                return v, w
        return v, w
    if mode == 2:
        v = random_subspace(rng, 2, 1)
        w = random_subspace(rng, 2, 1)
        return Flat(np.zeros(2), v.basis), Flat(np.zeros(2), w.basis)
    a = random_instance("gaussian-polytope", 2, 2, draw_seed(rng))
    b = random_instance("gaussian-polytope", 2, 2, draw_seed(rng))
    return translate(a, -a.points.mean(axis=0)), translate(b, -b.points.mean(axis=0))


def test_c07_origin_equivalence():
    rng = np.random.default_rng(107)
    budget, t0 = 300.0, time.perf_counter()
    trials, violations, inconclusive = 100, 0, 0
    for t in range(trials):
        a, b = origin_pair(rng, t)
        full = attouch_wets(a, b)
        origin = aw_origin(a, b)
        if max(full.lo - origin.hi, origin.lo - full.hi) > MARGIN:
            violations += 1
            continue
        straddled = False
        for j in (1, 2):
            cut_hi = 1.0 / j
            cut_lo = 1.0 / (j + 1)
            h = truncated_hausdorff(a, b, float(j), 1e-3)
            for eps in (0.99 * cut_hi, 0.5 * (cut_lo + cut_hi)):
                aw_below = full.hi < eps - MARGIN
                aw_above = full.lo > eps + MARGIN
                h_below = h.hi < eps - MARGIN
                h_above = h.lo > eps + MARGIN
                if (aw_below and h_above) or (h_below and aw_above):
                    violations += 1
                elif not ((aw_below or aw_above) and (h_below or h_above)):
                    straddled = True
        inconclusive += straddled
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and inconclusive <= trials // 5
    conclude(
        "origin equivalence (100 origin-containing pairs, n=2)",
        elapsed,
        budget,
        ok,
        f"{violations} violations, {inconclusive} straddling trials (allowed {trials // 5})",
    )


def test_c08_flat_chart_round_trips():
    rng = np.random.default_rng(108)
    budget, t0 = 10.0, time.perf_counter()
    worst = 0.0
    for i in range(500):
        n = 2 + i % 5
        w = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        v = tilted(rng, w)
        omega = complement_offset(rng, w)
        f = chart_flat(w, v, omega)
        v2, omega2 = chart_flat_inv(w, f)
        worst = max(worst, gap(v, v2), float(np.linalg.norm(omega - omega2)))
        f2 = chart_flat(w, v2, omega2)
        _, fwd = metric_projection(f, f2.base)
        _, bwd = metric_projection(f2, f.base)
        worst = max(worst, fwd, bwd)
    elapsed = time.perf_counter() - t0
    conclude(
        "flat chart round trips (500 triples, n<=6)",
        elapsed,
        budget,
        worst <= 1e-7,
        f"max direction/position residual {worst:.2e}",
    )


def fiber_polytope(rng, w: Subspace, k: int) -> Polytope:
    for _ in range(8):
        coords = rng.normal(size=(k + 2, k)) * 2.0
        body = Polytope(coords @ w.basis)
        if dimension(body) == k:
            return body
    raise AssertionError("could not draw a full-dimensional fiber polytope")


def test_c09_convex_chart_round_trips():
    rng = np.random.default_rng(109)
    budget, t0 = 30.0, time.perf_counter()
    worst_h, worst_gap = 0.0, 0.0
    for i in range(500):
        n = 2 + i % 5
        k = 1 + i % min(3, n - 1) if n > 2 else 1
        w = random_subspace(rng, n, k)
        v = tilted(rng, w)
        omega = complement_offset(rng, w)
        body = fiber_polytope(rng, w, k)
        out = chart_convex(w, ChartTriple(v, omega, body))
        worst_gap = max(worst_gap, gap(base_map(out), v))
        back = chart_convex_inv(w, out)
        worst_gap = max(worst_gap, gap(back.direction, v))
        worst_h = max(
            worst_h,
            hausdorff(back.body, body),
            float(np.linalg.norm(back.offset - omega)),
            hausdorff(chart_convex(w, back), out),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_h <= 1e-6 and worst_gap <= 1e-7
    conclude(
        "convex chart round trips and section (500 triples, n<=6, k<=3)",
        elapsed,
        budget,
        ok,
        f"max set residual {worst_h:.2e}, max direction gap {worst_gap:.2e}",
    )


def test_c10_independence_radius_soundness():
    rng = np.random.default_rng(110)
    budget, t0 = 60.0, time.perf_counter()
    dependent = 0
    for i in range(200):
        n = 2 + i % 4
        k = 1 + i % min(n, 5)
        pts = rng.normal(size=(k + 1, n)) * rng.uniform(0.2, 5.0)
        if not is_affinely_independent(pts):
            pts = np.eye(n)[: k + 1] * rng.uniform(0.5, 2.0)
        delta = independence_radius(pts)
        report = adversarial_independence_check(pts, delta, 10_000, draw_seed(rng))
        dependent += len(report.failures)
    elapsed = time.perf_counter() - t0
    conclude(
        "independence radius soundness (200 families x 10^4 selections)",
        elapsed,
        budget,
        dependent == 0,
        f"{dependent} dependent selections at the certified radius",
    )


def regular_simplex(k: int) -> np.ndarray:
    """k+1 unit-circumradius vertices of a regular simplex in R^k, centroid 0."""
    m = np.eye(k + 1) - np.full((k + 1, k + 1), 1.0 / (k + 1))
    _, _, vh = np.linalg.svd(m)
    verts = m @ vh[:k].T
    return verts / np.linalg.norm(verts, axis=1, keepdims=True)


def stability_instance(rng, n: int, k: int):
    """Hypotheses of the perturbed-simplex stability property, concretely.

    Returns (selected vertices b_i, their flat, center b, radius M).
    """
    directions = orthonormal_basis(rng.normal(size=(k, n))).basis
    anchor = rng.normal(size=n) * 2.0
    scale = rng.uniform(0.5, 3.0)
    verts = anchor + scale * regular_simplex(k) @ directions
    # 3M below the inradius keeps the 3M-ball inside the open simplex
    M = min(scale / (4.0 * k), 0.9 * independence_radius(verts)) * rng.uniform(0.6, 1.0)

    flat_f = Flat(anchor, directions)
    chosen, chosen_flat = verts, flat_f
    if k < n:
        normal = orthogonal_complement(Subspace(directions)).basis[0]
        tilt = 0.1 * M / (1.0 + np.linalg.norm(anchor) + scale)
        for _ in range(6):
            g_dirs = orthonormal_basis(directions + tilt * np.outer(rng.normal(size=k), normal)).basis
            if g_dirs.shape[0] != k:
                tilt *= 0.25
                continue
            flat_g = Flat(anchor + tilt * normal, g_dirs)
            proj = np.array([metric_projection(flat_g, a)[0] for a in verts])
            if max(np.linalg.norm(proj - verts, axis=1)) <= 0.9 * M:
                chosen, chosen_flat = proj, flat_g
                break
            tilt *= 0.25

    weights = rng.dirichlet(np.ones(k + 1))
    b = weights @ chosen
    if np.linalg.norm(b - anchor) > 0.995 * M:
        b = chosen.mean(axis=0)  # centroid is always within max ||b_i - a_i|| of a
    return chosen, chosen_flat, b, M


def test_c11_simplex_stability():
    rng = np.random.default_rng(111)
    budget, t0 = 60.0, time.perf_counter()
    violations = 0
    for i in range(100):
        n = 2 + i % 4
        k = 1 + i % min(3, n)
        chosen, flat_g, b, M = stability_instance(rng, n, k)
        basis = flat_g.basis
        for p in range(100):
            direction = rng.normal(size=k)
            direction /= max(np.linalg.norm(direction), 1e-12)
            radius = M * (1.0 - 1e-9) * (1.0 if p % 5 == 0 else rng.uniform() ** (1.0 / k))
            y = b + (radius * direction) @ basis
            if not in_relative_interior(chosen, y):
                violations += 1
    elapsed = time.perf_counter() - t0
    conclude(
        "perturbed simplex stability (100 instances x 100 points)",
        elapsed,
        budget,
        violations == 0,
        f"{violations} relative-interior violations",
    )


def test_c12_continuity_probes():
    rng = np.random.default_rng(112)
    budget, t0 = 120.0, time.perf_counter()
    ladder = (1e-1, 1e-2, 1e-3, 1e-4)
    instances = []
    for i in range(50):
        n = 1 + i % 3
        u = rng.normal(size=n)
        u /= max(np.linalg.norm(u), 1e-12)
        instances.append((random_set(rng, n, i), u))

    point_probe, metric_probe = [], []
    for t in ladder:
        worst_p, worst_aw = 0.0, 0.0
        for s, u in instances:
            moved = translate(s, t * u)
            p0, _ = nearest_point(s)
            p1, _ = nearest_point(moved)
            worst_p = max(worst_p, float(np.linalg.norm(p1 - p0)))
            worst_aw = max(worst_aw, attouch_wets(s, moved).hi)
        point_probe.append(worst_p)
        metric_probe.append(worst_aw)

    monotone = all(a >= b - MARGIN for a, b in zip(point_probe, point_probe[1:]))
    monotone = monotone and all(a >= b - MARGIN for a, b in zip(metric_probe, metric_probe[1:]))
    ok = monotone and point_probe[-1] < 1e-2 and metric_probe[-1] < 1e-2
    elapsed = time.perf_counter() - t0
    conclude(
        "continuity probes (50 instances, scales 1e-1..1e-4)",
        elapsed,
        budget,
        ok,
        f"nearest-point probe {point_probe[-1]:.1e}, metric probe {metric_probe[-1]:.1e} at 1e-4",
    )
