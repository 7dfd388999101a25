"""Hyperspace metrics on convex sets, reported as enclosing intervals.

The Attouch-Wets metric is sup over j >= 1 of min(1/j, s_j), where s_j is
the sup of the gap |d(., A) - d(., B)| over the j-ball (Beer, Topologies on
Closed and Closed Convex Sets, 1993).  Exchanging the two sups turns it
into one sup over the whole space,

    sup over x of phi(x),   phi(x) = min(1/J(x), |d(x, A) - d(x, B)|),

with J(x) = max(1, ceil |x|) the smallest ball index whose ball holds x.
Up to j_cap this is a sup over the j_cap-ball of a gap weighted by its
unit shell, which one branch and bound computes (_aw_scan); the terms past
j_cap add at most 1/(j_cap + 1).

The truncations behind aw_origin rest on one lemma.  For a closed convex C
containing the origin, proj_C is non-expansive and fixes 0, so
|proj_C(x)| <= |x|; on the r-ball this gives d(x, C ∩ rB) = d(x, C), and
so, for a pair A, B of such sets,

    hausdorff(A ∩ rB, B ∩ rB) = sup over the r-ball of |d(., A) - d(., B)|.

The truncated Hausdorff distance (truncated_hausdorff, and the j-terms of
aw_origin) therefore takes one of two routes, neither of which truncates a
set, and one function picks the route of every certified estimate
(_estimate):

* a pair without a polytope (subspaces, and flats that contain the origin
  up to tau_geom) takes the spectral formula, the radius times the gap of
  the direction spans (sets._direction_gap); a flat's offset widens it;
* every other pair takes the ambient sup of the lemma (for a set that
  misses the origin by up to tau_geom, the lemma holds to within about
  that much).  Two polytopes cap it with their Hausdorff distance, which
  the search reaches at their generators once both lie inside the ball.

Ambient sups (ball_sup) take one of two routes, both resting on one fact:
the sup of the gap over a ball is reached on its sphere (proof in ball_sup).
A pair whose common span (that of both sets' data) is a line takes a closed
form (_Line): there each set is an interval, a point or the whole line, so
a shell's sup is the smaller of its weight and the gap at plus and minus
its outer sphere; it builds no residual map and runs no search.  Every
other pair runs a branch and bound over the cubes that cover the ball of
the span and meet a shell's outer sphere (Horst and Tuy, Global
Optimization, 1996), exact as the gap does not grow off that span: a cube
is bounded by a one-sided bound on a difference of convex functions
(_box_bounds) and by the weights of the shells it reaches, and halved along
every axis at once, until the requested width is certified.  Shells whose
weights cannot beat the lower bound by eps leave the search, and the first
lower bound comes from a deterministic probe set (_probes), so a pair
always searches the same tree.

Every interval returned encloses the true value.  certified=False marks a
width request missed because an evaluation budget ran out.  The enclosure
itself always holds.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .config import ToleranceConfig, resolve
from .errors import HyperconvexError
from .intervals import Interval
from .projection import (
    _ROUNDING,
    _clamp_rows,
    _row_norms,
    flat_min_norm_point,
    nearest_point,
)
from .sets import ConvexSet, Polytope, Subspace, _direction_gap, check_same_ambient


def _check_budget(budget) -> None:
    """The one rule for an evaluation budget, whichever estimator takes it."""
    if not (math.isfinite(budget) and budget >= 1000):
        raise HyperconvexError("budget must be finite and at least 1000")


@dataclass(frozen=True)
class AWParams:
    """Knobs for the localized-convergence metric estimators.

    eps_sup is the width requested from the metric's weighted sup, j_cap
    the largest ball index scanned, an integer from 1 to 1024 (past it the
    result can widen by at most 1/(j_cap+1), below the default eps_sup at
    1024, and a larger cap only widens the ball the scan searches),
    budget the evaluation allowance of the whole call, which is one
    weighted sup.
    """

    eps_sup: float = 1e-3
    j_cap: int = 64
    budget: int = 1_500_000

    def __post_init__(self):
        if not 0.0 < self.eps_sup < np.inf:
            raise HyperconvexError("eps_sup must be positive and finite")
        try:
            whole = not isinstance(self.j_cap, bool) and operator.index(self.j_cap) >= 1
        except TypeError:
            whole = False
        if not whole:
            raise HyperconvexError("j_cap must be an integer of at least 1")
        if self.j_cap > 1024:
            raise HyperconvexError("j_cap must be at most 1024")
        _check_budget(self.budget)


# ---------------------------------------------------------------------------
# certified sup over a ball (branch and bound)


@dataclass(frozen=True)
class SupEstimate:
    lo: float
    hi: float
    certified: bool
    evals: int
    levels: int = 0


def _rows(s: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """(P, L) with s = conv(rows of P) + span(rows of L): a polytope's points
    and no rows, a flat's or subspace's base and basis."""
    if isinstance(s, Polytope):
        return s.points, s.points[:0]
    return s.base[None], s.basis


def _common_span(a: ConvexSet, b: ConvexSet, tau_rank: float):
    """(B, w0, w1): orthonormal rows B spanning the data of both sets
    (polytope points, a flat's nearest point to the origin and its basis),
    None when that span is the whole space.

    Singular directions below tau_rank times the largest are cut.  Within
    the r-ball each set then lies within delta of S = rowspan(B): the
    nearest points of a set C to the r-ball lie within r + nu of the origin
    (nu = d(0, C), P_C is 1-Lipschitz), so delta = max_i |E p_i| for a
    polytope and |E p0| + (r + nu) ||E V|| for a flat, with E = I - B^T B.
    That moves the sup over the r-ball by at most 2 (delta_a + delta_b) =
    w0 + w1 r from the sup over the ball of S (see ball_sup).
    """
    # P - (P L^T) L: a polytope's points, a flat's nearest point to the origin
    data = [(P - (P @ L.T) @ L, L) for P, L in (_rows(a), _rows(b))]
    M = np.concatenate([m for rows in data for m in rows])
    n = M.shape[1]
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    k = max(int((sv > tau_rank * sv[0]).sum()), 1)
    if k == n:
        return None, 0.0, 0.0
    B = Vt[:k]
    E = np.eye(n) - B.T @ B
    w0 = w1 = 0.0
    for Q, L in data:
        eta = float(np.linalg.norm(L @ E, 2)) if L.size else 0.0
        w0 += float(_row_norms(Q @ E).max()) + float(_row_norms(Q).max()) * eta
        w1 += eta
    return B, 2.0 * w0, 2.0 * w1


class _Line:
    """A pair whose common span is the line of the unit vector u.  There a
    set is an interval of coordinates t (x = t u): [min, max] of P u for a
    polytope, base . u for a point flat, the whole line for a flat with a
    basis; d(t u, C) = |t - clip(t, lo, hi)|, of slope s_C rising from -1
    to 1.  The gap's max over [-r, r] is at -r or r: this is the 1-D case
    of ball_sup's lemma that a sup over a ball is reached on its sphere.
    A computed gap g is within _ROUNDING (scale + g) of the exact one, scale
    n times both sets' largest data norms: rounded ends move it by n eps |p|,
    a rounded t only where an end is within that scale or the gap grows with
    |t|, and past both intervals on one side it is the difference of their
    ends there, which rounds in no t.  The rank cut moves it by w0 + w1 r.
    """

    def __init__(self, a: ConvexSet, b: ConvexSet, u: np.ndarray, w0: float, w1: float):
        rows = [_rows(s) for s in (a, b)]
        self.ends = np.array([(-np.inf, np.inf) if L.size else ((t := P @ u).min(), t.max()) for P, L in rows])
        self.scale = u.size * sum(float(_row_norms(P).max()) for P, _ in rows)
        self.w0, self.w1 = w0, w1

    def gap(self, t: np.ndarray) -> np.ndarray:
        c = np.clip(t, self.ends[:, :1], self.ends[:, 1:])
        r = t - c
        return np.where(np.sign(r[0]) == np.sign(r[1]), np.abs(c[1] - c[0]), np.abs(np.abs(r[0]) - np.abs(r[1])))

    def sup(self, radius: float, eps: float, w: np.ndarray) -> SupEstimate:
        """ball_sup on the line: the largest min(w_l, g_l), g_l the gap's
        max over shell l and all inside it, at +-s_l, its outer sphere."""
        s = radius / w.size * np.arange(1.0, w.size + 1.0)
        g = self.gap(np.append(s, -s)).reshape(2, -1).max(axis=0)
        e = _ROUNDING * (self.scale + g) + self.w0 + self.w1 * radius
        lo = max(0.0, float(np.minimum(w, g - e).max()))
        hi = float(np.minimum(w, g + e).max())
        return SupEstimate(lo, hi, hi - lo <= eps, 2 * s.size)

    @cached_property
    def h(self) -> float:
        """A bound of every Attouch-Wets term min(1/j, s_j): s_j <= c + w1 j,
        c being the sup over the ball of radius m, past both intervals (inf
        if one set alone is the line), and min(1/j, c + w1 j) peaks where
        they cross."""
        whole = np.isinf(self.ends[:, 0])
        m = 1.0 + np.abs(self.ends[~whole]).max(initial=0.0)
        c = np.inf if whole[0] != whole[1] else self.sup(m, np.inf, np.full(1, np.inf)).hi
        return 0.5 * (c + math.sqrt(c * c + 4.0 * self.w1))


class _Pair:
    """Two sets and the tolerances of one public call; the common span, the
    pair on it when it is a line (_Line) and the caps are computed on first
    use.  origin is True where the estimator checked that both sets contain
    the origin up to tau_geom.  Each set keeps its own residual map."""

    def __init__(self, a: ConvexSet, b: ConvexSet, cfg: ToleranceConfig, origin: bool = False):
        self.a, self.b, self.cfg, self.origin = a, b, cfg, origin

    @cached_property
    def span(self):
        return _common_span(self.a, self.b, self.cfg.tau_rank)

    @cached_property
    def line(self) -> _Line | None:
        B, w0, w1 = self.span
        k = self.a.ambient_dim if B is None else B.shape[0]
        return None if k > 1 else _Line(self.a, self.b, np.ones(1) if B is None else B[0], w0, w1)

    @cached_property
    def caps(self) -> tuple[float, Callable]:
        """(h, cap): h bounds every Attouch-Wets term, cap(r) the gap over
        the r-ball, r a radius or an array of them (inf where none is
        known): _Line.h and no cap on a line, the Hausdorff distance for
        both for two polytopes, none for a polytope and a flat, _gap_caps
        for two flats."""
        if self.line:
            return self.line.h, lambda r: np.inf
        pa, pb = isinstance(self.a, Polytope), isinstance(self.b, Polytope)
        if pa and pb:
            h = hausdorff(self.a, self.b)
            return h, lambda r: h
        return (np.inf, lambda r: np.inf) if pa or pb else _gap_caps(self.a, self.b)


def _pair(
    a: ConvexSet,
    b: ConvexSet,
    tol: ToleranceConfig | None,
    origin: str = "",
    radius: float = 1.0,
    eps: float = 1.0,
    budget: int = 1000,
) -> _Pair | None:
    """The front door of the four estimators: the _Pair of a and b, or None
    when they are one set (a == b, or flats with equal bases and projectors).

    Checks that the ambient dimensions agree, that radius and eps are
    finite and positive, and that budget passes _check_budget (the defaults
    pass, for callers without them).  A non-empty origin is the error raised
    when either set misses the origin by more than tau_geom; the pair then
    records that both contain it (_Pair.origin).
    """
    cfg = resolve(tol)
    check_same_ambient(a, b)
    for name, v in (("radius", radius), ("eps", eps)):
        if not 0.0 < v < np.inf:
            raise HyperconvexError(f"{name} must be positive and finite")
    _check_budget(budget)
    if origin and any(nearest_point(s, cfg)[1] > cfg.tau_geom for s in (a, b)):
        raise HyperconvexError(origin)
    flats = not (isinstance(a, Polytope) or isinstance(b, Polytope))
    same = a == b or flats and np.array_equal(a.base, b.base) and np.array_equal(a.basis.T @ a.basis, b.basis.T @ b.basis)
    return None if same else _Pair(a, b, cfg, bool(origin))


_CHUNK = 1 << 17
# rows a search level may evaluate
_LEVEL_ROWS = 1 << 16
# Children of a level that number at most this many are halved again
# before they are evaluated (_children).  A level costs about 60 us of
# numpy calls plus 0.2-1.5 us a row, so levels of a few rows waste their
# fixed cost, and past a few hundred rows the deeper split evaluates
# children that an evaluated parent would have pruned.  aw-sweep round 0 of
# seed 1 (benchmarks/, 27 ball_sup calls), per value: levels, evals, and the
# median over 12 runs of the sum of per-slot minima over 10 rounds, pinned
# to one core of a shared 2-vCPU VM (0 costs 15% more time than 64):
#     0 (no deeper split)   65 levels  11,559 evals  22.6 ms
#    32                     55         11,542        20.8 ms
#    64                     48         11,520        19.6 ms
#   128                     45         11,517        19.6 ms
#   256                     42         11,556        19.3 ms
# The time is flat from 64 to 256, within the runs' spread; 64 stays.
_LEVEL_MIN = 64


def _box_bounds(a: ConvexSet, b: ConvexSet, X: np.ndarray, rho: np.ndarray | None, reach=None, scale=None):
    """(lo, hi): lo[i] <= |d_a - d_b|(x_i), and hi[i] >= |d_a - d_b|(y) at
    every point y of the box around x_i, from the residual maps of a and b.

    The box is any set of points within rho[i] of x_i; reach(V) bounds
    max over the box of v . (y - x_i) for the direction rows v = V[..., i, :]
    (rho[i] |v| bounds it over the whole rho-ball).  With rho None only lo
    is computed, hi is None, and reach and scale go unread.

    With R = x - P(x), d = |R|, u = R / d (u = 0 where d = 0) and
    delta = y - x, every distance function satisfies
    * d(y) >= d(x) + u . delta, as d is convex with subgradient u at x;
    * d(y) <= |y - P(x)| = |R + delta| <= d(x) + u . delta + rho^2 / (2 d),
      and d(y) <= d(x) + rho, as d is 1-Lipschitz.
    So g = d_a - d_b is at most g(x) + min(L(u_a - u_b) + rho^2 / (2 d_a),
    rho + L(-u_b)) on the box, and -g is at most -g(x) + min(L(u_b - u_a) +
    rho^2 / (2 d_b), rho + L(-u_a)), with L = reach.  Each side carries one
    quadratic term, a row on a set keeps a finite bound on both, and a
    gradient that points out of the box adds nothing.

    A residual is known to within e: the batched Wolfe route's error, plus
    for every route a rounding allowance of 64 eps (s + d_a + d_b), s being
    scale[i], at least 1 + |x_i| (ball_sup passes 1 plus the largest
    coordinate of the sets' data plus |x_i|).  A row with d <= e counts as
    on the set (u = 0, no quadratic term).  Otherwise |R + delta| moves by
    at most e and u by at most 2 e / (d - e), which widens the convexity
    term by 2 e rho / (d - e); hi also widens by e.  lo widens by the Wolfe
    error alone.  Both sets' rows run side by side, stacked on a leading
    axis of two.
    """
    (Ra, ea), (Rb, eb) = a._residuals(X), b._residuals(X)
    R = np.concatenate((Ra[None], Rb[None]))
    d = _row_norms(R)
    g = d[0] - d[1]
    ea = 0.0 if ea is None else ea
    eb = 0.0 if eb is None else eb
    lo = np.abs(g) - (ea + eb)
    if rho is None:
        return lo, None
    tiny = _ROUNDING * (scale + d[0] + d[1])
    e = np.empty(d.shape)
    np.add(ea, tiny, out=e[0])
    np.add(eb, tiny, out=e[1])
    on = d <= e
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.divide(R, d[..., None], out=R)
        quad = rho * rho / (2.0 * d)
        turn = 2.0 * e * rho / (d - e)
    u[on], quad[on], turn[on] = 0.0, np.inf, 0.0
    # the directions u_a - u_b, u_b - u_a, -u_b, -u_a
    V = np.empty((4,) + Ra.shape)
    np.subtract(u[0], u[1], out=V[0])
    np.negative(V[0], out=V[1])
    np.negative(u[::-1], out=V[2:])
    L = reach(V)
    # up = g + t_b + min(L(u_a - u_b) + q_a, rho + L(-u_b)), down likewise
    side = np.minimum(L[:2] + quad, rho + L[2:])
    up = g + turn[1] + side[0]
    down = turn[0] - g + side[1]
    return lo, np.maximum(up, down) + e[0] + e[1]


def _box_reach(c: np.ndarray, C: np.ndarray, h: np.ndarray, r: float, B: np.ndarray | None, rho):
    """The reach of _box_bounds for the cubes of centers C and half-widths h
    cut by the r-ball, each seen from its center c clamped into the ball
    (rows, in the coordinates of the rows B, or ambient when B is None):
    V -> min(rho |v|, v . (C - c) + h sum |v_i|, r |v| - v . c), with v
    the rows of V in those coordinates.  Clamping is non-expansive, so every
    point y of the cube in the ball lies within its half-diagonal rho of c;
    the second term is the max of v . (y - c) over the cube, the third over
    the ball.
    """

    def reach(V: np.ndarray) -> np.ndarray:
        if B is not None:
            V = V @ B.T
        N = _row_norms(V)
        # sum |v_i| as a product with ones: a sum over a short last axis is slow
        box = np.einsum("...ik,ik->...i", V, C - c) + h * (np.abs(V) @ np.ones(V.shape[-1]))
        np.minimum(box, rho * N, out=box)
        return np.minimum(box, r * N - np.einsum("...ik,ik->...i", V, c), out=box)

    return reach


@cache
def _signs(k: int) -> np.ndarray:
    """(k, 2^k) table, column t holding +1 at the axes p where bit p of t is
    set and -1 elsewhere; read-only, as every caller shares it."""
    signs = 2.0 * ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1) - 1.0
    signs.setflags(write=False)
    return signs


def _split(T: np.ndarray, k: int) -> np.ndarray:
    """The 2^k children of the cubes in the table T, one column per cube: k
    center rows, then the half-width, then any other rows.  Each column is
    repeated once per column of the sign table (_signs), and each copy gets
    half its parent's half-width and its center moved by that column times
    the new half-width; it keeps every other row of its parent."""
    kids = T.repeat(1 << k, axis=1)
    view = kids.reshape(T.shape[0], T.shape[1], 1 << k)
    view[k] *= 0.5
    view[:k] += _signs(k)[:, None] * view[k]
    return kids


def _children(T: np.ndarray, k: int) -> np.ndarray:
    """The children of the cubes in the table T (_split), split again and
    again while they number at most _LEVEL_MIN."""
    T = _split(T, k)
    while T.shape[1] << k <= _LEVEL_MIN:
        T = _split(T, k)
    return T


def _inside(T: np.ndarray, k: int, r: float, shell: float) -> np.ndarray:
    """Mask of the cubes in the table T (as in _split) that meet a sphere
    |x| = l shell with l >= 1 and l shell <= r, the live spheres of ball_sup,
    on which its sup is reached.  A cube's norms fill [near, far], so it
    meets the first such sphere from near on if and only if that sphere's
    radius is at most far.  A sphere can pass exactly through a face where
    two cubes meet, the outer cube's nearest and the inner cube's farthest
    (on a line, where a sphere is two points, it may meet no cube's
    inside), and far rounds by a few k eps relative, so it widens by
    _ROUNDING relative: the inner cube stays."""
    A = np.abs(T[:k])
    near = _row_norms(np.maximum(A - T[k], 0.0).T)
    s = np.maximum(np.ceil(near / shell), 1.0) * shell
    return (s <= r) & (s <= _row_norms((A + T[k]).T) * (1.0 + _ROUNDING))


def ball_sup(
    pair: _Pair,
    radius: float,
    eps: float,
    *,
    budget: int,
    weights=(np.inf,),
) -> SupEstimate:
    """Certified estimate of the sup over the closed radius-ball of

        phi(x) = min(weights[l(x)], |d(x, a) - d(x, b)|)

    for the pair's sets a and b, the ball cut into len(weights) shells of
    equal width, l(x) the shell of x (a sphere between two shells belongs to
    the inner one).  Each weight is min(c_l, u_l): c_l does not increase
    with l, and u_l bounds the gap out to the outer sphere of shell l, so
    phi(x) = min(c_l(x), gap(x)).  One shell with c = inf and a cap u (inf
    when none is known) gives the plain sup of the gap; unit shells with
    c_j = 1/j and u_j = cap(j) the Attouch-Wets metric (_aw_scan).  The
    search starts from the rows of _probes, which only raise the lower
    bound, in the two stages that _probes splits them into: the data rows,
    then the ladder rows whose weights, which cap their scores, exceed the
    lower bound the data rows leave.

    The search runs over the ball of S, the pair's common span: for sets
    inside S, d(x, C)^2 = d(x_S, C)^2 + |x_perp|^2, and
    |sqrt(s + t^2) - sqrt(s' + t^2)| does not increase with t, while x_S
    lies in the shell of x or an inner one, so phi(x_S) >= phi(x).  A rank
    cut adds _common_span's w0 + w1 radius to every upper bound.

    The sup is reached on spheres.  Lemma: for closed convex A and B, the
    sup of |d_A - d_B| over a closed ball is reached on its sphere.  Let x*
    maximize f = d_A - d_B over the r-ball, with f(x*) = max |f| > 0 and
    |x*| < r.  Stepping from x* toward P_B(x*) lowers d_B at rate 1 and d_A
    at rate at most 1, so f does not fall until the step meets the sphere
    or reaches a point p of B.  At p, f = d_A > 0, and p maximizes d_A over
    B near p; as d_A is convex, u_A(p) = (p - P_A(p)) / d_A(p) then lies in
    B's normal cone at p.  Along p + t u_A, d_B = t and d_A = d_A(p) + t,
    so f keeps its max out to the sphere.  For -f, swap A and B.  A point
    of shell l lies in the ball of that shell's outer sphere |x| = l shell,
    where phi = min(w_l, gap), so phi is at most the sup of phi on that
    sphere, and the sup of phi is the largest of those sups over l.  The
    search therefore keeps only the cubes that meet a live sphere (_inside).
    On a rank-cut span the lemma holds for the sets projected onto S, inside
    the chain that gives the widening, so no allowance grows.

    The boxes are cubes, evaluated at their centers c clamped into the live
    ball; _box_bounds bounds the gap over a cube in that ball with the reach
    of _box_reach, and phi is also at most min(tail[i], head[l]) for the
    shells i..l that the norms |c| - rho .. |c| + rho reach, rho the cube's
    half-diagonal: tail[i] is the largest weight from shell i out, head[l]
    the largest up to shell l.  That is at least the largest weight of
    shells i..l, and equal to it when the weights rise and then fall, as
    min(1/j, cap(j)) does with cap constant or nondecreasing.
    Once no weight past some shell beats the lower bound by eps, those
    shells leave the search, and their largest weight joins the upper bound.
    The search starts from one cube, and each level halves the cubes of
    highest upper bound along every axis (_split), as many as keep the level
    within _LEVEL_ROWS rows; the others wait with their bounds.  After the
    split every cube that meets no live sphere leaves, waiting ones too
    (_inside).  Children that number at most _LEVEL_MIN are halved again
    (_children), the root cube's too, so the first levels of a search,
    which would hold a few rows each, are one level; those children cover
    what their parents covered, so the bounds are those of any other level.
    The cubes live in one table, a column per cube, and a child repeats its
    parent's column, so every row the search does not rewrite passes down.
    Past 16 dimensions a cube's 2^k children overflow a level, so the search
    ends after the probes and the root cube, uncertified, as a spent budget
    ends it.  The estimate counts the rows evaluated (evals, the probes
    evaluated included) and the levels.  A pair whose span is a line takes
    none of this: _Line.sup gives its sup in closed form.
    """
    if pair.line:
        return pair.line.sup(radius, eps, np.asarray(weights, dtype=float))
    B, w0, w1 = pair.span
    k = pair.a.ambient_dim if B is None else B.shape[0]
    w = np.asarray(weights, dtype=float)
    L = w.shape[0]
    shell = radius / L
    # tail[i] = max(w[i:]) bounds phi beyond the inner sphere of shell i,
    # head[l] = max(w[:l + 1]) within the outer sphere of shell l
    tail = np.maximum.accumulate(w[::-1])[::-1]
    head = np.maximum.accumulate(w)

    def weight(t: np.ndarray):
        # lower bounds take the outer shell at a tie
        return w[np.minimum(t // shell, L - 1).astype(int)] if L > 1 else np.full(t.shape, w[0])

    Y, ladder = _probes(pair.a, pair.b, radius)
    if B is not None:
        Y = Y @ B.T  # a probe's slice by S scores as high, up to the rank cut
    Y, t = _clamp_rows(Y, radius)
    X, top = (Y if B is None else Y @ B), weight(t)
    lb, evals, levels, resolved = -np.inf, 0, 0, -np.inf

    def probe(X: np.ndarray, top: np.ndarray) -> None:
        # raise lb by the rows X, whose scores are capped at top
        nonlocal lb, evals
        for i in range(0, X.shape[0], _CHUNK):
            lo, _ = _box_bounds(pair.a, pair.b, X[i : i + _CHUNK], None)
            lb = max(lb, float(np.minimum(lo, top[i : i + _CHUNK]).max()))
        evals += X.shape[0]

    def live_radius() -> float:
        # the shells whose weights can beat lb + eps are a prefix, as tail
        # does not increase; the others resolve at their largest weight
        nonlocal resolved
        live = int(np.count_nonzero(tail > lb + eps))
        if live < L:
            resolved = max(resolved, float(tail[live]))
        return live * shell

    # the data rows first, then the ladder rows whose weights exceed the
    # lower bound they leave
    probe(X[ladder:], top[ladder:])
    if ladder and tail[0] > lb:
        keep = top[:ladder] > lb
        probe(X[:ladder][keep], top[:ladder][keep])
    r = live_radius()
    if r == 0:
        return SupEstimate(lb, max(resolved, lb), True, evals, levels)

    widen = w0 + w1 * radius
    scale = 1.0 + max(float(np.abs(_rows(s)[0]).max(initial=0.0)) for s in (pair.a, pair.b))
    root_k = math.sqrt(k)

    def bounds(C: np.ndarray, h: np.ndarray, r: float):
        c, t = _clamp_rows(C, r)
        rho = h * root_k
        reach = _box_reach(c, C, h, r, B, rho)
        lo, hi = _box_bounds(pair.a, pair.b, c if B is None else c @ B, rho, reach, scale + t)
        if L > 1:
            # upper bounds take the inner shell at a tie
            ends = np.ceil(np.concatenate((t - rho, t + rho)) / shell) - 1.0
            ends = np.minimum(np.maximum(ends, 0.0), L - 1).astype(int)
            hi = np.minimum(hi, np.minimum(tail[ends[: t.size]], head[ends[t.size :]]))
        else:
            hi = np.minimum(hi, w[0])
        return np.minimum(lo, weight(t)), hi + widen

    # the cubes, one column each: k center rows, the half-width, the upper
    # bound (inf at the root).  A column per cube makes each row one
    # contiguous vector for the split and the filters.  The first `fresh`
    # cubes are new and hold their parents' bounds until they are
    # evaluated.  One level splits at most `split` cubes (none past 16
    # dimensions).
    T = np.append(np.zeros(k), (r, np.inf))[:, None]
    T = _children(T, k) if 1 << k <= _LEVEL_MIN else T
    T = T[:, _inside(T, k, r, shell)]
    fresh, split = T.shape[1], _LEVEL_ROWS >> k
    while T.shape[1]:
        if fresh:
            lo, T[k + 1, :fresh] = bounds(T[:k, :fresh].T.copy(), T[k, :fresh], r)
            evals += fresh
            levels += 1
            lb = max(lb, float(lo.max()))
        active = T[k + 1] > lb + eps
        if not active.all():
            resolved = max(resolved, float(T[k + 1, ~active].max()))
            T = T[:, active]
            if not T.shape[1]:
                break
        if evals >= budget or not split:
            return SupEstimate(lb, max(resolved, float(T[k + 1].max()), lb), False, evals, levels)

        r = live_radius()
        if r == 0:
            break
        if T.shape[1] > split:
            # split the cubes of highest upper bound first; the rest wait
            T = T[:, np.argsort(-T[k + 1], kind="stable")]
        kids = _children(T[:, :split], k)
        T = np.concatenate((kids, T[:, split:]), axis=1)
        # drop the cubes, waiting ones too, that miss every live sphere
        keep = _inside(T, k, r, shell)
        fresh = int(np.count_nonzero(keep[: kids.shape[1]]))
        T = T[:, keep]
    return SupEstimate(lb, max(resolved, lb), True, evals, levels)


# ---------------------------------------------------------------------------
# exact pieces


def hausdorff(a: ConvexSet, b: ConvexSet) -> float:
    """Hausdorff distance between two polytopes.

    Both one-sided sups are attained at generators because the distance to
    a convex set is convex, so the value is the largest distance of a
    generator of one polytope to the other, from the polytopes' residual
    maps: exact on the face-enumeration route, and on the batched Wolfe
    route certified by each row's Wolfe gap g to within sqrt(2 g) (see
    distance_evaluator).  Each side is a max query (_min_norm_rows) over
    the distinct generators (unique_points): a's against b start from the
    floor 0, and their largest distance h is the floor of b's against a.  A
    Wolfe row whose distance bound falls below the floor stops early below
    it, while the rows that can hold the maximum run to their end, so the
    value is the largest distance_evaluator value at the generators, bit
    for bit, and bounds the distance from above, as a residual's norm is a
    distance to a point of the set.  It takes no tolerances: the routes run
    at their own fixed ones.
    """
    if not (isinstance(a, Polytope) and isinstance(b, Polytope)):
        raise HyperconvexError("hausdorff takes polytope pairs only")
    check_same_ambient(a, b)
    h = 0.0
    for src, dst in ((a, b), (b, a)):
        R, _ = dst._residuals(src.unique_points, h)
        h = max(h, float(np.linalg.norm(R, axis=1).max()))
    return h


def _gap_caps(a: ConvexSet, b: ConvexSet) -> tuple[float, Callable[[float], float]]:
    """(h, cap): bounds for sup over the r-ball of |d(.,a) - d(.,b)|.

    a and b are flats.  h holds for every radius at once (inf when none is
    known): the offset of flats with bit-equal direction projectors.  cap(r)
    holds for one radius; it is the offset plus _direction_gap times (r +
    |b.base|).  Callers compute both once (_Pair.caps).
    """
    Pa = a.basis.T @ a.basis
    off = float(np.linalg.norm((b.base - a.base) - Pa @ (b.base - a.base)))
    eta, reach = _direction_gap(a, b), float(np.linalg.norm(b.base))
    return (off if eta == 0.0 else np.inf), lambda r: off + eta * (r + reach)


# ---------------------------------------------------------------------------
# probe points (deterministic exploration; all lower bounds are sound
# because they come from genuine evaluations inside the domain)

_LADDER = (1, 2, 3, 5, 8, 13, 21, 34, 55)


def _probes(a: ConvexSet, b: ConvexSet, radius: float) -> tuple[np.ndarray, int]:
    """(Y, ladder): the rows a ball_sup search starts from, and the index
    where the ladder rows among them end.  The ladder rows are plus and
    minus the unit P and L rows of both sets (_rows) at the _LADDER radii
    below radius and at radius, each 1e-12 inside its sphere so that it
    scores in the shell that sphere closes: 2 (m_a + m_b) rows a radius for
    polytopes of m_a and m_b points.  The data rows after them are the P
    rows of both sets and the origin, which ball_sup evaluates first.

    The ladder stays because the probes set the first lower bound, which
    prunes shells and boxes: with no _LADDER radii aw-sweep's op_ms_p50 read
    0.46 against 0.32 ms (seed 1).  The differences P_a - P_b, which made
    it quadratic in the points, are left out: without them aw-sweep's
    outputs (seeds 1-2, rounds 0-2) kept their certified flags and
    overlapping intervals, on 67,316 rows evaluated against 68,810.
    """
    (Pa, La), (Pb, Lb) = _rows(a), _rows(b)
    V = np.concatenate([Pa, La, Pb, Lb])
    nrm = _row_norms(V)
    big = nrm > 1e-12
    U = V[big] / nrm[big, None]
    radii = [j for j in _LADDER if j < radius] + [radius]
    s = np.array([sign * (1.0 - 1e-12) * r for sign in (1.0, -1.0) for r in radii])
    rows = (s[:, None, None] * U).reshape(-1, U.shape[1])
    return np.concatenate([rows, Pa, Pb, np.zeros((1, Pa.shape[1]))]), rows.shape[0]


# ---------------------------------------------------------------------------
# the route of every estimate, and the truncated Hausdorff distance


def _spectral(a: ConvexSet, b: ConvexSet, r):
    """(lo, hi) enclosing the Hausdorff distance between a∩rB and b∩rB for
    flats that contain the origin up to tau_geom, at a radius r or an array
    of them.  For subspaces the projection onto one stays inside the ball,
    so the distance is r times the larger operator norm ||B_src (I -
    P_dst)||, the gap of _direction_gap.  Spans of unequal dimension are
    exactly 1 apart: the larger holds a unit vector orthogonal to the
    smaller.  For equal dimensions theta is computed from B^T B, which is
    within dev = ||B B^T - I||_F of the exact projector of a basis B whose
    rows are orthonormal only to rounding (both have the eigenvectors of
    B^T B; its eigenvalues are those of B B^T, the projector's are 1), and
    theta rounds by a few n^2 eps (two products of at most n terms and an
    SVD): the interval widens by r (_ROUNDING n^2 + dev_a + dev_b).  The
    r-ball slice of a flat at distance nu from the origin lies within
    Hausdorff distance nu (1 + nu / r) of its direction span's slice, which
    widens it by that much more.
    """
    theta, e = 1.0, 0.0
    if a.dim == b.dim:
        theta = _direction_gap(a, b)
        e = _ROUNDING * a.ambient_dim**2
        e += sum(float(np.linalg.norm(s.basis @ s.basis.T - np.eye(s.dim))) for s in (a, b))
    nus = [float(np.linalg.norm(flat_min_norm_point(s))) for s in (a, b)]
    slack = r * e + sum(nu * (1.0 + nu / r) for nu in nus)
    return np.maximum(r * theta - slack, 0.0), r * theta + slack


def _estimate(pair: _Pair, radius: float, eps: float, budget: int, weights=(np.inf,)) -> SupEstimate:
    """The route of every certified estimate: the sup over the radius-ball
    of min(weights[l], |d(., a) - d(., b)|) for the pair's sets a and b, the
    ball cut into len(weights) shells of equal width as in ball_sup.

    Where the estimator checked that both sets contain the origin
    (_Pair.origin), the largest gap over shell l and all inside it is the
    truncated Hausdorff distance at its outer sphere s_l (module docstring),
    and a pair without a polytope takes the spectral formula (_spectral) at
    every s_l.  Every other pair is one ball_sup, each weight capped by
    pair.caps at s_l and, with the origin checked, by s_l + tau_geom, as on
    the s_l-ball a set within tau_geom of the origin is within s_l +
    tau_geom of every point.
    """
    w = np.asarray(weights, dtype=float)
    s = radius / w.size * np.arange(1.0, w.size + 1.0)
    if pair.origin:
        if not (isinstance(pair.a, Polytope) or isinstance(pair.b, Polytope)):
            lo, hi = _spectral(pair.a, pair.b, s)
            return SupEstimate(float(np.minimum(w, lo).max()), float(np.minimum(w, hi).max()), True, 0)
        w = np.minimum(w, s + pair.cfg.tau_geom)
    return ball_sup(pair, radius, eps, budget=budget, weights=np.minimum(w, pair.caps[1](s)))


def truncated_hausdorff(
    a: ConvexSet,
    b: ConvexSet,
    radius: float,
    eps: float = 1e-3,
    tol: ToleranceConfig | None = None,
    budget: int = 1_500_000,
) -> Interval:
    """Certified interval for the Hausdorff distance between a ∩ rB and
    b ∩ rB.  Requires both sets to contain the origin (up to tau_geom),
    which makes the routes of the module docstring valid."""
    pair = _pair(a, b, tol, "truncated_hausdorff requires origin-containing sets", radius, eps, budget)
    if pair is None:
        return Interval(0.0, 0.0)
    est = _estimate(pair, radius, eps, budget)
    return Interval(est.lo, min(est.hi, max(est.lo, 2 * radius)), est.certified)


# ---------------------------------------------------------------------------
# sup of the distance-function gap over a ball


def sup_distance_gap(
    a: ConvexSet,
    b: ConvexSet,
    radius: float,
    eps: float = 1e-3,
    tol: ToleranceConfig | None = None,
    budget: int = 3_000_000,
) -> Interval:
    """Certified interval for sup over the radius-ball of |d(.,a) - d(.,b)|.

    Two subspaces contain the origin, so they ride the truncated-Hausdorff
    identity (the spectral route of _estimate); every other pair takes the
    ambient search.
    """
    pair = _pair(a, b, tol, radius=radius, eps=eps, budget=budget)
    if pair is None:
        return Interval(0.0, 0.0)
    pair.origin = isinstance(a, Subspace) and isinstance(b, Subspace)
    est = _estimate(pair, radius, eps, budget)
    return Interval(est.lo, est.hi, est.certified)


# ---------------------------------------------------------------------------
# the Attouch-Wets metric as one weighted sup


def _aw_scan(pair: _Pair, p: AWParams) -> Interval:
    """The Attouch-Wets metric of the pair: one estimate (_estimate) over
    the j_cap-ball with weights 1/j on its unit shells, and the terms past
    j_cap, at most min(1/(j_cap+1), h) with h from pair.caps.  A scan that
    ran out of budget leaves the result certified while its width meets
    eps_sup.
    """
    est = _estimate(pair, float(p.j_cap), p.eps_sup, p.budget, 1.0 / np.arange(1.0, p.j_cap + 1.0))
    tail = min(1.0 / (p.j_cap + 1), pair.caps[0])
    return Interval(est.lo, max(est.hi, tail), est.certified or est.hi - est.lo <= p.eps_sup)


def attouch_wets(
    a: ConvexSet,
    b: ConvexSet,
    params: AWParams | None = None,
    tol: ToleranceConfig | None = None,
) -> Interval:
    """Certified interval for the localized-convergence distance

        sup over j >= 1 of min(1/j, sup over the j-ball of |d(.,a) - d(.,b)|),

    computed as the sup over the j_cap-ball of
    min(1/J(x), |d(x,a) - d(x,b)|), J(x) = max(1, ceil|x|), by one
    ball_sup and without assuming anything about where the sets sit.
    Width is at most eps_sup, plus 1/(j_cap+1) for the terms past j_cap.
    """
    p = params or AWParams()
    pair = _pair(a, b, tol)
    return Interval(0.0, 0.0) if pair is None else _aw_scan(pair, p)


def aw_origin(
    a: ConvexSet,
    b: ConvexSet,
    params: AWParams | None = None,
    tol: ToleranceConfig | None = None,
) -> Interval:
    """Certified interval for the localized-convergence distance between two
    origin-containing sets, evaluated through ball truncations:

        sup over j >= 1 of min(1/j, hausdorff(a ∩ jB, b ∩ jB)).

    For origin-containing sets this equals attouch_wets (module
    docstring).  Pairs without a polytope take the spectral formula at every
    j up to j_cap; its gap and attouch_wets' flat caps both read
    sets._direction_gap, so the two agree on such pairs by that one
    formula.  Every pair with a polytope takes the weighted scan of
    attouch_wets and returns its interval bit for bit.
    """
    p = params or AWParams()
    pair = _pair(a, b, tol, "aw_origin requires both sets to contain the origin")
    return Interval(0.0, 0.0) if pair is None else _aw_scan(pair, p)
