"""Antipolar duality of antinorms.

The dual antinorm is  f*(p) = inf_{x in R^d_+, f(x) != 0} <p, x>/f(x);
its unit antiball is the antipolar of the antiball of f.  Consequences
implemented and checked here:

* exact piecewise-linear duality: the functionals of f* are the vertices
  of the antiball of f (``dual_pl``),
* a numeric dual estimate for black-box antinorms (``dual_numeric``),
* ``dual_values``, the one batched entry point for dual values: exact for
  piecewise-linear antinorms of dim <= 4, numeric otherwise,
* the Young-type inequality  f*(p) f(x) <= <p, x>  (``young_check``); note
  the product bounds the pairing from *below*, the reverse of the norm
  case, since the dual is an infimum,
* reflexivity  f** = F  with F the continuous extension
  (``double_dual_check``),
* the discontinuity of the map f -> f* along the family
  min{x,y} + eps*sqrt(xy) (``duality_discontinuity_demo``).

``dual_numeric`` minimizes the scale-invariant ratio over the unit simplex,
restricting samples to the interior; that realizes the liminf convention
for boundary ratios and makes the dual of a discontinuous antinorm agree
with the dual of its continuous extension.  In d = 2 the minimum is the
tangency point where p is parallel to a supergradient of f (the equality
case of the Young-type inequality), found as a root (``_dual2_batch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._report import Report
from ._search import bracket_root, logit_points, simplex_grid
from .config import DEFAULT
from .errors import DegenerateBodyError, DimensionMismatchError
from .exprs import (
    BuiltinAntinorm,
    PLAntinorm,
    as_point,
    as_pl,
    canonicalize_pl,
    continuous_extension_eval,
)
from .geometry import ConicPolytope

__all__ = [
    "DualReport",
    "dual_pl",
    "dual_numeric",
    "dual_values",
    "young_check",
    "double_dual_check",
    "duality_discontinuity_demo",
    "DiscontinuityTable",
    "min_eps_dual_closed",
]


@dataclass(frozen=True)
class DualReport(Report):
    """Sampled duality violations; a field is 0.0 unless its check ran."""

    max_young_violation: float
    max_reflexivity_gap: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# exact PL duality
# ---------------------------------------------------------------------------

def dual_pl(f):
    """Exact dual of a piecewise-linear antinorm (dim <= 4).

    The antiball of f* is the antipolar of the antiball of f, whose
    half-spaces are the vertices of the latter; so the dual's functionals
    are exactly those vertices.  Applying ``dual_pl`` twice returns
    ``canonicalize_pl(f)``.
    """
    pl = as_pl(f)
    if pl is None:
        raise TypeError(f"{f!r} has no piecewise-linear form; use dual_numeric")
    if pl.dim > 4:
        raise DimensionMismatchError("exact PL duality supports dim <= 4")
    G = ConicPolytope.from_halfspaces(canonicalize_pl(pl).functionals)
    return PLAntinorm(G.vertices())


# ---------------------------------------------------------------------------
# numeric dual
# ---------------------------------------------------------------------------

_UMAX = 45.0          # logit range; sigmoid(-45) ~ 2.9e-20 keeps samples interior
_N_GRID = 1025        # coarse logit grid of the 2-d dual
_ROOT_STEPS = 90      # step cap of the tangency root finder
_EPS = np.finfo(float).eps


def _ratio_2d(f, P, u):
    """Objective <p, x(u)>/f(x(u)) for each (row of P, entry of u) pair."""
    X = logit_points(u)
    fv = f._values(X.reshape(-1, 2)).reshape(u.shape)
    num = (P * X).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(fv > 0, num / np.where(fv > 0, fv, 1.0), np.inf)
    return r


def _dual2_batch(f, P):
    """Vectorized 2-d duals: a tangency root on the logit of the simplex.

    The ratio <p,x>/f(x) is quasiconvex on the simplex (its sublevel sets
    are sublevel sets of the convex function <p,x> - c f(x)), so a bracket
    around the coarse-grid minimizer contains the global minimum.  Along
    x(u) = (s, 1 - s), s = 1/(1 + e^-u), the ratio's slope has the sign of
    (p0 - p1) f(x) - <p, x> (g0 - g1) for a supergradient g, which by
    Euler's <g, x> = f(x) is p0 g1 - p1 g0: the minimum is where p is
    parallel to g.  ``bracket_root`` closes the bracket onto that sign
    change, within at most ``_ROOT_STEPS`` steps; at a kink it closes onto the
    jump.  Rows whose bracket is flat to rounding are settled at once, and
    every returned value is the ratio at a point, the smaller of the grid
    value and the value at the root.  The logit parametrization keeps
    boundary minimizers (e.g. for piecewise-linear duals vanishing on an
    axis) resolvable.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    u = np.linspace(-_UMAX, _UMAX, _N_GRID)
    X = logit_points(u)
    fv = f._values(X)
    if np.all(fv <= 0):
        raise DegenerateBodyError("antinorm vanishes on the whole sample set")
    ratios = np.where(fv > 0, (P @ X.T) / np.where(fv > 0, fv, 1.0), np.inf)
    rows = np.arange(P.shape[0])
    idx = np.argmin(ratios, axis=1)
    best = ratios[rows, idx]
    i_lo = np.maximum(idx - 1, 0)
    i_hi = np.minimum(idx + 1, _N_GRID - 1)
    # a convex <p,x> - c f(x) cannot dip below its value where it is flat
    flat = np.maximum(ratios[rows, i_lo], ratios[rows, i_hi]) <= best * (1.0 + 8.0 * _EPS)
    k = np.nonzero(~flat)[0]
    if k.size == 0:
        return best
    ends = np.unique(np.concatenate([i_lo[k], i_hi[k]]))
    G = np.zeros((_N_GRID, 2))
    Pk = P[k] / np.hypot(P[k, 0], P[k, 1])[:, None]

    def sine(Pr, g):
        """sin of the angle from p to g; its rounding floor is a few ulps."""
        return (Pr[:, 0] * g[:, 1] - Pr[:, 1] * g[:, 0]) / np.hypot(g[:, 0], g[:, 1])

    with np.errstate(divide="ignore", invalid="ignore"):   # a NaN end leaves its row as is
        G[ends] = f._grads(X[ends])
        h_lo, h_hi = sine(Pk, G[i_lo[k]]), sine(Pk, G[i_hi[k]])
    live = (h_lo < 0) & (h_hi > 0)
    k, Pk = k[live], Pk[live]
    if k.size == 0:
        return best
    a, b = bracket_root(lambda t, r: sine(Pk[r], f._grads(logit_points(t))),
                        u[i_lo[k]], u[i_hi[k]], h_lo[live], h_hi[live], _ROOT_STEPS,
                        ftol=16 * _EPS)
    best[k] = np.minimum(best[k], _ratio_2d(f, P[k], 0.5 * (a + b)))
    return best


def _dual_nd(f, p, resolution=None, n_starts=8, maxiter=500):
    d = f.dim
    if resolution is None:
        resolution = {3: 64, 4: 24}.get(d, 16)
    grid = simplex_grid(d, resolution)
    fv = f._values(grid)
    if np.all(fv <= 0):
        raise DegenerateBodyError("antinorm vanishes on the whole sample set")
    with np.errstate(divide="ignore"):
        ratios = np.where(fv > 0, (grid @ p) / np.where(fv > 0, fv, 1.0), np.inf)
    order = np.argsort(ratios)
    best = float(ratios[order[0]])

    def objective(z):
        z = z - z.max()
        x = np.exp(z)
        x = x / x.sum()
        val = f.value(x)
        if val <= 0:
            return 1e30
        return float(p @ x) / val

    rng = np.random.default_rng(0)
    starts = [np.log(grid[j]) for j in order[:n_starts]]
    starts += [rng.normal(0.0, 2.0, size=d) for _ in range(max(1, n_starts // 2))]
    for z0 in starts:
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"fatol": 1e-13, "xatol": 1e-10, "maxiter": maxiter})
        if res.fun < best:
            best = float(res.fun)
    return best


def _numeric_duals(f, P, resolution=None, n_starts=8, maxiter=500):
    """Numeric duals at the rows of ``P``: the tangency root of
    ``_dual2_batch`` in d = 2, multi-start local descent row by row in
    d >= 3 (``resolution``, ``n_starts`` and ``maxiter`` set its budget)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if f.dim == 2:
        return _dual2_batch(f, P)
    return np.array([_dual_nd(f, p, resolution=resolution, n_starts=n_starts, maxiter=maxiter)
                     for p in P])


def dual_numeric(f, p, tol=DEFAULT.dual, resolution=None, n_starts=8, maxiter=500):
    """Numeric dual value  f*(p) = min over the unit simplex of <p,x>/f(x).

    The ratio is scale-invariant, so the compact simplex suffices.  Sampling
    stays in the interior (liminf convention at the boundary); d = 2 refines
    by the tangency root of ``_dual2_batch`` and d >= 3 by multi-start local
    descent from the best points of a simplex grid of ``resolution``, with
    ``n_starts`` starts of at most ``maxiter`` steps; nested duals
    (dual-of-dual) pass a smaller budget to stay affordable.  The result is
    an estimate, not a certified bound, and stays numeric for
    piecewise-linear input (``dual_values`` takes the exact path).  ``tol``
    must be positive and is recorded by ``NumericDualAntinorm``, but no
    stopping rule reads it yet.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = as_point(p, f.dim)
    return float(_numeric_duals(f, q, resolution, n_starts, maxiter)[0])


def dual_values(f, P):
    """Dual values f*(p) at the rows of ``P``: exact (``dual_pl``) for a
    piecewise-linear antinorm of dim <= 4, numeric estimates otherwise."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    pl = as_pl(f)
    if pl is not None and pl.dim <= 4:
        return dual_pl(pl)._values(P)
    return _numeric_duals(f, P)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def young_check(f, samples=1000, seed=0, dual=None):
    """Sample the Young-type inequality  f*(p) f(x) <= <p, x>.

    Reports the largest positive excess of f*(p)f(x) over the pairing,
    clipped at zero; for a genuine antinorm it must stay below the dual
    solver tolerance.  Equality is attained at minimizing pairs, e.g.
    x = p = (1,1) for f = sqrt(2xy).  A caller that already holds f* passes
    it as ``dual``, and its values are used instead of computing f* again.
    """
    rng = np.random.default_rng(seed)
    d = f.dim
    n_p = int(np.clip(samples // 20, 1, 200))
    n_x = max(1, math.ceil(samples / n_p))
    P = rng.lognormal(0.0, 1.0, size=(n_p, d))
    X = rng.lognormal(0.0, 1.0, size=(n_x, d))
    face = rng.random(n_x) < 0.2
    if np.any(face):
        X[np.nonzero(face)[0], rng.integers(0, d, size=face.sum())] = 0.0
    fstar = dual_values(f, P) if dual is None else dual._values(P)
    fx = f._values(X)
    excess = fstar[:, None] * fx[None, :] - P @ X.T
    violation = max(0.0, float(np.max(excess)))
    return DualReport(violation, 0.0, n_p * n_x, seed)


def double_dual_check(f, samples=40, seed=0):
    """Largest sampled gap |f**(x) - F(x)| with F the continuous extension.

    Piecewise-linear antinorms take the exact double-dual path; other
    antinorms evaluate two nested numeric duals, so the gap is limited by
    the numeric dual tolerance.
    """
    rng = np.random.default_rng(seed)
    d = f.dim
    X = rng.lognormal(0.0, 0.8, size=(samples, d))
    face = rng.random(samples) < 0.25
    if np.any(face):
        X[np.nonzero(face)[0], rng.integers(0, d, size=face.sum())] = 0.0
    pl = as_pl(f)
    ones = np.ones(d)
    gap = 0.0
    if pl is not None and pl.dim <= 4:
        fdd = dual_pl(dual_pl(pl))
        for x in X:
            gap = max(gap, abs(fdd.value(x) - continuous_extension_eval(pl, x, ones)))
        return DualReport(0.0, gap, samples, seed)
    from .exprs import NumericDualAntinorm

    fstar = NumericDualAntinorm(f, tol=1e-9)
    for x in X:
        s = x.sum()
        xs = x / s if s > 0 else x
        fdd = dual_numeric(fstar, xs, tol=1e-7, resolution=12, n_starts=3)
        fdd *= s if s > 0 else 1.0
        F = continuous_extension_eval(f, x, ones)
        gap = max(gap, abs(fdd - F))
    return DualReport(0.0, gap, samples, seed)


# ---------------------------------------------------------------------------
# discontinuity of the duality map
# ---------------------------------------------------------------------------

def min_eps_dual_closed(eps, p, q):
    """Closed-form dual of min{x,y} + eps*sqrt(xy) in the regime q <= eps^2 p / 8."""
    if q > eps * eps * p / 8.0 + 1e-15:
        raise ValueError("closed form only valid for q <= eps^2 p / 8")
    return 2.0 * p * q / (q + math.sqrt(q * q + eps * eps * p * q))


@dataclass(frozen=True)
class DiscontinuityTable(Report):
    """Dual values at (1, 0) along min{x,y} + eps*sqrt(xy), plus the bound check."""

    eps: tuple
    dual_at_e1: tuple          # f*_eps(1, 0), one per eps
    limit_dual_at_e1: float    # f*_0(1, 0) = 1 for the limit antinorm min{x,y}
    max_bound_excess: float    # max of f*_eps(p,q) - (2/eps) sqrt(pq), clipped at 0


def duality_discontinuity_demo(eps_list, bound_samples=50, seed=0):
    """Demonstrate that f -> f* is discontinuous.

    For every eps > 0 the dual of min{x,y} + eps*sqrt(xy) vanishes at
    (1, 0), while the dual of the eps = 0 limit is p + q, which equals 1
    there.  Also verifies the upper bound f*_eps(p,q) <= (2/eps) sqrt(pq)
    at sampled interior points.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 or e > 1 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1]")
    e1 = np.array([1.0, 0.0])
    at_e1 = []
    max_excess = 0.0
    rng = np.random.default_rng(seed)
    for eps in eps_list:
        f = BuiltinAntinorm("min_eps", eps=eps)
        P = rng.lognormal(0.0, 1.0, size=(bound_samples, 2))
        vals = dual_values(f, np.vstack([e1, P]))
        at_e1.append(float(vals[0]))
        bound = (2.0 / eps) * np.sqrt(P[:, 0] * P[:, 1])
        max_excess = max(max_excess, float(np.max(vals[1:] - bound)))
    f0_dual = dual_pl(BuiltinAntinorm("min", dim=2))
    limit_val = f0_dual.value(e1)
    return DiscontinuityTable(eps_list, tuple(at_e1), float(limit_val), max(0.0, max_excess))
