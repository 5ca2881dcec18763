"""Antipolar duality of antinorms.

The dual antinorm is  f*(p) = inf_{x in R^d_+, f(x) != 0} <p, x>/f(x);
its unit antiball is the antipolar of the antiball of f.  Consequences
implemented and checked here:

* exact piecewise-linear duality: the functionals of f* are the vertices
  of the antiball of f (``dual_pl``),
* a numeric dual estimate for black-box antinorms (``dual_numeric``),
* ``dual_values``, the one batched entry point for dual values, in two
  tiers: the closed form an antinorm knows (``_dual_support``: the body's
  vertices for piecewise-linear antinorms of dim <= 4, weighted AM-GM for
  products, ``sqrt2xy``, ``min_eps``, ``circle_arc`` and ``rootsum3`` in
  the catalog), numeric only where it knows none,
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
case of the Young-type inequality), found as a root in the table of the
antisphere that f keeps (``f.arc``, read by ``_dual2_batch``; the search
a cone split's K1 table runs where its piece has no closed form).  In
d >= 3 the ratio is quasiconvex on the simplex as well, so a converged
local descent reaches the minimum; Nelder-Mead descents from one shared
simplex grid run until the two lowest agree within the tolerance
(``_dual_nd``), within a largest budget the module picks, not the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import Report
from ._search import minimize, simplex_grid
from .config import DEFAULT
from .errors import DegenerateBodyError, DimensionMismatchError
from .exprs import (
    BuiltinAntinorm,
    NumericDualAntinorm,
    PLAntinorm,
    as_point,
    as_pl,
    continuous_extension_eval,
)

__all__ = [
    "DualReport",
    "dual_pl",
    "dual_numeric",
    "dual_values",
    "young_check",
    "double_dual_check",
    "duality_discontinuity_demo",
    "DiscontinuityTable",
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
    are exactly those vertices, the ones ``f.body`` caches.  Applying
    ``dual_pl`` twice returns ``canonicalize_pl(f)``.
    """
    pl = as_pl(f)
    if pl is None:
        raise TypeError(f"{f!r} has no piecewise-linear form; use dual_numeric")
    if pl.dim > 4:
        raise DimensionMismatchError("exact PL duality supports dim <= 4")
    return PLAntinorm(pl.body.vertices())


# ---------------------------------------------------------------------------
# numeric dual
# ---------------------------------------------------------------------------

_NM_FATOL = 1e-13     # absolute value resolution of a d >= 3 Nelder-Mead descent
# d >= 3 budgets (grid resolution, None: 64/24/16 by d; starts; steps per descent)
_BUDGET = (None, 8, 500)          # the dual of an antinorm that is not a numeric dual
_INNER_BUDGET = (16, 2, 200)      # the evaluation of a NumericDualAntinorm
_NESTED_BUDGET = (10, 2, 150)     # the dual of a NumericDualAntinorm


def _dual2_batch(f, P):
    """Vectorized 2-d duals: one support query on the antisphere of f.

    f*(p) = min over x of <p,x>/f(x) = min over the antisphere {f = 1} of
    <p, s>, attained where p is parallel to a supergradient of f (the
    equality case of the Young-type inequality).  The arc is ``f.arc``, the
    table f builds once on 1025 logit points over u in [-45, 45]; its query
    finds the cell where the normal turns past p and closes it onto the
    tangency, at a kink onto the jump.  Every returned value is <p, s> at an
    arc point, the smaller of the cell ends' and the root's.  The logit
    grid keeps boundary minimizers (e.g. for piecewise-linear duals
    vanishing on an axis) resolvable.  It stays a function of its own
    because ``bench/trace_layers.py`` counts its calls and rows.
    """
    return f.arc.support(np.atleast_2d(np.asarray(P, dtype=float)))[0]


def _chart(z):
    """The point softmax([z, 0]) of the unit simplex, for z in R^(d-1).

    Fixing the last log-coordinate at 0 removes the shift along which
    softmax is constant, a flat direction a search would explore for
    nothing.
    """
    z = np.append(z, 0.0)
    x = np.exp(z - np.maximum.reduce(z))
    return x / np.add.reduce(x)


def _settled(f, p, x, m, tol):
    """Whether a descent minimum ``m`` at ``x`` may stop the search.

    In chart coordinates a face of the simplex is flat, so descents can
    agree at a point on a face that is not the minimum.  A point with a
    coordinate below ``tol`` is accepted only when a supergradient g there
    certifies m: f(y) <= <g, y> on R^d_+ gives f*(p) >= min p_i/g_i over
    g_i > 0.  Near a minimum the value is flat: a point whose value is
    within ``tol`` of it lies only within about sqrt(tol) of the minimizer,
    so the bound is judged at a slack of sqrt(tol) relative.
    """
    if x.min() >= tol:
        return True
    with np.errstate(divide="ignore", invalid="ignore"):   # a coordinate may be 0
        g = f._grads(x[None])[0]
    pos = g > 0
    if not (pos.any() and np.all(np.isfinite(g))):
        return False
    return np.min(p[pos] / g[pos]) >= m - (math.sqrt(tol) * abs(m) + _NM_FATOL)


def _dual_nd(f, P, tol, budget):
    """Duals in d >= 3 at the rows of ``P``: local descents on the simplex,
    stopped once the two lowest agree.

    ``budget`` is one of the module's ``(resolution, n_starts, maxiter)``
    constants.  One simplex grid of ``resolution`` and its (rows x grid)
    ratio matrix serve every row.  Nelder-Mead descents run in the
    (d - 1)-dimensional chart of ``_chart``, from the row's best grid
    point, then ``max(1, n_starts // 2)`` random starts (the same
    ``default_rng(0)`` draws for every row), then the next ``n_starts - 1``
    grid points.  The ratio is quasiconvex, so a descent
    that converges finds the minimum, but Nelder-Mead can stall at a kink:
    a row stops once its two lowest descent minima agree within ``tol``
    relative, or within the descents' own resolution ``_NM_FATOL`` for a
    value near zero (on a face only with a certificate, see ``_settled``),
    and after all ``n_starts + max(1, n_starts // 2)`` descents of at most
    ``maxiter`` steps at the latest.  Its value is the smallest of the grid
    value and every descent's minimum.
    """
    d = f.dim
    resolution, n_starts, maxiter = budget
    grid = simplex_grid(d, resolution or {3: 64, 4: 24}.get(d, 16))
    fv = f._values(grid)
    if np.all(fv <= 0):
        raise DegenerateBodyError("antinorm vanishes on the whole sample set")
    # a product coordinate by coordinate, so a row's ratios do not depend on its batch
    num = sum(np.multiply.outer(P[:, j], grid[:, j]) for j in range(d))
    with np.errstate(divide="ignore"):
        ratios = np.where(fv > 0, num / np.where(fv > 0, fv, 1.0), np.inf)
    near = np.argsort(ratios, axis=1)[:, :max(n_starts, 1)]
    logs = np.log(grid)
    logs = logs[:, :-1] - logs[:, -1:]
    randoms = np.random.default_rng(0).normal(0.0, 2.0, size=(max(1, n_starts // 2), d))
    randoms = randoms[:, :-1] - randoms[:, -1:]
    out = np.empty(len(P))
    for i, p in enumerate(P):

        def objective(z):
            x = _chart(z)
            val = f._values(x[None])[0]
            if val <= 0:
                return 1e30
            return float(p @ x) / val

        minima, ends = [], []
        for z0 in [logs[near[i, 0]], *randoms, *logs[near[i, 1:]]]:
            res = minimize(objective, z0, method="Nelder-Mead",
                           options={"fatol": _NM_FATOL, "xatol": 1e-10, "maxiter": maxiter})
            minima.append(float(res.fun))
            ends.append(res.x)
            if len(minima) > 1:
                lo, second = np.argsort(minima)[:2]
                m = minima[lo]
                if (minima[second] - m <= max(tol * abs(m), _NM_FATOL)
                        and _settled(f, p, _chart(ends[lo]), m, tol)):
                    break
        out[i] = min(ratios[i, near[i, 0]], *minima)
    return out


def _numeric_duals(f, P, tol):
    """Numeric duals at the rows of ``P``: the tangency root of
    ``_dual2_batch`` in d = 2, local descents stopped on agreement within
    ``tol`` in d >= 3 (``_dual_nd``).  The d >= 3 budget follows from ``f``:
    ``_NESTED_BUDGET`` when f is itself a ``NumericDualAntinorm``, whose
    every value is a search of its own, ``_BUDGET`` otherwise."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if f.dim == 2:
        return _dual2_batch(f, P)
    return _dual_nd(f, P, tol, _NESTED_BUDGET if isinstance(f, NumericDualAntinorm) else _BUDGET)


def dual_numeric(f, p, tol=DEFAULT.dual):
    """Numeric dual value  f*(p) = min over the unit simplex of <p,x>/f(x).

    The ratio is scale-invariant, so the compact simplex suffices.  Sampling
    stays in the interior (liminf convention at the boundary); d = 2 refines
    by the tangency root of ``_dual2_batch`` and d >= 3 by local descents
    from a simplex grid (``_dual_nd``), which stop once the two lowest
    agree within ``tol`` relative.  The search budget is the program's
    choice, a smaller one when f is itself a numeric dual
    (``_numeric_duals``).  The result is an estimate, not a certified
    bound, and stays numeric for every input, also where ``dual_values``
    takes a closed form.  ``tol`` must be positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = as_point(p, f.dim)
    return float(_numeric_duals(f, q, tol)[0])


def dual_values(f, P):
    """Dual values f*(p) at the rows of ``P``: the closed form
    ``f._dual_support`` where f has one (exact, ``dual_pl``'s functionals,
    for a piecewise-linear antinorm of dim <= 4), numeric estimates
    (``_numeric_duals``) otherwise."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    closed = f._dual_support(P)
    return _numeric_duals(f, P, DEFAULT.dual) if closed is None else closed[0]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def young_check(f, samples=1000, seed=0):
    """Sample the Young-type inequality  f*(p) f(x) <= <p, x>.

    Reports the largest positive excess of f*(p)f(x) over the pairing,
    clipped at zero, with f* from ``dual_values``; for a genuine antinorm
    it must stay below the dual solver tolerance.  Equality is attained at
    minimizing pairs, e.g. x = p = (1,1) for f = sqrt(2xy).
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
    fstar = dual_values(f, P)
    fx = f._values(X)
    excess = fstar[:, None] * fx[None, :] - P @ X.T
    violation = max(0.0, float(np.max(excess)))
    return DualReport(violation, 0.0, n_p * n_x, seed)


def double_dual_check(f, samples=40, seed=0):
    """Largest sampled gap |f**(x) - F(x)| with F the continuous extension.

    Piecewise-linear antinorms take the exact double-dual path; other
    antinorms evaluate two nested numeric duals, so the gap is limited by
    the numeric dual tolerance.  The outer dual is one batched call on the
    samples scaled to the unit simplex, so the grid values of the inner
    dual f* are computed once; its budget is the one ``_numeric_duals``
    picks for the dual of a numeric dual.
    """
    rng = np.random.default_rng(seed)
    d = f.dim
    X = rng.lognormal(0.0, 0.8, size=(samples, d))
    face = rng.random(samples) < 0.25
    if np.any(face):
        X[np.nonzero(face)[0], rng.integers(0, d, size=face.sum())] = 0.0
    pl = as_pl(f)
    ones = np.ones(d)
    if pl is not None and pl.dim <= 4:
        fdd = dual_pl(dual_pl(pl))
        gap = 0.0
        for x in X:
            gap = max(gap, abs(fdd.value(x) - continuous_extension_eval(pl, x, ones)))
        return DualReport(0.0, gap, samples, seed)
    fstar = NumericDualAntinorm(f, tol=1e-9)
    s = X.sum(axis=1)
    scale = np.where(s > 0, s, 1.0)
    fdd = _numeric_duals(fstar, X / scale[:, None], 1e-7) * scale
    F = np.array([continuous_extension_eval(f, x, ones) for x in X])
    gap = float(np.max(np.abs(fdd - F), initial=0.0))
    return DualReport(0.0, gap, samples, seed)


# ---------------------------------------------------------------------------
# discontinuity of the duality map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscontinuityTable(Report):
    """Dual values at (1, 0) along min{x,y} + eps*sqrt(xy), plus the bound check."""

    eps: tuple
    dual_at_e1: tuple          # f*_eps(1, 0), one per eps
    limit_dual_at_e1: float    # f*_0(1, 0) = 1 for the limit antinorm min{x,y}
    max_bound_excess: float    # max of f*_eps(p,q) - (2/eps) sqrt(pq), clipped at 0


def duality_discontinuity_demo(eps_list, seed=0):
    """Demonstrate that f -> f* is discontinuous.

    For every eps > 0 the dual of min{x,y} + eps*sqrt(xy) vanishes at
    (1, 0), while the dual of the eps = 0 limit is p + q, which equals 1
    there.  Also verifies the upper bound f*_eps(p,q) <= (2/eps) sqrt(pq)
    at 50 sampled interior points.
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
        P = rng.lognormal(0.0, 1.0, size=(50, 2))
        vals = dual_values(f, np.vstack([e1, P]))
        at_e1.append(float(vals[0]))
        bound = (2.0 / eps) * np.sqrt(P[:, 0] * P[:, 1])
        max_excess = max(max_excess, float(np.max(vals[1:] - bound)))
    f0_dual = dual_pl(BuiltinAntinorm("min", dim=2))
    limit_val = f0_dual.value(e1)
    return DiscontinuityTable(eps_list, tuple(at_e1), float(limit_val), max(0.0, max_excess))
