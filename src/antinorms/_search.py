"""Search primitives shared by the numeric layers.

Each primitive has its only copy here; the module imports nothing from the
package.  Callers:

* ``bracket_root``: ``exprs._Arc.support`` (tangency p || grad f on a 2-d
  antisphere; the one search behind the 2-d numeric dual
  ``duality._dual2_batch``, the supergradients of 2-d
  ``exprs.NumericDualAntinorm`` and of ``exprs.ConeSplitAntinorm`` where
  its piece has no closed-form dual point; skipped at a kink on a table
  node), ``selfdual.closest_antisphere_point`` (stationary radius, from the
  radius minima of ``Antinorm.arc``),
  ``dynamics.lsr_lower_certificate`` (stationary ratio, from the best point
  of ``Antinorm.arc``) and ``trig.TrigContext._literal_positions`` (every
  literal theta of a batch).
* ``logit_points``: ``exprs._Arc`` (the only table of a 2-d antisphere),
  the roots of ``selfdual.closest_antisphere_point`` and
  ``dynamics.lsr_lower_certificate``, ``trig._SmoothBoundary`` (its
  quadrature nodes on the cells of ``Antinorm.arc`` and its roots),
  ``selfdual._probe_grid``, ``dynamics.transpose_extremal_check`` and CLI
  ``dual``.
* ``simplex_grid``, always in d >= 3, built once per (d, n) and shared
  read-only: ``duality._dual_nd``, ``selfdual._probe_grid``,
  ``dynamics.lsr_lower_certificate``, ``geometry._extreme_by_direction``
  (the certificate of ``prune_positive_hull`` and
  ``exprs.canonicalize_pl``) and ``geometry._lp_redundant`` (the direction
  certificate against the kept rows, on ``_dual_nd``'s grid in d = 3, 4).
* ``aitken_limit``: ``exprs.continuous_extension_eval``,
  ``dynamics.invariant_body_iterate``.
* ``linprog``, ``minimize`` and ``brentq`` forward to ``scipy.optimize``.
  ``linprog``: ``exprs._dominated_by_hull`` (``canonicalize_pl``) and
  ``geometry._lp_redundant`` (``prune_positive_hull``), each only for the
  rows no certificate decides, and ``geometry.positive_hull_value``;
  ``minimize``: ``duality._dual_nd``; ``brentq``:
  ``trig._SmoothBoundary.point_at`` (on a cell polynomial).

These three are the package's only import of scipy, made on the first call:
``scipy.optimize`` takes about 0.6 s to import, longer than most CLI
commands run, and most commands never call it.  Callers bind them under the
scipy names, which keeps ``exprs.linprog`` and the like patchable.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

_EPS = np.finfo(float).eps


def bracket_root(fn, lo, hi, flo, fhi, iters, ftol=0.0):
    """Close every bracket [lo_i, hi_i] onto a sign change of a condition.

    ``fn(t, rows)`` returns the condition at abscissae ``t`` for the bracket
    indices ``rows``; ``flo`` and ``fhi`` are its values at the ends and
    must have opposite signs.  Each step is Chandrupatla's choice between
    inverse quadratic interpolation and bisection (Chandrupatla 1997, a
    Brent-Dekker variant), kept a tolerance away from the bracket ends and
    projected onto the ITP interval around the midpoint (Oliveira &
    Takahashi 2020), so no row takes more than four steps beyond bisection
    to close its bracket to a few ulps; at a jump the brackets close onto
    the discontinuity.  A row stops at that tolerance, at a value within
    ``ftol`` of zero (the caller's rounding floor of the condition, scalar
    or per row), at a non-finite value or after ``iters`` steps, and only
    the rows still active are evaluated.  Returns the final brackets
    (a, b), a <= b; a row stopped at a zero has a == b.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    tol = bracket_tol(a, b)
    ftol = np.broadcast_to(np.asarray(ftol, dtype=float), a.shape)
    budget = np.ceil(np.log2(np.maximum((b - a) / (2.0 * tol), 1.0))) + 4.0   # ITP slack n0 = 4
    # per active row: the newest point x1, the bracket's other end x2, the
    # point x3 dropped last, and the fraction t of the next step from x1 to x2
    act = np.nonzero(b - a > 2.0 * tol)[0]
    x1, x2, x3 = a[act], b[act], b[act]
    f1 = np.asarray(flo, dtype=float)[act]
    f2 = f3 = np.asarray(fhi, dtype=float)[act]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f1 / (f1 - f2)                   # a secant step first
    for step in range(iters):
        if act.size == 0:
            break
        width = np.abs(x2 - x1)
        tl = tol[act] / width
        t = np.clip(np.nan_to_num(t, nan=0.5), tl, 1.0 - tl)
        mid = 0.5 * (x1 + x2)
        r = tol[act] * np.exp2(budget[act] - step) - 0.5 * width
        x = np.clip(x1 + t * (x2 - x1), mid - r, mid + r)
        y = fn(x, act)
        same = y * f1 > 0
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, y
        zero = np.abs(y) <= ftol[act]
        ok = np.isfinite(y)
        a[act[ok]] = np.where(zero, x1, np.minimum(x1, x2))[ok]
        b[act[ok]] = np.where(zero, x1, np.maximum(x1, x2))[ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (f1 / (f2 - f1) * f3 / (f2 - f3)
                   + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
        keep = ok & ~zero & (np.abs(x2 - x1) > 2.0 * tol[act])
        act, t = act[keep], t[keep]
        x1, x2, x3, f1, f2, f3 = x1[keep], x2[keep], x3[keep], f1[keep], f2[keep], f3[keep]
    return a, b


def bracket_tol(a, b):
    """``bracket_root``'s end tolerance on [a, b]: two ulps of the larger end."""
    return 2.0 * _EPS * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def logit_points(t):
    """Points (s, 1 - s) of the 2-d unit simplex with s = 1/(1 + e^-t).

    The second coordinate is 1/(1 + e^t), not 1 - s, so it keeps its
    relative precision and stays positive where 1 - s rounds to 0.
    """
    return np.stack([1.0 / (1.0 + np.exp(-t)), 1.0 / (1.0 + np.exp(t))], axis=-1)


@functools.cache
def simplex_grid(d, n):
    """Lattice points of the unit simplex at resolution n, pushed interior.

    Built once per (d, n) and shared by every caller, so the array is
    read-only.
    """
    pts = []
    for bars in combinations(range(n + d - 1), d - 1):   # stars and bars
        prev, comp = -1, []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(n + d - 1 - prev - 1)
        pts.append(comp)
    pts = np.maximum(np.array(pts, dtype=float) / n, 1e-14)
    pts /= pts.sum(axis=1, keepdims=True)
    pts.setflags(write=False)
    return pts


def aitken_limit(seq):
    """Limit estimate of ``seq`` by up to three Aitken steps.

    Each step maps n entries to n - 2; it stops early when fewer than three
    entries remain.  Entries whose second difference is negligible are
    carried over unchanged.
    """
    v = np.asarray(seq, dtype=float)
    for _ in range(3):
        if len(v) < 3:
            break
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        ok = np.abs(d2) > 1e-14 * (1.0 + np.abs(v[2:]))
        nxt = v[2:].copy()
        nxt[ok] = v[2:][ok] - (v[2:][ok] - v[1:-1][ok]) ** 2 / d2[ok]
        v = nxt
    return float(v[-1])


def linprog(*args, **kwargs):
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)
