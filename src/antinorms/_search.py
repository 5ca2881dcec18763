"""One-dimensional search primitives shared by the numeric layers.

Each primitive has its only copy here; the module imports nothing from the
package.  Callers:

* ``golden_section``: ``duality._dual2_batch``, ``exprs.ConeSplitAntinorm``,
  ``selfdual.closest_antisphere_point``, ``dynamics.lsr_lower_certificate``.
* ``logit_points``: ``duality._dual2_batch``, ``selfdual._probe_grid``,
  ``dynamics.lsr_lower_certificate``, ``dynamics.transpose_extremal_check``
  and CLI ``dual``.
* ``simplex_grid``: ``duality._dual_nd``, ``selfdual._probe_grid``,
  ``dynamics.lsr_lower_certificate``.
* ``aitken_limit``: ``exprs.continuous_extension_eval``,
  ``dynamics.invariant_body_iterate``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo, hi, iters):
    """Minimize ``fn`` on every bracket [lo_i, hi_i] at once.

    ``fn`` maps an array of abscissae, one per bracket, to the objective
    values there.  Each step keeps the interior point with the smaller
    value and evaluates ``fn`` once.  Returns the final brackets and the
    smallest value found in each.
    """
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    for _ in range(iters):
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c_new = np.where(left, hi - _INVPHI * (hi - lo), d)
        d_new = np.where(left, c, lo + _INVPHI * (hi - lo))
        vals = fn(np.where(left, c_new, d_new))
        fc, fd = np.where(left, vals, fd), np.where(left, fc, vals)
        c, d = c_new, d_new
    return lo, hi, np.minimum(fc, fd)


def logit_points(t):
    """Points (s, 1 - s) of the 2-d unit simplex with s = 1/(1 + e^-t)."""
    s = 1.0 / (1.0 + np.exp(-t))
    return np.stack([s, 1.0 - s], axis=-1)


def simplex_grid(d, n):
    """Lattice points of the unit simplex at resolution n, pushed interior."""
    if d == 2:
        t = np.linspace(0.0, 1.0, n + 1)
        pts = np.stack([t, 1.0 - t], axis=1)
    else:
        pts = []
        for bars in combinations(range(n + d - 1), d - 1):
            prev, comp = -1, []
            for b in bars:
                comp.append(b - prev - 1)
                prev = b
            comp.append(n + d - 1 - prev - 1)
            pts.append(comp)
        pts = np.array(pts, dtype=float) / n
    pts = np.maximum(pts, 1e-14)
    return pts / pts.sum(axis=1, keepdims=True)


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
