"""Concave (hyperbolic) trigonometry of 2-d antinorms.

Let P_0 be the antisphere point closest to the origin and rotate the plane
so the ray OP_0 becomes the first axis.  Walking along the antisphere
(complemented by axis rays where it meets the axes), the parameter theta of
a point P is twice an oriented area between the line OP_0 and P; the frame
abscissa and ordinate of P_theta define cosh_G and sinh_G.  Two area
conventions are implemented:

* ``sector``  -- twice the area swept by the radius from P_0 to P (the
  curvilinear sector O-P_0-arc-P).  On the hyperbola 2xy = 1 this yields
  the classical functions: P_theta = (cosh theta, sinh theta) in the frame.
* ``literal`` -- twice the area of the region bounded by the line OP_0,
  the arc, and the perpendicular dropped from P onto that line.  On the
  same hyperbola this gives cosh(t) sinh(t) - t, so it does not reproduce
  the classical functions; both conventions are kept because the two
  descriptions disagree, and sector is the default.  The conventions are
  linked pointwise by  theta_literal = xi * eta - theta_sector  in frame
  coordinates.

Orientation: theta grows toward the OY side of the contact ray, which
makes sinh_G of the hyperbola agree in sign with the classical sinh.

The duality identity  cosh_G(t) cosh_G*(t*) + sinh_G(t) sinh_G*(t*) = 1
pairs P_theta with the pole q of its support line (t* is the parameter of
q on the dual antisphere); since both frames are rotations by the same
angle, the identity is exactly <P_theta, q> = 1, i.e. tangency.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from ._search import brentq
from .errors import DimensionMismatchError, ThetaRangeError
from .exprs import PLAntinorm, as_pl, as_point
from .geometry import ConicPolytope
from .selfdual import closest_antisphere_point

__all__ = [
    "TrigContext",
    "theta_of_point",
    "cosh_sinh",
    "identity_check",
    "IdentityReport",
]

_GL_X, _GL_W = leggauss(16)   # nodes and weights of every sector-area quadrature


# ---------------------------------------------------------------------------
# boundary parametrizations
# ---------------------------------------------------------------------------

def _cross2(a, b):
    """2-D cross product a x b = a_0 b_1 - a_1 b_0."""
    return float(a[0] * b[1] - a[1] * b[0])


class _PolylineBoundary:
    """Antisphere of a PL antinorm: vertex chain plus two closing rays.

    The chain is ordered by increasing abscissa (OY side first); the
    leading ray is vertical from the first vertex, the trailing ray
    horizontal from the last (both either on a coordinate axis or on the
    unbounded facet line).  Sector areas are exact: the contribution of a
    chord a -> b is the cross product a x b.
    """

    def __init__(self, pl):
        V = self.V = ConicPolytope.from_halfspaces(pl.functionals).vertices()
        chord = V[1:, 0] * V[:-1, 1] - V[1:, 1] * V[:-1, 0]   # V[i + 1] x V[i]
        # T[i] = sector position of vertex i, increasing toward OY (index 0)
        self.T = np.append(np.cumsum(chord[::-1])[::-1], 0.0)
        self.lead_rate = float(V[0][0])    # d(theta)/dt up the vertical ray
        self.trail_rate = float(V[-1][1])  # d(theta)/dt out the horizontal ray
        # pieces: the chords V[i + 1] -> V[i], the trailing and the leading
        # ray; start, direction, end parameter, position at start and its rate
        self._a = np.vstack([V[1:], V[-1:], V[:1]])
        self._d = np.vstack([V[:-1] - V[1:], [[1.0, 0.0], [0.0, 1.0]]])
        L2 = np.einsum("ij,ij->i", self._d, self._d)
        self._L2 = np.where(L2 > 0, L2, 1.0)   # a zero-length chord projects to t = 0
        self._end = np.r_[np.ones(len(chord)), math.inf, math.inf]
        self._start = np.r_[self.T[1:], self.T[-1], self.T[0]]
        self._rate = np.r_[chord, -self.trail_rate, self.lead_rate]

    def corners(self):
        return self.V

    def locate(self, P):
        """Sector position of a point on the boundary, on its nearest piece."""
        t = np.clip(np.einsum("ij,ij->i", P - self._a, self._d) / self._L2, 0.0, self._end)
        res = np.linalg.norm(P - (self._a + t[:, None] * self._d), axis=1)
        j = int(np.argmin(res))
        if res[j] > 1e-7 * (1.0 + float(np.linalg.norm(P))):
            raise ThetaRangeError(f"point {P.tolist()} is not on the antisphere")
        return float(self._start[j] + t[j] * self._rate[j])

    def range(self):
        lo = self.T[-1] - (math.inf if self.trail_rate > 1e-15 else 0.0)
        hi = self.T[0] + (math.inf if self.lead_rate > 1e-15 else 0.0)
        return lo, hi

    def point_at(self, pos):
        lo, hi = self.range()
        if not (lo - 1e-12 <= pos <= hi + 1e-12):
            raise ThetaRangeError(f"sector position {pos} outside [{lo}, {hi}]")
        if pos >= self.T[0]:
            if self.lead_rate <= 1e-15:
                return self.V[0].copy()
            return self.V[0] + np.array([0.0, (pos - self.T[0]) / self.lead_rate])
        if pos <= self.T[-1]:
            if self.trail_rate <= 1e-15:
                return self.V[-1].copy()
            return self.V[-1] + np.array([(self.T[-1] - pos) / self.trail_rate, 0.0])
        i = int(np.searchsorted(-self.T, -pos, side="right")) - 1
        i = min(max(i, 0), len(self.V) - 2)
        a, b = self.V[i + 1], self.V[i]
        span = _cross2(a, b)
        t = (pos - self.T[i + 1]) / span if span != 0 else 0.0
        return a + np.clip(t, 0.0, 1.0) * (b - a)


class _SmoothBoundary:
    """Antisphere parametrized by polar angle with interpolated sector areas.

    Sector position is the cumulative integral of r(phi)^2, r = 1/f(cos phi,
    sin phi), on a grid uniform in tau = log tan phi (log spacing resolves
    the approach to the axes).  Each cell keeps the antiderivative of the
    Legendre interpolant through its 16 Gauss-Legendre samples, so ``locate``
    calls no antinorm and ``point_at`` runs ``brentq`` on cell polynomials.
    The cell areas are summed outward from the cell of the ``contact``
    direction, whose left end is position 0, so positions near the contact
    keep their digits however large the area toward an axis grows.
    The grid spans tau in [-L, L]; positions beyond the grid raise, which
    only truncates antinorms whose sector area diverges toward an axis.
    """

    L = 16.0
    N = 2001

    def __init__(self, f, contact):
        self.f = f
        self.taus = np.linspace(-self.L, self.L, self.N)
        self.mid = 0.5 * (self.taus[1:] + self.taus[:-1])
        self.half = 0.5 * np.diff(self.taus)
        nodes = self.mid[:, None] + self.half[:, None] * _GL_X[None, :]
        vals = self._integrand(nodes.ravel()).reshape(nodes.shape)
        # the interpolant's Legendre coefficients, by the nodes' discrete orthogonality
        coef = vals @ (legvander(_GL_X, 15) * _GL_W[:, None] * (np.arange(16) + 0.5))
        self.anti = legint(coef, lbnd=-1, axis=1) * self.half[:, None]
        area = self.anti.sum(axis=1)   # P_k(1) = 1
        c = self._cell(self._tau(contact))
        self.cum = np.concatenate([-np.cumsum(area[:c][::-1])[::-1], [0.0], np.cumsum(area[c:])])

    def _integrand(self, tau):
        phi = np.arctan(np.exp(tau))
        U = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        fv = self.f._values(np.atleast_2d(U))
        r2 = 1.0 / np.maximum(fv, 1e-300) ** 2
        return r2 / (2.0 * np.cosh(tau))

    def _pos(self, i, tau):
        return self.cum[i] + legval((tau - self.mid[i]) / self.half[i], self.anti[i])

    def corners(self):
        return np.empty((0, 2))

    def locate(self, P):
        tau = self._tau(P)
        return self._pos(self._cell(tau), tau)

    def _tau(self, P):
        phi = math.atan2(P[1], P[0])
        if not (0.0 < phi < math.pi / 2):
            raise ThetaRangeError("point direction leaves the open orthant")
        return float(np.clip(math.log(math.tan(phi)), -self.L, self.L))

    def _cell(self, tau):
        return max(min(int(np.searchsorted(self.taus, tau)) - 1, self.N - 2), 0)

    def range(self):
        return float(self.cum[0] - 0.0), float(self.cum[-1])

    def point_at(self, pos):
        """The point at each position; NaN rows outside the table, where a
        single position raises."""
        q = np.atleast_1d(np.asarray(pos, dtype=float))
        ok = (self.cum[0] - 1e-12 <= q) & (q <= self.cum[-1] + 1e-12)
        if np.ndim(pos) == 0 and not ok[0]:
            raise ThetaRangeError(f"sector position {pos} outside the tabulated range")
        tau = np.full(q.shape, np.nan)
        for r in np.nonzero(ok)[0]:
            i = max(min(int(np.searchsorted(self.cum, q[r])) - 1, self.N - 2), 0)
            lo, hi = self.taus[i], self.taus[i + 1]
            glo, ghi = self._pos(i, lo) - q[r], self._pos(i, hi) - q[r]
            if glo > 0 or ghi < 0:  # numerical slack at bin edges
                tau[r] = lo if abs(glo) < abs(ghi) else hi
            else:
                tau[r] = brentq(lambda t: self._pos(i, t) - q[r], lo, hi, xtol=1e-14)
        phi = np.arctan(np.exp(tau[ok]))
        U = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        P = np.full((len(q), 2), np.nan)
        P[ok] = U / self.f._values(U)[:, None]
        return P[0] if np.ndim(pos) == 0 else P


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

@dataclass
class TrigContext:
    """Frame and boundary data for the generalized hyperbolic functions."""

    f: object
    contact: np.ndarray
    frame_angle: float
    mode: str = "sector"
    _boundary: object = field(default=None, repr=False)
    _origin_pos: float = field(default=0.0, repr=False)

    @classmethod
    def build(cls, f, mode="sector"):
        if f.dim != 2:
            raise DimensionMismatchError("concave trigonometry is 2-dimensional")
        if mode not in ("sector", "literal"):
            raise ValueError("mode must be 'sector' or 'literal'")
        contact = as_point(closest_antisphere_point(f)[0], 2)
        pl = as_pl(f)
        boundary = _PolylineBoundary(pl) if pl is not None else _SmoothBoundary(f, contact)
        ctx = cls(f, contact, math.atan2(contact[1], contact[0]), mode, boundary)
        ctx._origin_pos = boundary.locate(contact)
        return ctx

    def frame_coords(self, P):
        """Frame coordinates of a point, or of each row of a batch."""
        P = np.asarray(P)
        c, s = math.cos(self.frame_angle), math.sin(self.frame_angle)
        return np.stack([c * P[..., 0] + s * P[..., 1], -s * P[..., 0] + c * P[..., 1]], axis=-1)

    def theta_of_point(self, P, tol=1e-9):
        P = as_point(P, 2)
        fp = self.f.value(P)
        if abs(fp - 1.0) > tol:
            raise ThetaRangeError(f"f(P) = {fp!r}; point is not on the antisphere")
        return self._theta(P)

    def _theta(self, P):
        th = self._boundary.locate(P) - self._origin_pos
        if self.mode == "sector":
            return th
        xi, eta = self.frame_coords(P)
        return xi * eta - th

    def theta_range(self):
        lo, hi = self._boundary.range()
        lo, hi = lo - self._origin_pos, hi - self._origin_pos
        if self.mode == "sector":
            return lo, hi
        out = []
        for b in (lo, hi):
            if math.isinf(b):
                out.append(b)
            else:
                P = self._boundary.point_at(b + self._origin_pos)
                xi, eta = self.frame_coords(P)
                out.append(xi * eta - b)
        return min(out), max(out)

    def point_at(self, theta):
        """P_theta; for an array of theta one row each, NaN where a single
        theta would raise ``ThetaRangeError``.  Sector mode on a smooth
        antisphere inverts all rows in one pass."""
        batched = self.mode == "sector" and isinstance(self._boundary, _SmoothBoundary)
        if np.ndim(theta) == 0 or batched:
            return self._point_at(theta)
        P = np.full((len(theta), 2), np.nan)
        for r, t in enumerate(theta):
            with suppress(ThetaRangeError):
                P[r] = self._point_at(float(t))
        return P

    def _point_at(self, theta):
        if self.mode == "sector":
            return self._boundary.point_at(np.asarray(theta, dtype=float) + self._origin_pos)
        lo, hi = self._boundary.range()
        lo = max(lo, self._origin_pos - 1e6)
        hi = min(hi, self._origin_pos + 1e6)

        def g(pos):
            P = self._boundary.point_at(pos)
            xi, eta = self.frame_coords(P)
            return xi * eta - (pos - self._origin_pos) - theta

        a, b = self._origin_pos, self._origin_pos
        step = 0.5
        if theta >= 0:
            while g(min(b + step, hi)) < 0 and b < hi:
                b = min(b + step, hi)
                step *= 2
            b = min(b + step, hi)
        else:
            while g(max(a - step, lo)) > 0 and a > lo:
                a = max(a - step, lo)
                step *= 2
            a = max(a - step, lo)
        ga, gb = g(a), g(b)
        if ga * gb > 0:
            raise ThetaRangeError(f"theta={theta} outside the achievable literal range")
        pos = brentq(g, a, b, xtol=1e-13)
        return self._boundary.point_at(pos)

    def cosh_sinh(self, theta):
        """Frame abscissa and ordinate of P_theta, by monotone inversion."""
        P = self.point_at(theta)
        xi, eta = self.frame_coords(P)
        return float(xi), float(eta)

    def corners(self):
        return self._boundary.corners()


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def theta_of_point(ctx, P):
    """Area parameter of an antisphere point (sign positive toward OY)."""
    return ctx.theta_of_point(P)


def cosh_sinh(ctx, theta):
    """(cosh_G theta, sinh_G theta): frame coordinates of P_theta."""
    return ctx.cosh_sinh(theta)


@dataclass(frozen=True)
class IdentityReport:
    max_residual: float
    checked: int
    corner_skips: int
    mode: str
    residuals: np.ndarray


def _poles(ctx, P):
    """Pole of the support line at each row of P: the active functional for
    PL antinorms (NaN at a corner), grad f otherwise (<grad f, P> = f = 1)."""
    pl = as_pl(ctx.f)
    if pl is None:
        return ctx.f._grads(P)
    act = [pl.active_functionals(p) for p in P]
    return np.array([a[0] if len(a) == 1 else [np.nan, np.nan] for a in act]).reshape(-1, 2)


def identity_check(ctx, thetas=None, ctx_dual=None, n_samples=200):
    """Residual of  cosh_G t cosh_G* t* + sinh_G t sinh_G* t* = 1.

    t* is the parameter of the pole q of the support line at P_t on the
    dual antisphere; for a self-dual context the same context serves as its
    own dual.  Points within 1e-4 of a polygon corner have a set-valued
    support line and are skipped and counted separately.  One ``point_at``
    call inverts all thetas and one more all t*.  ``residuals`` holds each
    theta's: NaN if skipped, inf (checked) if q has no t* on the dual.
    """
    if ctx_dual is None:
        ctx_dual = ctx
    if thetas is None:
        lo, hi = ctx.theta_range()
        lo, hi = max(lo, -4.0), min(hi, 4.0)
        pad = 0.02 * (hi - lo)
        thetas = np.linspace(lo + pad, hi - pad, n_samples)
    P = ctx.point_at(np.asarray(thetas, dtype=float))
    if np.isnan(P).any():
        raise ThetaRangeError("a theta lies outside the context's range")
    corners = ctx.corners()
    near = [len(corners) > 0 and np.min(np.linalg.norm(corners - p, axis=1)) < 1e-4 for p in P]
    Q = np.where(np.reshape(near, (-1, 1)), np.nan, _poles(ctx, P))
    res = np.where(np.isnan(Q[:, 0]), np.nan, np.inf)   # skipped, or inf until t* is found
    th_star = np.full(len(P), np.nan)
    inside = np.nonzero(np.all(np.isfinite(Q) & (Q >= 0), axis=1))[0]
    for k, v in zip(inside, ctx_dual.f._values(Q[inside])):
        if abs(v - 1.0) <= 1e-6:
            with suppress(ThetaRangeError):
                th_star[k] = ctx_dual._theta(Q[k])
    found = ~np.isnan(th_star)
    cs_star = ctx_dual.frame_coords(ctx_dual.point_at(th_star[found]))
    r = np.abs(np.sum(ctx.frame_coords(P[found]) * cs_star, axis=1) - 1.0)
    res[found] = np.where(np.isnan(r), np.inf, r)
    checked = ~np.isnan(res)
    return IdentityReport(float(np.max(res[checked], initial=0.0)), int(checked.sum()),
                          int(len(P) - checked.sum()), ctx.mode, res)
