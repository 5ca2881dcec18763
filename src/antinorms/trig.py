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
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

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
        self.V = ConicPolytope.from_halfspaces(pl.functionals).vertices()
        m = len(self.V)
        # T[i] = sector position of vertex i, increasing toward OY (index 0)
        T = np.zeros(m)
        for i in range(m - 2, -1, -1):
            T[i] = T[i + 1] + _cross2(self.V[i + 1], self.V[i])
        self.T = T
        self.lead_rate = float(self.V[0][0])    # d(theta)/dt up the vertical ray
        self.trail_rate = float(self.V[-1][1])  # d(theta)/dt out the horizontal ray

    def corners(self):
        return self.V

    def locate(self, P):
        """(sector position, piece id) of a point on the boundary."""
        best = (math.inf, 0.0)
        m = len(self.V)
        for i in range(m - 1):
            a, b = self.V[i + 1], self.V[i]
            d = b - a
            L2 = float(d @ d)
            t = float(np.clip((P - a) @ d / L2, 0.0, 1.0)) if L2 > 0 else 0.0
            proj = a + t * d
            res = float(np.linalg.norm(P - proj))
            if res < best[0]:
                best = (res, self.T[i + 1] + t * _cross2(a, b))
        # trailing horizontal ray from V[-1]
        t = max(0.0, float(P[0] - self.V[-1][0]))
        proj = self.V[-1] + np.array([t, 0.0])
        res = float(np.linalg.norm(P - proj))
        if res < best[0]:
            best = (res, self.T[-1] - t * self.trail_rate)
        # leading vertical ray from V[0]
        t = max(0.0, float(P[1] - self.V[0][1]))
        proj = self.V[0] + np.array([0.0, t])
        res = float(np.linalg.norm(P - proj))
        if res < best[0]:
            best = (res, self.T[0] + t * self.lead_rate)
        if best[0] > 1e-7 * (1.0 + float(np.linalg.norm(P))):
            raise ThetaRangeError(f"point {P.tolist()} is not on the antisphere")
        return best[1]

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
    """Antisphere parametrized by polar angle with quadrature sector areas.

    Sector position is the cumulative integral of r(phi)^2 with
    r = 1/f(cos phi, sin phi), evaluated per interval with Gauss-Legendre
    nodes on a grid uniform in tau = log tan phi (log spacing resolves the
    approach to the axes).  The grid spans tau in [-L, L]; positions beyond
    the grid raise, which only truncates antinorms whose sector area
    diverges toward an axis.
    """

    L = 16.0
    N = 2001

    def __init__(self, f):
        self.f = f
        self.taus = np.linspace(-self.L, self.L, self.N)
        mid = 0.5 * (self.taus[1:] + self.taus[:-1])
        half = 0.5 * np.diff(self.taus)
        nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
        weights = half[:, None] * _GL_W[None, :]
        vals = self._integrand(nodes.ravel()).reshape(nodes.shape)
        self.cum = np.concatenate([[0.0], np.cumsum((vals * weights).sum(axis=1))])

    def _integrand(self, tau):
        phi = np.arctan(np.exp(tau))
        U = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        fv = self.f._values(np.atleast_2d(U))
        r2 = 1.0 / np.maximum(fv, 1e-300) ** 2
        return r2 / (2.0 * np.cosh(tau))

    def _gl(self, a, b):
        if a == b:
            return 0.0
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return float(np.sum(self._integrand(mid + half * _GL_X) * half * _GL_W))

    def _pos_of_tau(self, tau):
        tau = float(np.clip(tau, -self.L, self.L))
        i = min(int(np.searchsorted(self.taus, tau)) - 1, self.N - 2)
        i = max(i, 0)
        return self.cum[i] + self._gl(self.taus[i], tau)

    def corners(self):
        return np.empty((0, 2))

    def locate(self, P):
        phi = math.atan2(P[1], P[0])
        if not (0.0 < phi < math.pi / 2):
            raise ThetaRangeError("point direction leaves the open orthant")
        return self._pos_of_tau(math.log(math.tan(phi)))

    def range(self):
        return float(self.cum[0] - 0.0), float(self.cum[-1])

    def point_at(self, pos):
        if not (self.cum[0] - 1e-12 <= pos <= self.cum[-1] + 1e-12):
            raise ThetaRangeError(f"sector position {pos} outside the tabulated range")
        i = min(int(np.searchsorted(self.cum, pos)) - 1, self.N - 2)
        i = max(i, 0)

        def g(tau):
            return self.cum[i] + self._gl(self.taus[i], tau) - pos

        lo, hi = self.taus[i], self.taus[i + 1]
        glo, ghi = g(lo), g(hi)
        if glo > 0 or ghi < 0:  # numerical slack at bin edges
            tau = lo if abs(glo) < abs(ghi) else hi
        else:
            tau = brentq(g, lo, hi, xtol=1e-14)
        phi = math.atan(math.exp(tau))
        u = np.array([math.cos(phi), math.sin(phi)])
        return u / self.f.value(u)


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
        boundary = _PolylineBoundary(pl) if pl is not None else _SmoothBoundary(f)
        ctx = cls(f, contact, math.atan2(contact[1], contact[0]), mode, boundary)
        ctx._origin_pos = boundary.locate(contact)
        return ctx

    def frame_coords(self, P):
        c, s = math.cos(self.frame_angle), math.sin(self.frame_angle)
        return np.array([c * P[0] + s * P[1], -s * P[0] + c * P[1]])

    def _sector_theta(self, P):
        return self._boundary.locate(P) - self._origin_pos

    def theta_of_point(self, P, tol=1e-9):
        P = as_point(P, 2)
        fp = self.f.value(P)
        if abs(fp - 1.0) > tol:
            raise ThetaRangeError(f"f(P) = {fp!r}; point is not on the antisphere")
        th = self._sector_theta(P)
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
        if self.mode == "sector":
            return self._boundary.point_at(theta + self._origin_pos)
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


def _pole_at(ctx, P):
    """Pole of the support line at P: the active functional for PL
    antinorms, grad f(P) otherwise (Euler: <grad f, P> = f(P) = 1)."""
    pl = as_pl(ctx.f)
    if pl is not None:
        active = pl.active_functionals(P)
        if len(active) != 1:
            return None  # corner
        return active[0]
    return ctx.f.grad(P)


def identity_check(ctx, thetas=None, ctx_dual=None, n_samples=200):
    """Residual of  cosh_G t cosh_G* t* + sinh_G t sinh_G* t* = 1.

    t* is the parameter of the pole q of the support line at P_t on the
    dual antisphere; for a self-dual context the same context serves as its
    own dual.  Points within 1e-4 of a polygon corner have a set-valued
    support line and are skipped and counted separately.
    """
    if ctx_dual is None:
        ctx_dual = ctx
    if thetas is None:
        lo, hi = ctx.theta_range()
        lo, hi = max(lo, -4.0), min(hi, 4.0)
        pad = 0.02 * (hi - lo)
        thetas = np.linspace(lo + pad, hi - pad, n_samples)
    max_res = 0.0
    skips = 0
    checked = 0
    corners = ctx.corners()
    for th in thetas:
        P = ctx.point_at(float(th))
        if len(corners) and float(np.min(np.linalg.norm(corners - P, axis=1))) < 1e-4:
            skips += 1
            continue
        q = _pole_at(ctx, P)
        if q is None:
            skips += 1
            continue
        th_star = ctx_dual.theta_of_point(q, tol=1e-6)
        cs = ctx.frame_coords(P)   # (cosh, sinh) of th, P being P_th
        cs_star = ctx_dual.cosh_sinh(th_star)
        res = float(abs(cs[0] * cs_star[0] + cs[1] * cs_star[1] - 1.0))
        max_res = max(max_res, res)
        checked += 1
    return IdentityReport(max_res, checked, skips, ctx.mode)
