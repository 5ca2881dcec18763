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

Each boundary (a polyline for PL antinorms, otherwise a quadrature on the
cells of the antinorm's one antisphere table ``f.arc``) works on batches:
``locate`` maps points to sector positions (NaN where a point has none) and
``point_at`` in-range positions to points.  Theta becomes a position by a
shift in sector mode and by one ``bracket_root`` over all rows in literal
mode.

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
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from ._search import bracket_root, brentq, logit_points
from .errors import DimensionMismatchError, ThetaRangeError
from .exprs import as_pl, as_point
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

class _PolylineBoundary:
    """Antisphere of a PL antinorm: vertex chain plus two closing rays.

    The chain is ordered by increasing abscissa (OY side first); the
    leading ray is vertical from the first vertex, the trailing ray
    horizontal from the last (both either on a coordinate axis or on the
    unbounded facet line).  Sector areas are exact: the contribution of a
    chord a -> b is the cross product a x b.
    """

    def __init__(self, pl):
        V = self.V = pl.body.vertices()
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
        """Sector position of each row of P on its nearest piece; NaN where
        that piece is farther than 1e-7 (relative)."""
        t = np.clip(np.einsum("ijk,jk->ij", P[:, None] - self._a, self._d) / self._L2,
                    0.0, self._end)
        res = np.linalg.norm(P[:, None] - (self._a + t[..., None] * self._d), axis=2)
        j = np.argmin(res, axis=1)
        rows = np.arange(len(P))
        pos = self._start[j] + t[rows, j] * self._rate[j]
        return np.where(res[rows, j] <= 1e-7 * (1.0 + np.linalg.norm(P, axis=1)), pos, np.nan)

    def range(self):
        lo = self.T[-1] - (math.inf if self.trail_rate > 1e-15 else 0.0)
        hi = self.T[0] + (math.inf if self.lead_rate > 1e-15 else 0.0)
        return lo, hi

    def point_at(self, q):
        """The point at each in-range position: on the leading ray above
        T[0], on the trailing ray below T[-1], else on the chord holding
        it.  A piece whose rate is at most 1e-15 is the point it starts at."""
        n = len(self.V)
        chord = np.clip(np.searchsorted(-self.T, -q, side="right") - 1, 0, n - 2)
        j = np.where(q >= self.T[0], n, np.where(q <= self.T[-1], n - 1, chord))
        rate = self._rate[j]
        t = np.divide(q - self._start[j], rate, out=np.zeros(len(q)), where=np.abs(rate) > 1e-15)
        return self._a[j] + np.clip(t, 0.0, self._end[j])[:, None] * self._d[j]


class _SmoothBoundary:
    """Antisphere of a smooth antinorm with interpolated sector areas, on the
    cells of ``f.arc``.

    A direction is tau = log(x_2/x_1) = -u for the logit u of ``f.arc``, so
    the cell edges are that table's nodes, read backward.  The sector
    position, twice the area swept by x/f(x), grows with tau at the rate
    x_1 x_2/f(x)^2 at the point x = ``logit_points(-tau)``.  Each cell
    keeps the antiderivative of the Legendre interpolant through the rate at
    its 16 Gauss-Legendre nodes, so ``locate`` calls no antinorm and
    ``point_at`` runs ``brentq`` on cell polynomials.  The cell areas are
    summed outward from the cell of the ``contact`` direction, whose left
    end is position 0, so positions near the contact keep their digits
    however large the area toward an axis grows.  Positions beyond the
    table's ends are out of range, which only truncates antinorms whose
    sector area diverges toward an axis.
    """

    def __init__(self, f, contact):
        self.f = f
        self.taus = -f.arc.u[::-1]
        self.mid = 0.5 * (self.taus[1:] + self.taus[:-1])
        self.half = 0.5 * np.diff(self.taus)
        nodes = self.mid[:, None] + self.half[:, None] * _GL_X[None, :]
        X = logit_points(-nodes.ravel())
        vals = (X[:, 0] * X[:, 1] / np.maximum(f._values(X), 1e-300) ** 2).reshape(nodes.shape)
        # the interpolant's Legendre coefficients, by the nodes' discrete orthogonality
        coef = vals @ (legvander(_GL_X, 15) * _GL_W[:, None] * (np.arange(16) + 0.5))
        self.anti = legint(coef, lbnd=-1, axis=1) * self.half[:, None]
        area = self.anti.sum(axis=1)   # P_k(1) = 1
        c = int(self._cells(contact[None])[0][0])
        self.cum = np.concatenate([-np.cumsum(area[:c][::-1])[::-1], [0.0], np.cumsum(area[c:])])

    def _pos(self, i, tau):
        """Position at tau in cell i, for a cell and tau or one of each per row."""
        x = (tau - self.mid[i]) / self.half[i]
        return self.cum[i] + legval(x, self.anti[i].T, tensor=False)

    def _cells(self, P):
        """Cell and tau (clipped to the table) of each row's direction; tau
        is NaN outside the open orthant."""
        inside = (P[:, 0] > 0) & (P[:, 1] > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(inside, np.clip(np.log(P[:, 1] / P[:, 0]), self.taus[0], self.taus[-1]),
                           np.nan)
        return np.clip(np.searchsorted(self.taus, tau) - 1, 0, len(self.taus) - 2), tau

    def corners(self):
        return np.empty((0, 2))

    def locate(self, P):
        """Sector position of each row of P; NaN outside the open orthant."""
        return self._pos(*self._cells(P))

    def range(self):
        return float(self.cum[0]), float(self.cum[-1])

    def point_at(self, q):
        """The point at each in-range position: the root of its cell's
        position polynomial, then one antinorm call for all rows."""
        tau = np.empty(len(q))
        for r, i in enumerate(np.clip(np.searchsorted(self.cum, q) - 1, 0, len(self.taus) - 2)):
            lo, hi = self.taus[i], self.taus[i + 1]
            glo, ghi = self._pos(i, lo) - q[r], self._pos(i, hi) - q[r]
            if glo > 0 or ghi < 0:  # numerical slack at bin edges
                tau[r] = lo if abs(glo) < abs(ghi) else hi
            else:
                tau[r] = brentq(lambda t: self._pos(i, t) - q[r], lo, hi, xtol=1e-14)
        X = logit_points(-tau)
        return X / self.f._values(X)[:, None]


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
    _boundary: object = field(init=False, repr=False)
    _origin_pos: float = field(init=False, repr=False)

    @classmethod
    def build(cls, f, mode="sector"):
        if f.dim != 2:
            raise DimensionMismatchError("concave trigonometry is 2-dimensional")
        if mode not in ("sector", "literal"):
            raise ValueError("mode must be 'sector' or 'literal'")
        pl = as_pl(f)
        contact = as_point(closest_antisphere_point(f if pl is None else pl)[0], 2)
        ctx = cls(f, contact, math.atan2(contact[1], contact[0]), mode)
        ctx._boundary = _PolylineBoundary(pl) if pl is not None else _SmoothBoundary(f, contact)
        ctx._origin_pos = float(ctx._boundary.locate(contact[None])[0])
        if math.isnan(ctx._origin_pos):
            raise ThetaRangeError("the contact point direction leaves the open orthant")
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
        th = self._theta(P[None])[0]
        if math.isnan(th):
            raise ThetaRangeError(f"point {P.tolist()} has no place on the antisphere")
        return th

    def _theta(self, P):
        """Theta of each row of P, NaN where the boundary cannot place it."""
        th = self._boundary.locate(P) - self._origin_pos
        return th if self.mode == "sector" else self._literal(P, th)

    def _literal(self, P, th):
        """Literal theta of the points P at sector theta th: xi * eta - th."""
        xi_eta = self.frame_coords(P)
        return xi_eta[:, 0] * xi_eta[:, 1] - th

    def _literal_at(self, pos):
        return self._literal(self._boundary.point_at(pos), pos - self._origin_pos)

    def theta_range(self):
        """Theta at the boundary's ends; a literal infinite end is taken where
        ``_literal_positions`` caps it, 1e6 from the contact."""
        lo, hi = self._boundary.range()
        o = self._origin_pos
        th = np.array([lo, hi]) - o
        if self.mode == "literal":
            th = self._literal_at(np.array([max(lo, o - 1e6), min(hi, o + 1e6)]))
        return float(th.min()), float(th.max())

    def _literal_positions(self, theta):
        """Sector position of each literal theta, NaN where there is none.

        Literal theta rises with the position and is 0 at the contact
        (where xi * eta rounds to about 1e-16), so the condition is -theta
        there exactly, and one ``bracket_root`` closes every row from the
        contact to the range end on the row's side, at most 1e6 away, in at
        most 64 steps.  It searches s = asinh(position - origin): the
        bracket then closes to a few ulps of s, not of the far end.
        """
        o = self._origin_pos
        lo, hi = self._boundary.range()
        end = np.where(theta >= 0, min(hi, o + 1e6), max(lo, o - 1e6))
        g_end = self._literal_at(end) - theta
        neg = theta < 0
        root = np.where(neg, -g_end, g_end) >= 0
        s_end = np.where(theta == 0, 0.0, np.where(root, np.arcsinh(end - o), np.nan))
        a, b = bracket_root(lambda s, rows: self._literal_at(o + np.sinh(s)) - theta[rows],
                            np.where(neg, s_end, 0.0), np.where(neg, 0.0, s_end),
                            np.where(neg, g_end, -theta), np.where(neg, -theta, g_end), 64)
        return o + np.sinh(0.5 * (a + b))

    def point_at(self, theta):
        """P_theta; for an array of theta one row each, NaN where a single
        theta would raise ``ThetaRangeError``.  All rows become positions
        at once and one boundary call maps those in range to points."""
        q = np.atleast_1d(np.asarray(theta, dtype=float))
        pos = q + self._origin_pos if self.mode == "sector" else self._literal_positions(q)
        lo, hi = self._boundary.range()
        ok = np.isfinite(pos) & (lo - 1e-12 <= pos) & (pos <= hi + 1e-12)
        if np.ndim(theta) == 0 and not ok[0]:
            raise ThetaRangeError(f"theta={theta} outside the {self.mode} range")
        P = np.full((len(q), 2), np.nan)
        P[ok] = self._boundary.point_at(pos[ok])
        return P[0] if np.ndim(theta) == 0 else P

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
    V = P @ pl.functionals.T
    m = V.min(axis=1, keepdims=True)
    active = V <= m + 1e-9 * (1.0 + np.abs(m))   # within 1e-9 (relative) of the minimum
    one = active.sum(axis=1) == 1
    return np.where(one[:, None], pl.functionals[np.argmax(active, axis=1)], np.nan)


def identity_check(ctx, thetas=None, ctx_dual=None, n_samples=200):
    """Residual of  cosh_G t cosh_G* t* + sinh_G t sinh_G* t* = 1.

    t* is the parameter of the pole q of the support line at P_t on the
    dual antisphere; for a self-dual context the same context serves as its
    own dual.  Both frames are one rotation, so the residual is
    |<P_t, Q_t*> - 1| in plain coordinates.  Points within 1e-4 of a polygon
    corner have a set-valued support line and are skipped and counted
    separately.  One ``point_at`` call inverts all thetas and one more all
    t*.  ``residuals`` holds each theta's: NaN if skipped, inf (checked) if
    q has no t*, or one whose point is not q within 1e-9 (relative): literal
    theta is 0 all along a dual piece on the tangent at the contact
    (A_0 -> A_{-1} when autopolar).
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
    gap = np.linalg.norm(P[:, None] - corners, axis=2).min(axis=1, initial=np.inf)
    Q = np.where((gap < 1e-4)[:, None], np.nan, _poles(ctx, P))
    res = np.where(np.isnan(Q[:, 0]), np.nan, np.inf)   # skipped, or inf until t* is found
    th_star = np.full(len(P), np.nan)
    inside = np.nonzero(np.all(np.isfinite(Q) & (Q >= 0), axis=1))[0]
    on = inside[np.abs(ctx_dual.f._values(Q[inside]) - 1.0) <= 1e-6]
    th_star[on] = ctx_dual._theta(Q[on])
    found = ~np.isnan(th_star)
    Q_star = ctx_dual.point_at(th_star[found])
    off = (np.linalg.norm(Q_star - Q[found], axis=1)
           > 1e-9 * (1.0 + np.linalg.norm(Q[found], axis=1)))
    # not in frame coordinates, where cosh t cosh t* cancels against sinh t sinh t*
    r = np.abs(np.einsum("ij,ij->i", P[found], Q_star) - 1.0)
    res[found] = np.where(np.isnan(r) | off, np.inf, r)
    checked = ~np.isnan(res)
    return IdentityReport(float(np.max(res[checked], initial=0.0)), int(checked.sum()),
                          int(len(P) - checked.sum()), ctx.mode, res)
