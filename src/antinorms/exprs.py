"""Antinorm representations and evaluation on the nonnegative orthant.

An antinorm is a nonnegative, somewhere-positive, concave, positively
homogeneous functional on a convex cone; here the cone is always R^d_+.
This module provides the evaluable representations used everywhere else:

* ``PLAntinorm``       -- piecewise-linear  f(x) = min_j <a_j, x>,
* ``ProductAntinorm``  -- weighted geometric mean  sqrt(d) * prod x_i^{p_i},
* ``BuiltinAntinorm``  -- a small catalog of closed-form antinorms,
* ``SymmetrizedAntinorm`` -- L_p mean over coordinate permutations,
* ``NumericDualAntinorm`` -- the dual antinorm evaluated numerically,
* ``ConeSplitAntinorm``   -- a 2-D antinorm glued from a piece and the
  restricted dual of that piece on the complementary subcone.

plus the boundary-limit continuous extension, canonicalization of
piecewise-linear representations and a sampling check of the defining
axioms.  All values are immutable after construction and every operation
here is pure, so instances are safe to share between threads; the caches
(``body``, ``arc``, the form ``as_pl`` keeps) are built whole, then kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._search import aitken_limit, bracket_root, bracket_tol, linprog, logit_points
from .config import DEFAULT
from .errors import DegenerateBodyError, DimensionMismatchError, NegativeCoordinateError
from .geometry import ConicPolytope, _prune_2d, _prune_in_order

__all__ = [
    "Antinorm",
    "PLAntinorm",
    "ProductAntinorm",
    "BuiltinAntinorm",
    "SymmetrizedAntinorm",
    "NumericDualAntinorm",
    "ConeSplitAntinorm",
    "CallableAntinorm",
    "catalog",
    "as_point",
    "as_pl",
    "canonicalize_pl",
    "continuous_extension_eval",
    "symmetrize",
    "antinorm_axioms_check",
    "AxiomsReport",
]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def as_point(x, dim=None):
    """Validate ``x`` as a point of R^d_+ and return it as a float array.

    Raises ``NegativeCoordinateError`` for coordinates below zero and
    ``DimensionMismatchError`` when ``dim`` is given and does not match.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatchError(f"expected a 1-d point, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise NegativeCoordinateError("point has non-finite coordinates")
    if np.any(p < 0):
        raise NegativeCoordinateError(f"point {p.tolist()} leaves the nonnegative orthant")
    return p


def _as_batch(x, dim):
    """Return (points as (N, d) array, was_single_point flag)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        as_point(arr, dim)
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(f"expected shape (N, {dim}), got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise NegativeCoordinateError("batch contains points outside the orthant")
    return arr, False


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class Antinorm:
    """Base class of evaluable antinorms.

    Subclasses implement ``_values`` on an (N, d) batch.  ``value`` accepts a
    single point or a batch and enforces membership in R^d_+; the apex always
    evaluates to 0, which is forced by homogeneity.
    """

    dim: int

    def value(self, x):
        X, single = _as_batch(x, self.dim)
        v = np.asarray(self._values(X), dtype=float)
        return float(v[0]) if single else v

    __call__ = value

    def _values(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def grad(self, x):
        """A supergradient at ``x``: one row of ``_grads``."""
        return self._grads(as_point(x, self.dim)[None, :])[0]

    def _grads(self, X):
        """Supergradients at the rows of ``X``, one row each.

        Subclasses with an analytic gradient or an attaining point (Danskin)
        override this; the default takes central differences with step
        ``1e-7 * max(1, |x_i|)``, clipped to the orthant, so it is an
        estimate.
        """
        n, d = X.shape
        step = 1e-7 * np.maximum(1.0, np.abs(X))
        E = np.zeros((d, n, d))
        E[np.arange(d), :, np.arange(d)] = step.T
        shifted = np.concatenate([X[None] + E, X[None] - E]).reshape(-1, d)
        v = self._values(np.maximum(shifted, 0.0)).reshape(2, d, n)
        return ((v[0] - v[1]) / (2.0 * step.T)).T

    def _values_grads(self, X):
        """``_values`` and ``_grads`` together, for one search that yields both."""
        return self._values(X), self._grads(X)

    @functools.cached_property
    def arc(self):
        """The antisphere {f = 1} of a 2-d antinorm as one ``_Arc`` on
        ``_DUAL_U``, built on first use and kept: the 2-d dual, the contact
        search, the lower certificate, the symmetric probe and the plot."""
        if self.dim != 2:
            raise DimensionMismatchError("the antisphere table is 2-dimensional")
        return _Arc(self, _DUAL_U)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# piecewise linear
# ---------------------------------------------------------------------------

class PLAntinorm(Antinorm):
    """f(x) = min_j <a_j, x> with nonnegative nonzero rows a_j.

    The unit antiball {f >= 1} is the conic polyhedron cut out of R^d_+ by
    the half-spaces <a_j, x> >= 1; ``body`` is it as one write-once
    ``ConicPolytope`` of the canonical rows, whose vertex set the dual, the
    contact search, trigonometry and the lower certificate all share.
    """

    def __init__(self, functionals, dim=None):
        A = np.atleast_2d(np.asarray(functionals, dtype=float))
        if A.ndim != 2 or A.shape[0] < 1:
            raise DimensionMismatchError("need a nonempty list of functionals")
        if dim is not None and A.shape[1] != dim:
            raise DimensionMismatchError(f"functionals have dimension {A.shape[1]}, expected {dim}")
        if np.any(A < 0):
            raise NegativeCoordinateError("functionals must be nonnegative")
        if np.any(np.all(np.abs(A) < 1e-300, axis=1)):
            raise NegativeCoordinateError("zero functional is not allowed")
        self.functionals = A
        self.functionals.setflags(write=False)
        self.dim = A.shape[1]
        self._body = None

    @classmethod
    def irredundant(cls, rows):
        """The antinorm of ``rows`` that no convex combination of the others
        dominates (a pruned positive hull, a canonical form): its body is
        built on the rows as they are, with no canonicalization."""
        f = cls(rows)
        f._body = ConicPolytope.from_halfspaces(f.functionals)
        return f

    @property
    def body(self):
        if self._body is None:
            self._body = canonicalize_pl(self).body
        return self._body

    def _values(self, X):
        return np.min(X @ self.functionals.T, axis=1)

    def _grads(self, X):
        return self.functionals[np.argmin(X @ self.functionals.T, axis=1)]

    def __repr__(self):
        return f"PLAntinorm(dim={self.dim}, n={self.functionals.shape[0]})"


# ---------------------------------------------------------------------------
# weighted geometric mean
# ---------------------------------------------------------------------------

class ProductAntinorm(Antinorm):
    """f(x) = sqrt(d) * prod_i x_i^{p_i} with p_i >= 0 summing to one.

    Conventions at the boundary keep f continuous on R^d_+: x_i^0 := 1 even
    at x_i = 0, and f vanishes as soon as some x_i = 0 has weight p_i > 0.
    """

    def __init__(self, weights, scale=None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise DimensionMismatchError("weights must be a 1-d sequence")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        self.weights = w
        self.weights.setflags(write=False)
        self.dim = w.size
        self.scale = math.sqrt(self.dim) if scale is None else float(scale)

    @classmethod
    def selfdual(cls, weights):
        """Weighted geometric mean scaled to be exactly self-dual.

        The dual of c * prod x^{p_i} is (c * prod p_i^{p_i})^{-1} prod x^{p_i},
        so self-duality requires c = prod p_i^{-p_i/2} = exp(H(p)/2); this
        reduces to sqrt(d) exactly for uniform weights.
        """
        w = np.asarray(weights, dtype=float)
        pos = w > 0
        c = math.exp(-0.5 * float(np.sum(w[pos] * np.log(w[pos]))))
        return cls(w, scale=c)

    def _values(self, X):
        w = self.weights
        active = w > 0
        if not np.any(active):
            return np.full(X.shape[0], self.scale)
        Xa = X[:, active]
        wa = w[active]
        zero = np.any(Xa == 0, axis=1)
        out = np.zeros(X.shape[0])
        if np.any(~zero):
            # not a BLAS product, whose rounding depends on the batch size
            logs = np.einsum("ij,j->i", np.log(Xa[~zero]), wa)
            out[~zero] = self.scale * np.exp(logs)
        return out

    def _grads(self, X):
        pos = (self.weights > 0) & (X > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            G = self._values(X)[:, None] * self.weights / X
        return np.where(pos, G, 0.0)

    def __repr__(self):
        return f"ProductAntinorm(weights={self.weights.tolist()})"


# ---------------------------------------------------------------------------
# catalog of closed-form antinorms
# ---------------------------------------------------------------------------

def _v_sum(X, params):
    return X.sum(axis=1)


def _v_min(X, params):
    return X.min(axis=1)


def _v_sqrt2xy(X, params):
    return np.sqrt(2.0 * X[:, 0] * X[:, 1])


def _v_min_eps(X, params):
    eps = params["eps"]
    return X.min(axis=1) + eps * np.sqrt(X[:, 0] * X[:, 1])


# ufunc reductions called directly: nested duals evaluate these one point at a time
def _v_rootsum3(X, params):
    return np.square(np.add.reduce(np.sqrt(X), axis=1))


def _v_rootsum3_drop(X, params):
    interior = np.logical_and.reduce(X > 0, axis=1)
    return np.where(interior, _v_rootsum3(X, params), np.add.reduce(X, axis=1))


def _v_circle_arc(X, params):
    # antisphere is the near arc of the circle |x - (R, R)| = R; the value
    # solves |x/f - c| = R on the branch closest to the origin.  Its
    # discriminant <c, x>^2 - R^2 |x|^2 is 2 R^2 x1 x2, so the root is
    # (x1 + x2 + sqrt(2 x1 x2)) / R, written here without that cancellation.
    return (X.sum(axis=1) + np.sqrt(2.0 * X[:, 0] * X[:, 1])) / params["radius"]


def _g_sum(X, params):
    return np.ones_like(X)


def _g_min(X, params):
    G = np.zeros_like(X)
    G[np.arange(len(X)), np.argmin(X, axis=1)] = 1.0
    return G


def _g_sqrt2xy(X, params):
    return X[:, ::-1] / _v_sqrt2xy(X, params)[:, None]


def _g_min_eps(X, params):
    s = np.sqrt(X[:, 0] * X[:, 1])
    return _g_min(X, params) + params["eps"] * X[:, ::-1] / (2.0 * s[:, None])


def _g_rootsum3(X, params):
    r = np.sqrt(X)
    return r.sum(axis=1, keepdims=True) / r


def _g_circle_arc(X, params):
    r = np.maximum(np.sqrt(2.0 * X[:, 0] * X[:, 1]), 1e-300)
    return (1.0 + X[:, ::-1] / r[:, None]) / params["radius"]


_CATALOG = {
    # name: (dim or None for any, value fn, grad fn or None, default params)
    "sum": (None, _v_sum, _g_sum, {}),
    "min": (None, _v_min, _g_min, {}),
    "sqrt2xy": (2, _v_sqrt2xy, _g_sqrt2xy, {}),
    "min_eps": (2, _v_min_eps, _g_min_eps, {"eps": 0.5}),
    "rootsum3": (3, _v_rootsum3, _g_rootsum3, {}),
    "rootsum3_drop": (3, _v_rootsum3_drop, None, {}),
    "circle_arc": (2, _v_circle_arc, _g_circle_arc, {"radius": 1.0 + math.sqrt(2.0)}),
}


class BuiltinAntinorm(Antinorm):
    """Closed-form catalog antinorm addressed by name.

    ``rootsum3_drop`` is the discontinuous 3-D example: it equals
    (sqrt(x1)+sqrt(x2)+sqrt(x3))^2 on the interior but drops to x1+x2+x3 on
    the boundary; ``rootsum3`` is its continuous extension.
    """

    def __init__(self, name, dim=None, **params):
        if name not in _CATALOG:
            raise KeyError(f"unknown catalog antinorm {name!r}; have {sorted(_CATALOG)}")
        fixed_dim, vfn, gfn, defaults = _CATALOG[name]
        if fixed_dim is not None:
            if dim is not None and dim != fixed_dim:
                raise DimensionMismatchError(f"{name!r} is {fixed_dim}-dimensional")
            dim = fixed_dim
        elif dim is None:
            raise DimensionMismatchError(f"{name!r} needs an explicit dimension")
        self.name = name
        self.dim = int(dim)
        self.params = {**defaults, **params}
        self._vfn = vfn
        self._gfn = gfn

    def _values(self, X):
        return self._vfn(X, self.params)

    def _grads(self, X):
        if self._gfn is None:
            return super()._grads(X)
        return self._gfn(X, self.params)

    def __repr__(self):
        extra = f", {self.params}" if self.params else ""
        return f"BuiltinAntinorm({self.name!r}, dim={self.dim}{extra})"


def catalog(name, dim=None, **params):
    """Build a catalog antinorm: sum, min, sqrt2xy, min_eps, rootsum3,
    rootsum3_drop, circle_arc."""
    return BuiltinAntinorm(name, dim=dim, **params)


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

class SymmetrizedAntinorm(Antinorm):
    """L_p mean of f over all coordinate permutations, p in [-inf, 1].

    p = 1 is the arithmetic mean, p = 0 the geometric mean and p = -inf the
    minimum; the result is invariant under coordinate permutations and is
    again an antinorm (concavity of power means with p <= 1).
    """

    MAX_DIM = 8  # d! permutations are enumerated explicitly

    def __init__(self, inner, p):
        if p > 1:
            raise ValueError("symmetrization exponent must lie in [-inf, 1]")
        if inner.dim > self.MAX_DIM:
            raise DimensionMismatchError(f"symmetrization enumerates d! permutations; d <= {self.MAX_DIM}")
        self.inner = inner
        self.p = float(p)
        self.dim = inner.dim
        self._perms = list(itertools.permutations(range(self.dim)))

    def _values(self, X):
        vals = np.stack([self.inner._values(X[:, perm]) for perm in self._perms])
        p = self.p
        if p == -math.inf:
            return vals.min(axis=0)
        if p == 1.0:
            return vals.mean(axis=0)
        if p == 0.0:
            zero = np.any(vals <= 0, axis=0)
            out = np.zeros(X.shape[0])
            ok = ~zero
            if np.any(ok):
                out[ok] = np.exp(np.log(vals[:, ok]).mean(axis=0))
            return out
        # p < 1, p != 0: factor out the minimum for stability at tiny values
        m = vals.min(axis=0)
        out = np.zeros(X.shape[0])
        ok = m > 0
        if p > 0:
            ok = np.any(vals > 0, axis=0)
        if np.any(ok):
            base = np.where(m[ok] > 0, m[ok], vals[:, ok].max(axis=0))
            ratio = vals[:, ok] / base
            out[ok] = base * np.power(np.power(ratio, p).mean(axis=0), 1.0 / p)
        return out

    def __repr__(self):
        return f"SymmetrizedAntinorm({self.inner!r}, p={self.p})"


def symmetrize(f, p):
    """Return the permutation-symmetrized antinorm of ``f`` with exponent ``p``."""
    return SymmetrizedAntinorm(f, p)


# ---------------------------------------------------------------------------
# 2-d antisphere arcs: the tangency search behind duals and cone splits
# ---------------------------------------------------------------------------

_UMAX = 45.0          # logit range; sigmoid(-45) ~ 2.9e-20 keeps arc points interior
_DUAL_U = np.linspace(-_UMAX, _UMAX, 1025)   # logit grid of ``Antinorm.arc``
_DUAL_U.setflags(write=False)
_ROOT_STEPS = 64      # step cap of the tangency root
_KINK_RATIO = 8.0     # a cell turning this much more than both neighbours may end at a kink


def _unit_rows(G):
    return G / np.maximum(np.hypot(G[:, 0], G[:, 1]), 1e-300)[:, None]


def _sine(Q, N):
    """sin of the angle from the unit rows Q to the unit rows N; its
    rounding floor is a few ulps."""
    return Q[:, 0] * N[:, 1] - Q[:, 1] * N[:, 0]


class _Arc:
    """The antisphere {f = 1} of a 2-d antinorm over an ascending logit grid.

    At x(u) = (s, 1 - s), s = 1/(1 + e^-u), for each ``u`` where f(x) > 0 it
    keeps the arc point x/f(x), the unit normal grad f/|grad f| (bounded
    where grad f is not, near an axis) and the normal's angle.  Along a
    concave arc the normal turns from OX toward OY as u rises; a running
    maximum keeps the angles sorted where rounding would not.  It is the
    package's only sampling of a 2-d antisphere: ``Antinorm.arc`` on
    ``_DUAL_U``, and a cone split's table of its piece on K1.
    """

    def __init__(self, f, u):
        X = logit_points(u)
        with np.errstate(divide="ignore", invalid="ignore"):   # a NaN normal is never live
            v, G = f._values_grads(X)
        keep = v > 0
        if not np.any(keep):
            raise DegenerateBodyError("antinorm vanishes on the whole sample set")
        self.f = f
        self.u = u[keep]
        self.points = X[keep] / v[keep, None]
        self.normals = _unit_rows(G[keep])
        self.angles = np.fmax.accumulate(np.arctan2(self.normals[:, 1], self.normals[:, 0]))

    def support(self, P):
        """min over the arc of <p, s> per row of P, and the attaining points s.

        <p, s(u)> falls while the normal at s(u) is short of the direction
        of p and rises after it, so the minimum sits in the cell of the
        table where the angle of p falls, or at the arc's end when it falls
        outside; where a run of table angles equals it, at an end of the
        run.  Where sin(p, n) changes sign across the cell,
        ``bracket_root`` closes it onto the tangency p || grad f, at a kink
        onto the jump, unless the cell turns ``_KINK_RATIO`` times more than
        both neighbours and the sine flips within ``bracket_tol`` of an end:
        a kink on that table node, closed there.  The value is the smaller
        of the cell ends' and the root's.  The attaining point is a
        supergradient of the support function p -> min <p, s> (Danskin).
        """
        angle = np.arctan2(P[:, 1], P[:, 0])
        j = np.searchsorted(self.angles, angle)
        k = np.searchsorted(self.angles, angle, side="right")
        # the cell's ends and those of a run of normals at the angle of p, a
        # flat piece or normals that round to an axis next to the arc's end
        ends = np.clip(np.stack([j - 1, j, k - 1, k], axis=1), 0, len(self.u) - 1)
        best = np.argmin(np.einsum("ikj,ij->ik", self.points[ends], P), axis=1)
        S = self.points[ends[np.arange(len(P)), best]]
        lo, hi = ends[:, 0], ends[:, 1]
        Q = _unit_rows(P)
        h_lo, h_hi = _sine(Q, self.normals[lo]), _sine(Q, self.normals[hi])
        live = np.nonzero((h_lo < 0) & (h_hi > 0))[0]
        steps, c = np.diff(self.angles), lo[live]
        kinky = live[steps[c] > _KINK_RATIO * np.maximum(steps[np.maximum(c - 1, 0)],
                                                        steps[np.minimum(c + 1, len(steps) - 1)])]
        if kinky.size:   # probe the sine just inside both ends of each such cell
            a, b = self.u[lo[kinky]], self.u[hi[kinky]]
            t = np.concatenate([a + bracket_tol(a, b), b - bracket_tol(a, b)])
            h = _sine(np.tile(Q[kinky], (2, 1)), _unit_rows(self.f._grads(logit_points(t))))
            live = np.setdiff1d(live, kinky[(h[:kinky.size] >= 0) | (h[kinky.size:] <= 0)])
        if live.size:
            QL, PL = Q[live], P[live]

            def tangency(t, rows):
                return _sine(QL[rows], _unit_rows(self.f._grads(logit_points(t))))

            with np.errstate(divide="ignore", invalid="ignore"):   # a NaN row stops as is
                a, b = bracket_root(tangency, self.u[lo[live]], self.u[hi[live]], h_lo[live],
                                    h_hi[live], _ROOT_STEPS, ftol=4 * np.finfo(float).eps)
                X = logit_points(0.5 * (a + b))
                T = X / self.f._values(X)[:, None]
            better = np.einsum("ij,ij->i", T, PL) < np.einsum("ij,ij->i", S[live], PL)
            S[live[better]] = T[better]
        return np.einsum("ij,ij->i", S, P), S


# ---------------------------------------------------------------------------
# numeric dual as an expression
# ---------------------------------------------------------------------------

class NumericDualAntinorm(Antinorm):
    """The dual antinorm  f*(p) = min_x <p, x>/f(x)  evaluated numerically.

    Evaluation runs the numeric dual of :mod:`antinorms.duality` (as
    ``dual_numeric`` does), also for piecewise-linear input; the instance
    records the inner antinorm and the tolerance ``tol`` within which two
    d >= 3 descents must agree before the search stops.  That search's
    largest budget is the program's choice, ``duality._INNER_BUDGET``, a
    smaller one than ``dual_numeric``'s since every value is a search.
    In d = 2 one support query on the inner antinorm's ``arc`` (the table
    ``_dual2_batch`` reads) gives both f*(p) and its supergradient, the
    inner antisphere point that attains it (Danskin); in d >= 3 the
    supergradient is the base class's estimate.
    """

    def __init__(self, inner, tol=DEFAULT.dual):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.inner = inner
        self.tol = float(tol)
        self.dim = inner.dim

    def _values(self, X):
        if self.dim == 2:
            return self.inner.arc.support(X)[0]
        from .duality import _INNER_BUDGET, _dual_nd  # duality imports exprs

        return _dual_nd(self.inner, X, self.tol, _INNER_BUDGET)

    def _grads(self, X):
        return self.inner.arc.support(X)[1] if self.dim == 2 else super()._grads(X)

    def _values_grads(self, X):
        return self.inner.arc.support(X) if self.dim == 2 else super()._values_grads(X)

    def settings(self):
        return {"tol": self.tol}

    def __repr__(self):
        return f"NumericDualAntinorm({self.inner!r}, tol={self.tol})"


# ---------------------------------------------------------------------------
# cone-split antinorm (piece + restricted dual of the piece)
# ---------------------------------------------------------------------------

class ConeSplitAntinorm(Antinorm):
    """2-D antinorm equal to ``f1`` on one subcone of R^2_+ and to the
    restricted dual of ``f1`` on the complementary subcone.

    The ray through ``apex`` (a unit vector) splits the orthant into K1 and
    K2.  On K2 the value is  min over the K1 antisphere of <s, x>, attained
    where x is parallel to grad f1(s) (clipped to the arc's ends).  The K1
    arc is one ``_Arc`` of ``grid_n`` points, evenly spaced in the logit of
    K1 (from the apex ray to +-45, next to the axis); its support query
    finds the table cell holding that tangency and closes it, so each value
    is accurate to the smoothness of f1 rather than to the table spacing.
    The attaining arc point is the supergradient on K2 (Danskin).
    """

    def __init__(self, f1, apex, side="upper", grid_n=20000):
        if f1.dim != 2:
            raise DimensionMismatchError("cone splitting is 2-dimensional")
        a = as_point(apex, 2)
        if abs(np.linalg.norm(a) - 1.0) > 1e-9:
            raise ValueError("apex must have unit Euclidean length")
        if side not in ("upper", "lower"):
            raise ValueError("side must be 'upper' (K1 toward OY) or 'lower'")
        self.f1 = f1
        self.apex = a
        self.apex.setflags(write=False)
        self.side = side
        self.grid_n = int(grid_n)
        self.dim = 2
        # x(u) is on the apex ray at u = ln(a0/a1); K1 lies below it when upper
        with np.errstate(divide="ignore"):
            u_a = float(np.clip(np.log(a[0]) - np.log(a[1]), -_UMAX, _UMAX))
        lo, hi = (-_UMAX, u_a) if side == "upper" else (u_a, _UMAX)
        self._arc = _Arc(f1, np.linspace(lo, hi, self.grid_n))

    def _in_k1(self, X):
        cross = self.apex[0] * X[:, 1] - self.apex[1] * X[:, 0]
        return cross >= 0 if self.side == "upper" else cross <= 0

    def _values(self, X):
        mask = self._in_k1(X)
        out = np.empty(X.shape[0])
        if np.any(mask):
            out[mask] = self.f1._values(X[mask])
        if np.any(~mask):
            out[~mask] = self._arc.support(X[~mask])[0]
        return out

    def _grads(self, X):
        return self._values_grads(X)[1]

    def _values_grads(self, X):
        mask = self._in_k1(X)
        v, G = np.empty(X.shape[0]), np.empty(X.shape)
        if np.any(mask):
            v[mask], G[mask] = self.f1._values_grads(X[mask])
        if np.any(~mask):
            v[~mask], G[~mask] = self._arc.support(X[~mask])
        return v, G

    def __repr__(self):
        return f"ConeSplitAntinorm({self.f1!r}, apex={self.apex.tolist()}, side={self.side!r})"


class CallableAntinorm(Antinorm):
    """Wrap a plain vectorized callable; mainly for tests and experiments."""

    def __init__(self, fn, dim, name="callable"):
        self.fn = fn
        self.dim = int(dim)
        self.name = name

    def _values(self, X):
        return np.asarray(self.fn(X), dtype=float)

    def __repr__(self):
        return f"CallableAntinorm({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# canonicalization of PL representations
# ---------------------------------------------------------------------------

def _dominated_by_hull(row, others, tol):
    """True if some convex combination of ``others`` is <= row componentwise."""
    n = others.shape[0]
    if n == 0:
        return False
    res = linprog(
        c=np.zeros(n),
        A_ub=others.T,
        b_ub=row + tol,
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * n,
        method="highs",
    )
    return res.status == 0


def canonicalize_pl(f):
    """Remove redundant functionals and sort the rest lexicographically.

    A row a_j is redundant exactly when a convex combination of the other
    rows is componentwise <= a_j (then min_i <a_i, x> <= <a_j, x> on all of
    R^d_+ by monotonicity, and dropping a_j never changes the minimum).
    With tol = ``DEFAULT.redundancy`` (1e-9): in d = 2 one staircase sweep
    drops a_j when a point of the chord between its kept neighbours is
    <= a_j + tol * (1 + |a_j|_inf); in d >= 3 the rows are visited in
    lexicographic order and a_j is dropped when a convex combination of the
    rows still kept is <= a_j + tol.  There the single-row and direction
    certificates of ``geometry._prune_in_order`` decide most rows and
    ``_dominated_by_hull`` solves one LP for each row they leave open.
    Either way the output is deterministic, and its ``body`` is built on
    its own rows.
    """
    A = np.unique(f.functionals, axis=0)  # sorts lexicographically
    if A.shape[1] == 2:
        return PLAntinorm.irredundant(_prune_2d(A, DEFAULT.redundancy))
    return PLAntinorm.irredundant(A[_prune_in_order(A, DEFAULT.redundancy, _dominated_by_hull)])


def as_pl(f):
    """Return an equivalent ``PLAntinorm`` when the expression has one, else
    None; built once per instance and kept on it, so its ``body`` is shared."""
    if isinstance(f, PLAntinorm):
        return f
    if "_pl" not in f.__dict__:
        pl = None
        if isinstance(f, BuiltinAntinorm) and f.name in ("sum", "min"):
            pl = PLAntinorm(np.ones((1, f.dim)) if f.name == "sum" else np.eye(f.dim))
        elif isinstance(f, SymmetrizedAntinorm) and f.p == -math.inf and as_pl(f.inner) is not None:
            rows = np.vstack([as_pl(f.inner).functionals[:, perm] for perm in f._perms])
            pl = canonicalize_pl(PLAntinorm(rows))
        f._pl = pl
    return f._pl


# ---------------------------------------------------------------------------
# continuous extension by the boundary limit
# ---------------------------------------------------------------------------

def continuous_extension_eval(f, x, witness):
    """Boundary value of the unique continuous extension of ``f``.

    For x on the boundary of R^d_+ the extension is the limit of f along the
    segment toward a strictly positive witness:  F(x) = lim_{t->0+}
    f((1-t) x + t w).  The limit exists and F >= f because the orthant is
    polyhedral.  The segment is sampled at t = 10^{-k}, k = 2..8, and the
    sequence accelerated by iterated Aitken extrapolation, which handles the
    sqrt(t) convergence rate of antinorms with concave boundary reductions.
    Interior points return f(x) directly; the result is witness-independent
    up to the extrapolation tolerance.
    """
    p = as_point(x, f.dim)
    w = as_point(witness, f.dim)
    if np.any(w <= 0):
        raise NegativeCoordinateError("witness must be strictly positive")
    if np.all(p > 0):
        return f.value(p)
    t = 10.0 ** -np.arange(2.0, 9.0)
    pts = (1.0 - t)[:, None] * p[None, :] + t[:, None] * w[None, :]
    v = f._values(pts)
    if np.max(np.abs(np.diff(v))) < 1e-13 * (1.0 + np.abs(v[-1])):
        return float(v[-1])
    return aitken_limit(v)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomsReport:
    """Largest sampled violations of the antinorm axioms (0 = consistent)."""

    nonnegativity: float
    homogeneity: float
    concavity: float
    samples: int
    seed: int

    def ok(self, tol=1e-9):
        return max(self.nonnegativity, self.homogeneity, self.concavity) <= tol


def antinorm_axioms_check(f, samples=200, seed=0):
    """Sample nonnegativity, homogeneity and midpoint concavity of ``f``.

    Deterministic for a fixed seed.  Samples mix interior points with points
    on coordinate faces so axioms are also probed where antinorms may vanish.
    """
    rng = np.random.default_rng(seed)
    d = f.dim
    X = rng.lognormal(0.0, 1.0, size=(samples, d))
    face = rng.random(samples) < 0.25
    if np.any(face):
        cols = rng.integers(0, d, size=face.sum())
        X[np.nonzero(face)[0], cols] = 0.0
    Y = rng.lognormal(0.0, 1.0, size=(samples, d))

    fx = f._values(X)
    nonneg = max(0.0, float(np.max(-fx)))

    homog = 0.0
    for lam in (0.5, 2.0, 10.0):
        flx = f._values(lam * X)
        homog = max(homog, float(np.max(np.abs(flx - lam * fx) / (1.0 + lam * np.abs(fx)))))

    fy = f._values(Y)
    fm = f._values(0.5 * (X + Y))
    concavity = max(0.0, float(np.max(0.5 * (fx + fy) - fm)))

    return AxiomsReport(nonneg, homog, concavity, samples, seed)
