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
here is pure, so instances are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ._search import aitken_limit, bracket_root
from .config import DEFAULT
from .errors import DimensionMismatchError, NegativeCoordinateError
from .geometry import _prune_2d

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

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# piecewise linear
# ---------------------------------------------------------------------------

class PLAntinorm(Antinorm):
    """f(x) = min_j <a_j, x> with nonnegative nonzero rows a_j.

    The unit antiball {f >= 1} is the conic polyhedron cut out of R^d_+ by
    the half-spaces <a_j, x> >= 1.
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

    def _values(self, X):
        return np.min(X @ self.functionals.T, axis=1)

    def _grads(self, X):
        return self.functionals[np.argmin(X @ self.functionals.T, axis=1)]

    def active_functionals(self, x, tol=1e-9):
        """Rows attaining the minimum at ``x`` within ``tol`` (relative)."""
        p = as_point(x, self.dim)
        vals = self.functionals @ p
        m = vals.min()
        return self.functionals[vals <= m + tol * (1.0 + abs(m))]

    def canonical(self):
        return canonicalize_pl(self)

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
            logs = np.log(Xa[~zero]) @ wa
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


def _v_rootsum3(X, params):
    return np.square(np.sqrt(X).sum(axis=1))


def _v_rootsum3_drop(X, params):
    interior = np.all(X > 0, axis=1)
    return np.where(interior, _v_rootsum3(X, params), X.sum(axis=1))


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
# numeric dual as an expression
# ---------------------------------------------------------------------------

class NumericDualAntinorm(Antinorm):
    """The dual antinorm  f*(p) = min_x <p, x>/f(x)  evaluated numerically.

    Evaluation runs the numeric dual of :mod:`antinorms.duality` (as
    ``dual_numeric`` does), also for piecewise-linear input; the instance
    records the inner antinorm, the solver tolerance and the d >= 3 search
    budget (simplex grid ``resolution``, ``n_starts`` and ``maxiter``).
    """

    def __init__(self, inner, tol=DEFAULT.dual, resolution=16, n_starts=2, maxiter=200):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.inner = inner
        self.tol = float(tol)
        self.resolution = int(resolution)
        self.n_starts = int(n_starts)
        self.maxiter = int(maxiter)
        self.dim = inner.dim

    def _values(self, X):
        from .duality import _numeric_duals  # deferred: duality imports exprs

        return _numeric_duals(self.inner, X, self.resolution, self.n_starts, self.maxiter)

    def settings(self):
        return {"tol": self.tol, "resolution": self.resolution,
                "n_starts": self.n_starts, "maxiter": self.maxiter}

    def __repr__(self):
        return f"NumericDualAntinorm({self.inner!r}, tol={self.tol})"


# ---------------------------------------------------------------------------
# cone-split antinorm (piece + restricted dual of the piece)
# ---------------------------------------------------------------------------

def _unit_rows(G):
    return G / np.maximum(np.hypot(G[:, 0], G[:, 1]), 1e-300)[:, None]


class ConeSplitAntinorm(Antinorm):
    """2-D antinorm equal to ``f1`` on one subcone of R^2_+ and to the
    restricted dual of ``f1`` on the complementary subcone.

    The ray through ``apex`` (a unit vector) splits the orthant into K1 and
    K2.  On K2 the value is  min over the K1 antisphere of <s, x>, attained
    where x is parallel to grad f1(s) (clipped to the arc's ends).  A table
    of ``grid_n`` arc points keeps the angles of grad f1, which fall along
    the arc; a binary search over it finds the cell holding that tangency
    and ``bracket_root`` closes the cell onto it, so each value is accurate
    to the smoothness of f1 rather than to the table spacing.  The
    attaining arc point is the supergradient on K2 (Danskin).
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
        phi_a = math.atan2(a[1], a[0])
        if side == "upper":
            lo, hi = phi_a, math.pi / 2
        else:
            lo, hi = 0.0, phi_a
        # open the interval slightly at an end where f1 vanishes: the
        # support minimum never sits there (those antisphere points escape
        # to infinity), so clipping it is harmless; an end where f1 is
        # positive stays, as K2 points near the axis touch the arc there
        ends = f1._values(np.array([[math.cos(lo), math.sin(lo)], [math.cos(hi), math.sin(hi)]]))
        pad = (hi - lo) * 1e-9 * (ends <= 1e-15)
        phis = np.linspace(lo + pad[0], hi - pad[1], self.grid_n)
        U = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        vals = f1._values(U)
        keep = vals > 1e-15
        self._phis = phis[keep]
        self._table = U[keep] / vals[keep, None]
        self._normals = _unit_rows(f1._grads(U[keep]))
        # grad f1 turns clockwise along a concave arc; the running minimum
        # keeps the angles sorted where rounding would not
        angles = np.arctan2(self._normals[:, 1], self._normals[:, 0])
        self._angles = -np.minimum.accumulate(angles)

    def _in_k1(self, X):
        cross = self.apex[0] * X[:, 1] - self.apex[1] * X[:, 0]
        return cross >= 0 if self.side == "upper" else cross <= 0

    def _support(self, X):
        """min over the K1 arc of <s, x> per row of X, and the arc points s."""
        n = len(self._phis)
        j = np.searchsorted(self._angles, -np.arctan2(X[:, 1], X[:, 0]))
        lo, hi = np.maximum(j - 1, 0), np.minimum(j, n - 1)
        # <s', x> has the sign of n(s) x x, n the unit normal grad f1/|grad f1|;
        # it rises through 0 at the tangency, and unlike grad f1 it stays
        # bounded where the arc meets an axis
        c_lo = np.einsum("ij,ij->i", self._normals[lo], X[:, ::-1] * [1.0, -1.0])
        c_hi = np.einsum("ij,ij->i", self._normals[hi], X[:, ::-1] * [1.0, -1.0])
        S = np.where((np.einsum("ij,ij->i", self._table[lo], X)
                      <= np.einsum("ij,ij->i", self._table[hi], X))[:, None],
                     self._table[lo], self._table[hi])
        live = np.nonzero((c_lo < 0) & (c_hi > 0))[0]
        if live.size:
            XL = X[live]

            def tangency(phi, rows):
                U = np.stack([np.cos(phi), np.sin(phi)], axis=1)
                N = _unit_rows(self.f1._grads(U))
                return N[:, 0] * XL[rows, 1] - N[:, 1] * XL[rows, 0]

            a, b = bracket_root(tangency, self._phis[lo[live]], self._phis[hi[live]],
                                c_lo[live], c_hi[live], 64,
                                ftol=4 * np.finfo(float).eps * np.hypot(XL[:, 0], XL[:, 1]))
            phi = 0.5 * (a + b)
            U = np.stack([np.cos(phi), np.sin(phi)], axis=1)
            T = U / np.maximum(self.f1._values(U), 1e-300)[:, None]
            better = np.einsum("ij,ij->i", T, XL) < np.einsum("ij,ij->i", S[live], XL)
            S[live[better]] = T[better]
        return np.einsum("ij,ij->i", S, X), S

    def _values(self, X):
        mask = self._in_k1(X)
        out = np.empty(X.shape[0])
        if np.any(mask):
            out[mask] = self.f1._values(X[mask])
        if np.any(~mask):
            out[~mask] = self._support(X[~mask])[0]
        return out

    def _grads(self, X):
        mask = self._in_k1(X)
        G = np.empty(X.shape)
        if np.any(mask):
            G[mask] = self.f1._grads(X[mask])
        if np.any(~mask):
            G[~mask] = self._support(X[~mask])[1]
        return G

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


def canonicalize_pl(f, tol=DEFAULT.redundancy):
    """Remove redundant functionals and sort the rest lexicographically.

    A row a_j is redundant exactly when a convex combination of the other
    rows is componentwise <= a_j (then min_i <a_i, x> <= <a_j, x> on all of
    R^d_+ by monotonicity, and dropping a_j never changes the minimum).
    In d = 2 one staircase sweep drops a_j when a point of the chord between
    its kept neighbours is <= a_j + tol * (1 + |a_j|_inf).  In d >= 3 one LP
    per row, in lexicographic order, drops a_j when a convex combination of
    the rows still kept is <= a_j + tol.  Either way the output is
    deterministic.
    """
    A = np.unique(f.functionals, axis=0)  # sorts lexicographically
    if A.shape[1] == 2:
        return PLAntinorm(_prune_2d(A, tol))
    keep = list(range(A.shape[0]))
    i = 0
    while i < len(keep):
        row = A[keep[i]]
        others = A[[k for j, k in enumerate(keep) if j != i]]
        if _dominated_by_hull(row, others, tol):
            keep.pop(i)
        else:
            i += 1
    return PLAntinorm(A[keep])


def as_pl(f):
    """Return an equivalent ``PLAntinorm`` when the expression has one, else None."""
    if isinstance(f, PLAntinorm):
        return f
    if isinstance(f, BuiltinAntinorm):
        if f.name == "sum":
            return PLAntinorm(np.ones((1, f.dim)))
        if f.name == "min":
            return PLAntinorm(np.eye(f.dim))
    if isinstance(f, SymmetrizedAntinorm) and f.p == -math.inf:
        inner = as_pl(f.inner)
        if inner is not None:
            rows = np.vstack([inner.functionals[:, perm] for perm in f._perms])
            return canonicalize_pl(PLAntinorm(rows))
    return None


# ---------------------------------------------------------------------------
# continuous extension by the boundary limit
# ---------------------------------------------------------------------------

def continuous_extension_eval(f, x, witness, ks=(2, 3, 4, 5, 6, 7, 8)):
    """Boundary value of the unique continuous extension of ``f``.

    For x on the boundary of R^d_+ the extension is the limit of f along the
    segment toward a strictly positive witness:  F(x) = lim_{t->0+}
    f((1-t) x + t w).  The limit exists and F >= f because the orthant is
    polyhedral.  Numerically the segment is sampled at t = 10^{-k} and the
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
    t = 10.0 ** -np.asarray(ks, dtype=float)
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
