"""Conic polytopes in R^d_+ and the antipolar transform.

A conic polytope here is a set  G = {x in R^d_+ : <a_j, x> >= 1 for all j}
with nonnegative functionals a_j: convex, closed, upward closed (its
recession cone is the whole orthant) and not containing the origin.  It is
the unit antiball of the piecewise-linear antinorm min_j <a_j, x>.

The antipolar of a set X is  X* = {y >= 0 : <y, x> >= 1 for all x in X}.
For a conic polytope the transform swaps roles of vertices and non-axis
facets: the half-spaces of G* are exactly the vertices of G, and applying
the transform twice returns the canonical form of G.

Vertex enumeration in d = 2 intersects neighbours: the irredundant
functionals, sorted by their first coordinate, form a convex staircase
(one monotone-chain sweep, ``_prune_2d``), and the vertices are the OX-axis
vertex of the first row, the meeting points of neighbouring rows and the
OY-axis vertex of the last row.  In d = 3, 4 it stays exhaustive over
active constraint sets: every feasible basic solution of d linearly
independent constraints drawn from {<a_j, x> >= 1} and {x_i >= 0} is an
extreme point; a batched floating-point pass picks the active sets (rank
filter at 1e-12) and checks feasibility.  Either way the vertices are then
re-solved exactly from the same float rows, in one ``_solve_exact`` stack
(rational arithmetic on Python integers), and each rounded once, so a vertex
whose exact value is a float comes out as that float.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._search import linprog, simplex_grid
from .config import DEFAULT
from .errors import DegenerateBodyError, DimensionMismatchError

__all__ = [
    "ConicPolytope",
    "vertices_of",
    "antipolar",
    "prune_positive_hull",
    "positive_hull_value",
]

_FEAS_TOL = 1e-9


def _dedupe_sorted(points, tol):
    """Cluster near-duplicates and return rows sorted lexicographically.

    In sorted order a row is dropped when an earlier kept row lies within
    tol * (1 + |row|_inf) of it in the max norm.  Such a row has a first
    coordinate at most that far below, so only that window is compared.
    """
    if len(points) == 0:
        return np.empty((0, points.shape[1] if points.ndim == 2 else 0))
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort(pts.T[::-1])]
    reach = tol * (1.0 + np.max(np.abs(pts), axis=1))
    # twice the reach, so rounding in the window bound never hides a row
    start = np.searchsorted(pts[:, 0], pts[:, 0] - 2.0 * reach)
    keep = np.ones(len(pts), dtype=bool)
    for i in np.nonzero(start < np.arange(len(pts)))[0]:
        near = np.max(np.abs(pts[start[i]:i] - pts[i]), axis=1) <= reach[i]
        keep[i] = not np.any(near & keep[start[i]:i])
    return pts[keep]


def _solve_exact(systems):
    """Solve each augmented system [M | b] of a (K, n, n + 1) stack exactly,
    each entry rounded once, after one ``tolist`` pass over the stack.

    Each row is scaled by a power of two to integers, which leaves the
    solution unchanged; fraction-free Gauss-Jordan elimination leaves
    x_i = R_in / R_ii, and int / int division in Python rounds correctly.
    """
    out = []
    for system in np.asarray(systems, dtype=float).tolist():
        n = len(system)
        R = []
        for row in system:
            q = [v.as_integer_ratio() for v in row]  # denominators are powers of two
            den = max(d for _, d in q)
            R.append([num * (den // d) for num, d in q])
        for c in range(n):
            p = next(r for r in range(c, n) if R[r][c] != 0)
            R[c], R[p] = R[p], R[c]
            for r in range(n):
                if r != c and R[r][c] != 0:
                    R[r] = [R[c][c] * x - R[r][c] * y for x, y in zip(R[r], R[c])]
        out.append([R[i][n] / R[i][i] for i in range(n)])
    return np.array(out)


def _vertices_2d(A, tol):
    """Vertices in d = 2: axis vertices of the end rows, neighbours' meeting
    points, solved in one stack."""
    H = _prune_2d(A, tol).tolist()
    systems = [[[*a, 1.0], [*b, 1.0]] for a, b in zip(H, H[1:])]
    if H[0][0] > 0:
        systems.insert(0, [[*H[0], 1.0], [0.0, 1.0, 0.0]])
    if H[-1][1] > 0:
        systems.append([[*H[-1], 1.0], [1.0, 0.0, 0.0]])
    if not systems:
        raise DegenerateBodyError("conic polytope has no vertices (empty body?)")
    return _dedupe_sorted(np.maximum(_solve_exact(systems), 0.0), DEFAULT.vertex_dedupe)


def _enumerate_vertices(halfspaces):
    A = np.atleast_2d(np.asarray(halfspaces, dtype=float))
    m, d = A.shape
    if d > 4:
        raise DimensionMismatchError("exact vertex enumeration supports dim <= 4")
    if d == 2:
        return _vertices_2d(A, DEFAULT.geometry)
    # constraint rows [a_j | 1]: <a_j, x> >= 1, and [e_i | 0]: x_i >= 0
    aug = np.vstack([np.column_stack([A, np.ones(m)]), np.eye(d, d + 1)])
    rows, rhs = aug[:, :d], aug[:, d]
    combos = list(itertools.combinations(range(m + d), d))
    M = rows[np.array(combos)]                      # (K, d, d)
    dets = np.abs(np.linalg.det(M))
    scale = np.max(np.abs(M), axis=(1, 2)) ** d + 1e-300
    good = dets > 1e-12 * scale
    if not np.any(good):
        raise DegenerateBodyError("no basic solutions: empty or degenerate body")
    combo_idx = np.array(combos)[good]
    sols = np.linalg.solve(M[good], rhs[combo_idx][..., None])[..., 0]
    # basic solutions in the orthant, feasible, and not the apex (where only
    # axis constraints are active)
    feasible = (~np.any(sols < -1e-9, axis=1)
                & ~np.any(np.maximum(sols, 0.0) @ A.T < 1.0 - _FEAS_TOL, axis=1)
                & np.any(combo_idx < m, axis=1))
    if not np.any(feasible):
        raise DegenerateBodyError("conic polytope has no vertices (empty body?)")
    return _dedupe_sorted(np.maximum(_solve_exact(aug[combo_idx[feasible]]), 0.0),
                          DEFAULT.vertex_dedupe)


class ConicPolytope:
    """Conic polytope with half-space and/or vertex representation.

    The vertex set is computed lazily from the half-spaces and cached;
    the cache is write-once (construct-then-publish), so sharing instances
    across threads is safe.
    """

    def __init__(self, dim, halfspaces=None, vertices=None):
        if halfspaces is None and vertices is None:
            raise DegenerateBodyError("need half-spaces or vertices")
        self.dim = int(dim)
        self._halfspaces = None
        self._vertices = None
        if halfspaces is not None:
            H = np.atleast_2d(np.asarray(halfspaces, dtype=float))
            if H.shape[1] != self.dim:
                raise DimensionMismatchError("half-space dimension mismatch")
            if np.any(H < 0):
                raise DegenerateBodyError("half-space functionals must be nonnegative")
            H.setflags(write=False)
            self._halfspaces = H
        if vertices is not None:
            V = np.atleast_2d(np.asarray(vertices, dtype=float))
            if V.shape[1] != self.dim:
                raise DimensionMismatchError("vertex dimension mismatch")
            if np.any(V < -1e-12):
                raise DegenerateBodyError("vertices must lie in the orthant")
            V = _dedupe_sorted(prune_positive_hull(np.maximum(V, 0.0)), DEFAULT.vertex_dedupe)
            V.setflags(write=False)
            self._vertices = V

    @classmethod
    def from_halfspaces(cls, halfspaces):
        H = np.atleast_2d(np.asarray(halfspaces, dtype=float))
        return cls(H.shape[1], halfspaces=H)

    @classmethod
    def from_vertices(cls, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        return cls(V.shape[1], vertices=V)

    @property
    def halfspaces(self):
        if self._halfspaces is None:
            # facets of co(V) + R^d_+ are the vertices of the antipolar
            dual = ConicPolytope(self.dim, halfspaces=self._vertices)
            H = dual.vertices()
            H.setflags(write=False)
            self._halfspaces = H
        return self._halfspaces

    def vertices(self):
        if self._vertices is None:
            V = _enumerate_vertices(self._halfspaces)
            V.setflags(write=False)
            self._vertices = V
        return self._vertices

    def contains(self, x):
        p = np.asarray(x, dtype=float)
        if np.any(p < -1e-9):
            return False
        if self._halfspaces is not None:
            return bool(np.all(self._halfspaces @ p >= 1.0 - 1e-9))
        return positive_hull_value(self._vertices, p) >= 1.0 - 1e-9

    def canonical(self):
        """Same body with irredundant half-spaces and cached vertices."""
        V = self.vertices()
        H = antipolar(self).vertices()
        out = ConicPolytope(self.dim, halfspaces=H)
        out._vertices = V
        return out

    def __repr__(self):
        nh = "?" if self._halfspaces is None else self._halfspaces.shape[0]
        nv = "?" if self._vertices is None else self._vertices.shape[0]
        return f"ConicPolytope(dim={self.dim}, halfspaces={nh}, vertices={nv})"


def vertices_of(G):
    """All extreme points of ``G``; in d = 2 ordered by increasing abscissa."""
    return G.vertices()


def antipolar(G):
    """G* = {y >= 0 : <y, x> >= 1 for all x in G}.

    Its half-spaces are exactly the vertices of G (recession directions of G
    impose nothing beyond y >= 0).  Applying the transform twice returns the
    canonical form of G.
    """
    return ConicPolytope(G.dim, halfspaces=G.vertices())


# ---------------------------------------------------------------------------
# positive convex hulls:  co_+ X = co X + R^d_+
# ---------------------------------------------------------------------------

def _chord_covers(a, p, b, tol):
    """True if some point of the chord [a, p] is componentwise <= b + t,
    t = tol * (1 + |b|_inf).

    ``a`` and ``p`` are the kept neighbours of ``b`` in the staircase
    (a_x < b_x < p_x, a_y > b_y > p_y); ``a`` is None when ``b`` comes first,
    and the chord is then the point ``p`` alone.
    """
    t = tol * (1.0 + max(abs(b[0]), abs(b[1])))
    if a is None:
        return p[0] <= b[0] + t
    # the chord point at lam is <= b + t in x for lam <= (b_x + t - a_x)/(p_x - a_x)
    # and in y for lam >= (a_y - b_y - t)/(a_y - p_y); on a staircase the first
    # bound is >= 0 and the second <= 1, so only their order matters
    return (a[1] - b[1] - t) * (p[0] - a[0]) <= (b[0] + t - a[0]) * (a[1] - p[1])


def _prune_2d(points, tol):
    """Extreme points of co_+ {points} in d = 2, sorted by first coordinate.

    One monotone-chain sweep (Andrew 1979) in lexicographic order.  A point
    b is dropped when some point of the chord between its kept neighbours
    is componentwise <= b + tol * (1 + |b|_inf): the meaning of the LP
    margin in higher dimensions, measured as a length, never as an area.
    """
    hull = []
    for p in points[np.lexsort(points.T[::-1])].tolist():
        # the last kept point has the smallest second coordinate so far
        if hull and hull[-1][1] <= p[1] + tol * (1.0 + max(abs(p[0]), abs(p[1]))):
            continue
        while hull and _chord_covers(hull[-2] if len(hull) > 1 else None, p, hull[-1], tol):
            hull.pop()
        hull.append(p)
    return np.array(hull).reshape(-1, 2)


def _lp_verdict(res):
    """A redundancy LP's verdict from its HiGHS status: 0 (feasible) is
    redundant, 2 (infeasible) is not, and any other decides nothing."""
    if res.status not in (0, 2):
        raise DegenerateBodyError(f"redundancy LP undecided: HiGHS status {res.status}")
    return res.status == 0


def _lp_redundant(v, others, tol):
    """Whether a convex combination of ``others`` is <= v + tol componentwise.

    Two exact certificates decide first, and one HiGHS LP (feasibility of
    that combination) only for what they leave open:

    * chord: some point of the chord between two rows a, b is <= v + tol.
      Coordinate k bounds lam in (1 - lam) a + lam b <= v + tol from one
      side, so every pair gives a closed-form interval, and all pairs are
      checked in one pass; the interval's midpoint is then checked as a
      witness, in that form, which for rows >= 0 has no cancellation (the
      interval ends may have lost b - a to it).  Redundant.
    * direction: along some y of ``simplex_grid`` v beats every row,
      <y, v> + tol + 1e-6 (1 + |v|_inf) < min <y, others>: the argument and
      margin of ``_extreme_by_direction``, against the rows passed here.
      Not redundant.

    Either verdict is the exact LP's, and HiGHS's wherever it solves the
    LP, so the LP runs only where neither holds; a status that decides
    nothing raises (``_lp_verdict``).  The grid has resolution 64 in
    d = 3 and 24 in d = 4 (the one ``duality._dual_nd`` uses), 16 above.
    """
    n, d = others.shape
    if n == 0:
        return False
    i, j = np.triu_indices(n, 1)
    a, b = others[i], others[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (v + tol - a) / (b - a)
    lo = np.max(np.where(b < a, r, 0.0), axis=1)
    hi = np.min(np.where(b > a, r, 1.0), axis=1)
    lam = 0.5 * (lo + hi)[:, None]
    if np.any((lo <= hi) & np.all((1.0 - lam) * a + lam * b <= v + tol, axis=1)):
        return True
    Y = simplex_grid(d, {3: 64, 4: 24}.get(d, 16))
    if np.any(np.min(others @ Y.T, axis=0) - Y @ v > tol + 1e-6 * (1.0 + np.max(np.abs(v)))):
        return False
    res = linprog(
        c=np.zeros(n),
        A_ub=others.T,
        b_ub=v + tol,
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * n,
        method="highs",
    )
    return _lp_verdict(res)


def _extreme_by_direction(pts, tol):
    """Rows that some direction y of the simplex grid ``simplex_grid(d, 8)``
    makes the unique minimizer of <y, .> over all rows, by a margin of
    tol + 1e-6 (1 + |row|_inf); every row when there are fewer than two.

    Such a row is not <= a convex combination of the others plus tol: that
    combination would have <y, .> <= <y, row> + tol (y >= 0 sums to 1) but
    is >= the second smallest value.  The 1e-6 keeps the verdict through
    the LP solver's 1e-7 feasibility tolerance.  ``_prune_in_order`` keeps
    these rows without an LP, for ``prune_positive_hull`` and
    ``exprs.canonicalize_pl``; ``_lp_redundant`` repeats the argument on a
    finer grid against the kept rows only.
    """
    if len(pts) < 2:
        return np.ones(len(pts), dtype=bool)
    S = pts @ simplex_grid(pts.shape[1], 8).T          # (n, directions)
    order = np.argpartition(S, 1, axis=0)[:2]
    cols = np.arange(S.shape[1])
    first, second = S[order[0], cols], S[order[1], cols]
    margin = tol + 1e-6 * (1.0 + np.max(np.abs(pts[order[0]]), axis=1))
    extreme = np.zeros(len(pts), dtype=bool)
    extreme[order[0][second - first > margin]] = True
    return extreme


def _prune_in_order(pts, tol, lp_redundant):
    """Mask of the rows kept when each row in turn is dropped if a convex
    combination of the rows still kept is <= it + tol.

    ``lp_redundant(row, others, tol)`` decides that test; it runs only when
    no certificate here decides, as in Clarkson, "More output-sensitive
    geometric algorithms" (FOCS 1994).  A row is dropped without it when a
    kept row is <= it + tol componentwise (a vertex of the LP's simplex is
    feasible), and kept without it when ``_extreme_by_direction`` certifies
    it against all rows (Farkas makes the LP infeasible).  Both certificates
    decide as the LP would, so the mask is the one the LP alone gives.
    ``exprs.canonicalize_pl`` passes a bare LP; ``prune_positive_hull``
    passes ``_lp_redundant``, which tries a chord and a finer direction
    certificate against the kept rows before its LP.
    """
    extreme = _extreme_by_direction(pts, tol)
    kept = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(~extreme):
        kept[i] = False
        others = pts[kept]
        if not (np.any(np.all(others <= pts[i] + tol, axis=1))
                or lp_redundant(pts[i], others, tol)):
            kept[i] = True
    return kept


def prune_positive_hull(points):
    """Extreme points of co_+ {points}.

    A point is redundant iff a convex combination of the others is
    componentwise <= it (the +R^d_+ part absorbs dominated points); the
    margin is tol = 1e-10.  d = 2 uses the staircase sweep, which drops a
    point b when a point of the chord between its kept neighbours is
    <= b + tol * (1 + |b|_inf).

    Higher dimensions visit the points in order, each against the points
    still kept (``_prune_in_order``, shared with ``exprs.canonicalize_pl``):
    single-row and coarse direction certificates decide most points, and
    ``_lp_redundant`` the rest, by a chord certificate, a fine direction
    certificate and, for the points both leave open, one LP.  Raises
    ``DegenerateBodyError`` on a non-finite point, before any of these run,
    and where an LP ends undecided.
    """
    tol = 1e-10
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise DegenerateBodyError("positive hull of non-finite points (overflow?)")
    if pts.shape[1] == 2:
        return _prune_2d(pts, tol)
    return pts[_prune_in_order(pts, tol, _lp_redundant)]


def positive_hull_value(points, x):
    """Gauge of co_+ {points} at ``x``: max {lam : x in lam * co_+ points}.

    Solved as the LP  max sum(nu)  s.t.  sum nu_j p_j <= x, nu >= 0.
    Returns 0 when x is not reachable at any positive scale.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float)
    res = linprog(
        c=-np.ones(P.shape[0]),
        A_ub=P.T,
        b_ub=x,
        bounds=[(0, None)] * P.shape[0],
        method="highs",
    )
    if res.status != 0:
        return 0.0
    return float(-res.fun)
