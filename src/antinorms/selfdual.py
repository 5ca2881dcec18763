"""Self-dual antinorms and autopolar conic polygons in R^2_+.

A self-dual antinorm satisfies f* = f; equivalently its antiball is an
autopolar conic body.  Every self-dual antinorm touches the Euclidean unit
sphere in exactly one direction (the contact point); splitting the orthant
by the ray through that point and pairing an arbitrary admissible piece
with its restricted dual generates them all:

* ``construct1`` glues an antinorm piece f1 on one subcone with the dual of
  f1 restricted to that subcone, producing a self-dual antinorm,
* ``construct2`` builds every autopolar conic polygon as a vertex chain
  A_{-k} ... A_0 ... A_{k-1} in which each new vertex is chosen on the
  polar line of a previously built vertex; the polar line of a point p is
  {<p, x> = 1}, the line orthogonal to Op through the inverse point
  p/|p|^2.  The chain starts at A_0 with |OA_0| = 1, the last vertex A_{-k}
  is pinned to the OY axis, and every output is verified against the
  antipolar oracle (``is_autopolar``) rather than trusted.

The contact point of a non-PL antinorm is the root, next to a radius
minimum of its antisphere table ``f.arc``, of the stationarity condition
that the point is parallel to its normal, taken with ``_grads`` (analytic,
or Danskin for cone splits), so it is exact to rounding unless ``_grads``
falls back to finite differences.

The only *symmetric* self-dual antinorm on the plane is sqrt(2xy); the
probe at the end of the module quantifies how badly a symmetric candidate
misses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._search import bracket_root, logit_points, simplex_grid
from .config import DEFAULT
from .duality import dual_values
from .errors import (
    DimensionMismatchError,
    InfeasibleSeedError,
    NotSelfDualError,
)
from .exprs import ConeSplitAntinorm, PLAntinorm, _sine, _unit_rows, as_pl, as_point
from .geometry import ConicPolytope

__all__ = [
    "AutopolarSeed",
    "ConicPolygon2D",
    "construct2",
    "random_autopolar_seed",
    "is_autopolar",
    "construct1",
    "contact_point",
    "closest_antisphere_point",
    "is_selfdual",
    "symmetric_selfdual_probe",
    "SymmetricProbeReport",
]


# ---------------------------------------------------------------------------
# autopolar conic polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutopolarSeed:
    """Free data of Construction 2.

    ``a0_angle`` fixes A_0 = (cos, sin) on the unit circle; ``step_params``
    are the 2k-2 extension lengths, one per free vertex in build order
    A_{-1}, A_1, A_{-2}, A_2, ...  (the final vertex A_{-k} is not free: it
    is the intersection of the last polar line with the OY axis).  k = 0
    needs no parameters and yields the single-vertex polygon at (1, 0).
    ``construct2`` keeps the verified polygon on the seed.
    """

    k: int
    a0_angle: float = math.pi / 4
    step_params: tuple = ()
    _polygon: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 0:
            raise InfeasibleSeedError("k must be nonnegative")
        expected = max(0, 2 * self.k - 2)
        if len(self.step_params) != expected:
            raise InfeasibleSeedError(
                f"k={self.k} needs {expected} step parameters, got {len(self.step_params)}")
        if self.k >= 1 and not (0.0 < self.a0_angle <= math.pi / 2):
            raise InfeasibleSeedError("a0_angle must lie in (0, pi/2]")
        if any(l < 0 for l in self.step_params):
            raise InfeasibleSeedError("step parameters must be nonnegative")


class ConicPolygon2D:
    """Conic polygon given by its ordered vertex chain A_{-k} ... A_{k-1}.

    The boundary consists of the vertical ray up the OY axis from A_{-k},
    the 2k-1 segments of the chain, and the horizontal ray from A_{k-1};
    for k = 0 the single vertex (1, 0) carries both rays.
    """

    def __init__(self, k, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        expected = 1 if k == 0 else 2 * k
        if V.shape != (expected, 2):
            raise DimensionMismatchError(f"k={k} polygon needs {expected} vertices")
        V.setflags(write=False)
        self.k = int(k)
        self.vertices = V
        self._antinorm = None

    def halfspaces(self):
        V = self.vertices
        if self.k == 0:
            return np.array([[1.0, 0.0]])
        rows = np.linalg.solve(np.stack([V[:-1], V[1:]], axis=1), np.ones((len(V) - 1, 2, 1)))
        return np.vstack([np.maximum(rows[..., 0], 0.0), [[0.0, 1.0 / V[-1, 1]]]])

    def to_polytope(self):
        P = ConicPolytope(2, halfspaces=self.halfspaces())
        P._vertices = self.vertices
        return P

    def antinorm(self):
        """The PL antinorm of the facet rows, built once per polygon."""
        if self._antinorm is None:
            self._antinorm = PLAntinorm(self.halfspaces())
        return self._antinorm

    def __repr__(self):
        return f"ConicPolygon2D(k={self.k}, vertices={self.vertices.tolist()})"


def _extend(current, pole, length):
    """Next chain vertex: on the polar line of ``pole``, ``length`` beyond
    ``current`` away from the perpendicular foot pole/|pole|^2."""
    foot = pole / float(pole @ pole)
    d = current - foot
    n = np.linalg.norm(d)
    if n < 1e-12:
        raise InfeasibleSeedError("degenerate step: vertex at the perpendicular foot")
    return current + (length / n) * d


def _build_chain(seed):
    k = seed.k
    a0 = np.array([math.cos(seed.a0_angle), math.sin(seed.a0_angle)])
    pts = {0: a0}
    params = list(seed.step_params)
    if k >= 2:
        t = np.array([-a0[1], a0[0]])
        pts[-1] = a0 + params.pop(0) * t
        for j in range(1, k):
            pts[j] = _extend(pts[j - 1], pts[-j], params.pop(0))
            if j < k - 1:
                pts[-(j + 1)] = _extend(pts[-j], pts[j], params.pop(0))
        last = pts[k - 1]
        if last[1] <= 1e-12:
            raise InfeasibleSeedError("final polar line misses the OY axis")
        pts[-k] = np.array([0.0, 1.0 / last[1]])
    elif k == 1:
        if a0[1] <= 1e-12:
            raise InfeasibleSeedError("A_0 on the OX axis: polar line misses OY")
        pts[-1] = np.array([0.0, 1.0 / a0[1]])
    return np.array([pts[j] for j in range(-k, k)]) if k >= 1 else a0[None, :]


def _validate_chain(V):
    """Strict convexity and orthant membership of the vertex chain."""
    if V.shape[0] == 1:
        return
    if abs(V[0, 0]) > 1e-12 or V[0, 1] <= 0:
        raise InfeasibleSeedError("A_{-k} must sit on the positive OY axis")
    if np.any(V[1:] <= 1e-12):
        raise InfeasibleSeedError("chain left the open orthant")
    dirs = [np.array([0.0, -1.0])]
    dirs += [V[i + 1] - V[i] for i in range(len(V) - 1)]
    dirs.append(np.array([1.0, 0.0]))
    for u, w in zip(dirs, dirs[1:]):
        if u[0] * w[1] - u[1] * w[0] <= 1e-12:
            raise InfeasibleSeedError("chain is not strictly convex")


def is_autopolar(pl):
    """Whether the antiball of the PL antinorm ``pl`` is autopolar (f* = f):
    the antipolar's half-spaces are the antiball's vertices, so whether the
    canonical rows and the vertex set ``pl.body`` holds (both sorted
    lexicographically) agree within 1e-10.  No probe, no second enumeration.
    """
    G = pl.body
    H, V = G.halfspaces, G.vertices()
    return H.shape == V.shape and bool(np.allclose(H, V, atol=1e-10, rtol=0))


def construct2(seed):
    """Build the autopolar conic polygon of ``seed`` and verify it, once.

    k = 0 is the degenerate single-vertex polygon at (1, 0) with antinorm
    f(x, y) = x.  Every other output is checked against the antipolar
    oracle, once: ``is_autopolar`` of the polygon's antinorm, so that
    antinorm's body already holds the verified vertex set.  The polygon is
    kept on the seed, and a later call with the same seed returns it.
    """
    if seed._polygon is None:
        poly = ConicPolygon2D(0, [[1.0, 0.0]])
        if seed.k > 0:
            V = _build_chain(seed)
            _validate_chain(V)
            poly = ConicPolygon2D(seed.k, V)
            if not is_autopolar(poly.antinorm()):
                raise InfeasibleSeedError("constructed polygon failed the antipolar oracle")
        object.__setattr__(seed, "_polygon", poly)
    return seed._polygon


def random_autopolar_seed(k, rng):
    """Sample a feasible seed for ``construct2`` (deterministic given rng).

    Every extension length is drawn from [0.12, 1.1] by the share rule: a
    move gets the room that keeps its vertex 0.02 inside the orthant over
    the moves still to come on its side (itself included), and draws from
    that share's upper half where it is below the range.  No range is ever
    empty and no chain restarts.  Lengths cannot break convexity: each
    segment lies on a fixed polar line, pointing away from its foot.  The
    seed comes back verified by ``construct2``, which keeps its polygon.
    """
    if k <= 1:
        seed = AutopolarSeed(k, rng.uniform(0.2, math.pi / 2 - 0.05)) if k else AutopolarSeed(0)
    else:
        lo, hi, margin = 0.12, 1.1, 0.02
        # build order: A_{-1} from A_0 along the tangent, then alternately A_j
        # on the polar line of A_{-j} and A_{-(j+1)} on the polar line of A_j
        moves = [(-1, 0, None), *[m for j in range(1, k)
                                  for m in ((j, j - 1, -j), (-(j + 1), -j, j))][:2 * k - 3]]
        angle = rng.uniform(0.25, math.pi / 2 - 0.25)
        pts, params = {0: (math.cos(angle), math.sin(angle))}, []
        for i, (new, old, pole) in enumerate(moves):
            x, y = pts[old]
            if pole is None:
                dx, dy = -y, x
            else:
                px, py = pts[pole]
                n2 = px * px + py * py
                dx, dy = x - px / n2, y - py / n2
                n = math.hypot(dx, dy)
                dx, dy = dx / n, dy / n
            share = sum(m[0] * new > 0 for m in moves[i:])
            cap = min([hi, *(0.9 * (c - margin) / -dc / share
                             for c, dc in ((x, dx), (y, dy)) if dc < -1e-12)])
            params.append(float(rng.uniform(lo if cap > lo else 0.5 * cap, cap)))
            pts[new] = (x + params[-1] * dx, y + params[-1] * dy)
        seed = AutopolarSeed(k, angle, tuple(params))
    construct2(seed)
    return seed


# ---------------------------------------------------------------------------
# Construction 1: piece + restricted dual
# ---------------------------------------------------------------------------

def construct1(f1, apex, side="upper", grid_n=20000, verify=True):
    """Glue ``f1`` on the subcone K1 with its K1-restricted dual on K2.

    Preconditions: |apex| = 1, f1(apex) = 1 and f1(x) <= <apex, x> on K1,
    i.e. the antisphere of f1 stays behind the line orthogonal to the apex
    ray, checked as <apex, s> >= 1 - 1e-9 at the points s of the K1 table
    (``ConeSplitAntinorm._arc``) that the glued antinorm builds anyway.  The
    restricted dual f2(x) = inf_{x1 in K1} <x1, x>/f1(x1) is realized by
    support-function minimization over that table.  The glued function is
    self-dual; with ``verify`` it is checked by ``is_selfdual`` (tol 1e-6,
    160 points).
    """
    a = as_point(apex, 2)
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise ValueError("apex must be a unit vector")
    va = f1.value(a)
    if abs(va - 1.0) > 1e-8:
        raise ValueError(f"f1(apex) = {va!r}, expected 1")
    f = ConeSplitAntinorm(f1, a, side=side, grid_n=grid_n)
    lin = f._arc.points @ a
    if np.min(lin) < 1.0 - 1e-9:
        w = f._arc.points[np.argmin(lin)]
        raise ValueError(f"precondition f1 <= <apex, .> fails on K1 at {w.tolist()}")
    if verify:
        ok, dev = is_selfdual(f, tol=1e-6, n_grid=160)
        if not ok:
            raise NotSelfDualError(f"glued antinorm failed self-duality: deviation {dev:.3e}")
    return f


# ---------------------------------------------------------------------------
# contact points
# ---------------------------------------------------------------------------

def _pl_boundary_candidates(pl):
    """Closest-point candidates on the antisphere of a 2-d PL antinorm: the
    vertices of ``pl.body`` as they are, then each chord's point nearest the
    origin, p + t (q - p), t in [0, 1], with ``p @ d``'s dot (``matmul``).
    A closing ray's nearest point is the vertex it starts from."""
    V = pl.body.vertices()
    p, d = V[:-1], V[1:] - V[:-1]
    denom = np.matmul(d[:, None], d[:, :, None])[:, 0, 0]
    t = -np.matmul(p[:, None], d[:, :, None])[:, 0, 0] / np.where(denom == 0, 1.0, denom)
    return np.vstack([V, p + np.clip(t, 0.0, 1.0)[:, None] * d])


def closest_antisphere_point(f):
    """The antisphere point nearest the origin, and the runner-up distance.

    Returns ``(point, second_distance)`` where ``second_distance`` is the
    nearest candidate distance outside a small cluster around the winner
    (infinity if there is none).  Works for any 2-d antinorm; self-duality
    is not assumed here.  A non-PL antinorm is read on its ``arc``: each
    local minimum of the radius over the table's points is closed by one
    ``bracket_root`` onto the sign change, next to it, of the sine between
    the point and its normal (the radius is stationary where they are
    parallel), unless that sine is at its rounding floor of a few ulps on
    the table node (a kink there).  In d >= 3 it raises
    ``DimensionMismatchError``: no search there finds the point to the
    1e-9 that ``contact_point`` asks for.
    """
    if f.dim != 2:
        raise DimensionMismatchError("the closest-point search is 2-dimensional")
    pl = as_pl(f)
    if pl is not None:
        cands = _pl_boundary_candidates(pl)
    else:
        arc = f.arc
        r = np.linalg.norm(arc.points, axis=1)
        minima = np.nonzero((r <= np.r_[np.inf, r[:-1]]) & (r <= np.r_[r[1:], np.inf])
                            & np.isfinite(r))[0]
        lo, hi = np.maximum(minima - 1, 0), np.minimum(minima + 1, len(r) - 1)
        h = _sine(_unit_rows(arc.points), arc.normals)
        # u runs from the OY side, where the sine is negative before a minimum
        live = (h[lo] < 0) & (h[hi] > 0) & (np.abs(h[minima]) > 4 * np.finfo(float).eps)
        cands = arc.points[minima]
        if np.any(live):

            def sine(t, rows):
                X = logit_points(t)
                return _sine(_unit_rows(X), _unit_rows(f._grads(X)))

            a, b = bracket_root(sine, arc.u[lo[live]], arc.u[hi[live]], h[lo[live]],
                                h[hi[live]], 64, ftol=4 * np.finfo(float).eps)
            X = logit_points(0.5 * (a + b))
            cands[live] = X / f._values(X)[:, None]
    dists = np.linalg.norm(cands, axis=1)
    j = int(np.argmin(dists))
    best = cands[j]
    away = np.linalg.norm(cands - best, axis=1) > 1e-6 * (1.0 + dists[j])
    second = float(np.min(dists[away])) if np.any(away) else math.inf
    return best, second


def contact_point(f):
    """The unique point with f(a) = 1 and |a| = 1 of a self-dual antinorm.

    It is the antisphere point closest to the origin (|a| = 1 within 1e-9);
    every other local closest-point candidate must lie at distance
    >= 1 + ``DEFAULT.contact_unique``.  Raises ``NotSelfDualError`` when no
    unit-distance point exists or the minimizer is ambiguous, and
    ``DimensionMismatchError`` in d >= 3.
    """
    a, second = closest_antisphere_point(f)
    dist = float(np.linalg.norm(a))
    if abs(dist - 1.0) > 1e-9:
        raise NotSelfDualError(
            f"closest antisphere point has |a| = {dist!r}; no unit contact point")
    if second < 1.0 + DEFAULT.contact_unique:
        raise NotSelfDualError(f"contact point not unique: runner-up at distance {second!r}")
    fa = f.value(a)
    if abs(fa - 1.0) > 1e-7:
        raise NotSelfDualError(f"f(a) = {fa!r} at the contact candidate")
    return a


# ---------------------------------------------------------------------------
# self-duality checks
# ---------------------------------------------------------------------------

def _probe_grid(dim, n):
    """Deterministic interior probe points on the unit simplex: in d = 2
    spread logarithmically toward the boundary, in d >= 3 the first n
    interior points (every coordinate >= 1/res) of the coarsest simplex
    lattice whose interior has n.  Lattice points on a face would probe
    where f and f* are both near 0 and an absolute deviation says nothing."""
    if dim == 2:
        return logit_points(np.linspace(-14.0, 14.0, n))
    res = dim
    while math.comb(res - 1, dim - 1) < n:   # interior points of simplex_grid(dim, res)
        res += 1
    G = simplex_grid(dim, res)
    return G[G.min(axis=1) * res > 0.5][:n]


def is_selfdual(f, tol=1e-7, n_grid=1000):
    """Decide f* = f by comparing dual and primal values on a probe grid.

    The dual values come from ``dual_values``: exact for piecewise-linear
    antinorms, numeric otherwise.  Returns ``(verdict, max deviation)``.
    """
    X = _probe_grid(f.dim, n_grid)
    dev = float(np.max(np.abs(dual_values(f, X) - f._values(X))))
    return dev <= tol, dev


@dataclass(frozen=True)
class SymmetricProbeReport:
    symmetric: bool
    symmetry_dev: float
    selfdual: bool
    selfdual_dev: float
    hyperbola_dev: float
    tol: float

    @property
    def passed(self):
        """True when f is symmetric, self-dual and equals sqrt(2xy)."""
        return self.symmetric and self.selfdual and self.hyperbola_dev <= self.tol


def symmetric_selfdual_probe(f):
    """Probe the unique-symmetric-self-dual property in the plane.

    If ``f`` is symmetric and self-dual it must coincide with sqrt(2xy);
    the report carries the symmetry defect |f(s) - f(s reflected)|, the
    self-duality deviation and the distance |1 - sqrt(2 s_1 s_2)| to
    sqrt(2xy), both at the points s of ``f.arc`` (logit spacing resolves
    the behavior near the axis rays, where polygonal candidates deviate
    most), judged at tol = 1e-7.
    """
    if f.dim != 2:
        raise DimensionMismatchError("the symmetric probe is 2-dimensional")
    tol = 1e-7
    S = f.arc.points
    sym_dev = float(np.max(np.abs(f._values(S) - f._values(S[:, ::-1]))))
    ok, sd_dev = is_selfdual(f, tol=tol, n_grid=1000)
    hyper_dev = float(np.max(np.abs(1.0 - np.sqrt(2.0 * S[:, 0] * S[:, 1]))))
    return SymmetricProbeReport(sym_dev <= tol, sym_dev, ok, sd_dev, hyper_dev, tol)
