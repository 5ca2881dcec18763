from types import SimpleNamespace

import numpy as np
import pytest

from antinorms import (
    ConicPolytope,
    DegenerateBodyError,
    DimensionMismatchError,
    PLAntinorm,
    antipolar,
    canonicalize_pl,
    prune_positive_hull,
    vertices_of,
)
from antinorms import exprs, geometry
from antinorms.geometry import _dedupe_sorted, _lp_redundant


def test_vertices_simplex_corners():
    G = ConicPolytope.from_halfspaces([[1.0, 1.0]])
    assert vertices_of(G).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_vertices_single_corner():
    G = ConicPolytope.from_halfspaces([[1.0, 0.0], [0.0, 1.0]])
    assert vertices_of(G).tolist() == [[1.0, 1.0]]


def test_vertices_k1_polygon():
    G = ConicPolytope.from_halfspaces([[0.6, 0.8], [0.0, 1.25]])
    V = vertices_of(G)
    assert np.allclose(V, [[0.0, 1.25], [0.6, 0.8]], atol=1e-12)
    # ordered by increasing abscissa
    assert np.all(np.diff(V[:, 0]) >= 0)


def test_vertices_cached():
    G = ConicPolytope.from_halfspaces([[1.0, 1.0]])
    assert G.vertices() is G.vertices()


def test_vertices_of_halfplane_only():
    G = ConicPolytope.from_halfspaces([[1.0, 0.0]])
    assert vertices_of(G).tolist() == [[1.0, 0.0]]


def test_antipolar_simplex_to_corner_and_back():
    G = ConicPolytope.from_halfspaces([[1.0, 1.0]])
    Gs = antipolar(G)
    assert vertices_of(Gs).tolist() == [[1.0, 1.0]]
    back = antipolar(Gs)
    assert vertices_of(back).tolist() == vertices_of(G).tolist()


def test_antipolar_involution_random_2d():
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = rng.uniform(0.05, 2.0, size=(rng.integers(1, 6), 2))
        G = ConicPolytope.from_halfspaces(H).canonical()
        GG = antipolar(antipolar(G))
        assert np.allclose(GG.vertices(), G.vertices(), atol=1e-12)


def test_antipolar_order_reversal():
    rng = np.random.default_rng(8)
    for _ in range(10):
        H = rng.uniform(0.1, 2.0, size=(4, 2))
        G = ConicPolytope.from_halfspaces(H)          # all constraints
        Hsub = H[:2]
        Hbody = ConicPolytope.from_halfspaces(Hsub)   # fewer constraints: G subset Hbody
        Gs, Hs = antipolar(G), antipolar(Hbody)
        for v in Hs.vertices():                        # H* subset G*
            assert Gs.contains(v)


def test_vertices_dim4_cross_simplex():
    G = ConicPolytope.from_halfspaces([np.ones(4)])
    V = vertices_of(G)
    assert V.shape == (4, 4)
    assert np.allclose(np.sort(V.sum(axis=1)), 1.0)


def test_vertices_dim5_rejected():
    G = ConicPolytope.from_halfspaces([np.ones(5)])
    with pytest.raises(DimensionMismatchError):
        vertices_of(G)


def test_empty_body_detected():
    with pytest.raises(DegenerateBodyError):
        ConicPolytope(2)


def test_every_vertex_has_an_active_halfspace():
    rng = np.random.default_rng(4)
    for _ in range(10):
        H = rng.uniform(0.05, 2.0, size=(4, 3))
        G = ConicPolytope.from_halfspaces(H)
        V = vertices_of(G)
        act = np.abs(V @ H.T - 1.0) < 1e-8
        assert np.all(act.sum(axis=1) >= 1)


def test_upward_closedness_on_vertices():
    G = ConicPolytope.from_halfspaces([[0.6, 0.8], [0.0, 1.25]])
    for v in vertices_of(G):
        assert G.contains(v + np.array([0.5, 1.0]))


def test_prune_dominance_and_hull():
    pts = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.6, 0.7]])
    out = prune_positive_hull(pts)
    assert [[0.0, 1.0], [1.0, 0.0]] == sorted(out.tolist())
    kept = prune_positive_hull(np.array([[4 / 3, 1 / 3], [2 / 3, 2 / 3], [1 / 3, 4 / 3]]))
    assert len(kept) == 3  # middle point is below the chord: extreme


def test_prune_3d_lp_path():
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.5, 0.5, 0.5]])
    out = prune_positive_hull(pts)
    assert len(out) == 3  # the interior-ish point dominates a convex combination


def test_lifted_polygon_antipolar_fixed_point():
    # cylinder over an autopolar polygon stays autopolar in d = 3
    from antinorms import AutopolarSeed, construct2
    import math

    poly = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))
    H2 = poly.halfspaces()
    H3 = np.hstack([H2, np.zeros((len(H2), 1))])
    G = ConicPolytope.from_halfspaces(H3)
    Gs = antipolar(G)
    assert np.allclose(Gs.vertices(), G.vertices(), atol=1e-10)
    lifted = np.hstack([poly.vertices, np.zeros((len(poly.vertices), 1))])
    assert np.allclose(G.vertices(), lifted[np.lexsort(lifted.T[::-1])], atol=1e-10)


# three extreme rows whose middle one lies 7.0e-7 from the chord of its
# neighbours; the cross product of the three is only 2.4e-9
CLOSE_ROWS = np.array([
    [1.2461671148197715, 0.8024605914469395],
    [1.2469394314314466, 0.8019635716002919],
    [1.2490404964125301, 0.8006145540294177],
])


def test_canonicalize_keeps_close_extreme_rows():
    assert canonicalize_pl(PLAntinorm(CLOSE_ROWS)).functionals.tolist() == CLOSE_ROWS.tolist()


def test_prune_keeps_close_extreme_points():
    # the middle point lies 2.1e-7 from the chord, far above the default tol
    pts = np.array([1.0, 1.0]) + 0.3 * (CLOSE_ROWS - CLOSE_ROWS[1])
    assert len(prune_positive_hull(pts)) == 3


def test_vertices_2d_are_neighbour_meeting_points():
    G = ConicPolytope.from_halfspaces([[2.0, 0.5], [0.5, 2.0], [1.25, 1.25], [3.0, 3.0]])
    # (1.25, 1.25) is the midpoint of the chord of the others, (3, 3) is dominated
    assert vertices_of(G).tolist() == [[0.0, 2.0], [0.4, 0.4], [2.0, 0.0]]


def _dedupe_reference(points, tol):
    pts = points[np.lexsort(points.T[::-1])]
    keep = [pts[0]]
    for row in pts[1:]:
        if all(np.max(np.abs(row - k)) > tol * (1.0 + np.max(np.abs(row))) for k in keep):
            keep.append(row)
    return np.array(keep)


def test_dedupe_sorted_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    for _ in range(40):
        X = rng.uniform(0.0, 3.0, size=(int(rng.integers(1, 120)), int(rng.integers(2, 5))))
        X[rng.random(X.shape) < 0.3] = 0.0                 # ties in the first coordinate
        near = X[rng.integers(0, len(X), size=len(X) // 2)]
        X = np.vstack([X, near + rng.normal(0.0, 1e-9, near.shape), near])
        assert _dedupe_sorted(X, 1e-9).tobytes() == _dedupe_reference(X, 1e-9).tobytes()


def _prune_reference(points, tol=1e-10):
    """Sequential pruning with one redundancy LP per point against the points
    still kept: is some convex combination of them <= the point + tol?"""
    from scipy.optimize import linprog

    keep = list(range(len(points)))
    i = 0
    while i < len(keep):
        others = points[[k for j, k in enumerate(keep) if j != i]]
        n = len(others)
        if n and linprog(np.zeros(n), A_ub=others.T, b_ub=points[keep[i]] + tol,
                         A_eq=np.ones((1, n)), b_eq=[1.0], bounds=[(0, None)] * n,
                         method="highs").status == 0:
            keep.pop(i)
        else:
            i += 1
    return points[keep]


def test_prune_matches_sequential_lp_reference():
    rng = np.random.default_rng(21)
    for t in range(36):
        d, n = 3 + t % 2, int(rng.integers(4, 16))
        if t % 3 == 0:
            P = rng.uniform(0.0, 1.0, (n, d))
        elif t % 3 == 1:
            P = rng.lognormal(0.0, 1.0, (n, d))
        else:   # extreme rows on the surface prod a_i = 1
            P = rng.lognormal(0.0, 0.5, (n, d - 1))
            P = np.hstack([P, 1.0 / np.prod(P, axis=1, keepdims=True)])
        pick = lambda: P[rng.integers(0, n, size=2)]
        lam = rng.random((2, 1))
        nudge = 1e-6 * np.eye(d)[rng.integers(0, d, size=2)]
        X = np.vstack([P, pick(),                                 # duplicates
                       pick() + 1e-12,                            # near-duplicates within tol
                       1.3 * pick() + 0.1,                        # dominated
                       pick() - nudge,                            # just below a row
                       lam * pick() + (1.0 - lam) * pick()])      # on a face
        X = X[rng.permutation(len(X))]
        assert prune_positive_hull(X).tobytes() == _prune_reference(X).tobytes()
        assert (canonicalize_pl(PLAntinorm(X)).functionals.tobytes()
                == _prune_reference(np.unique(X, axis=0), 1e-9).tobytes())


def _count_lps(monkeypatch):
    """Record every ``geometry.linprog`` call and every redundancy test."""
    calls = {"linprog": 0, "_lp_redundant": 0}
    for name in calls:
        inner = getattr(geometry, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(geometry, name, counting)
    return calls


@pytest.mark.parametrize("d", [3, 4])
def test_prune_decides_chord_and_direction_rows_without_an_lp(monkeypatch, d):
    # extreme rows on the surface prod a_i = 1, and rows just above the
    # midpoint of two of them: no single row is below those, a chord is
    rng = np.random.default_rng(30 + d)
    P = rng.lognormal(0.0, 0.5, (10, d - 1))
    P = np.hstack([P, 1.0 / np.prod(P, axis=1, keepdims=True)])
    ij = np.array([rng.choice(10, size=2, replace=False) for _ in range(8)])
    lam = rng.uniform(0.2, 0.8, (8, 1))
    M = lam * P[ij[:, 0]] + (1.0 - lam) * P[ij[:, 1]] + 1e-3
    X = np.vstack([P, M])[rng.permutation(18)]
    calls = _count_lps(monkeypatch)
    out = prune_positive_hull(X)
    assert calls["_lp_redundant"] > 0 and calls["linprog"] == 0
    assert out.tobytes() == _prune_reference(X).tobytes()
    for m in M:
        assert _lp_redundant(m, P, 1e-10)
    for k, v in enumerate(P):          # each surface row against the others
        assert not _lp_redundant(v, np.delete(P, k, axis=0), 1e-10)
    assert calls["linprog"] == 0


def test_chord_witness_survives_cancellation(monkeypatch):
    # the chord's x-interval rounds to lam = 1, where a + lam (b - a) reads
    # (0, 0, 1) <= v, yet every chord point has x >= 1 > 0.5; y = (1/2, 1/2, 0)
    # then certifies v as not redundant
    a, b, v = np.array([1e20, 1e20, 0.0]), np.ones(3), np.array([0.5, 0.5, 2.0])
    calls = _count_lps(monkeypatch)
    assert not _lp_redundant(v, np.array([a, b]), 1e-10)
    assert calls["linprog"] == 0


def test_prune_sends_a_three_point_combination_to_the_lp(monkeypatch):
    # (1, 1, 1) is the centroid of the three rows and below no chord of two,
    # and <y, (1, 1, 1)> = 1 >= 3 min_i y_i = min over the rows for every y
    rows = 3.0 * np.eye(3)
    calls = _count_lps(monkeypatch)
    assert _lp_redundant(np.ones(3), rows, 1e-10)
    assert calls["linprog"] == 1
    assert prune_positive_hull(np.vstack([rows, np.ones(3)])).tolist() == rows.tolist()
    assert calls["linprog"] == 2


def _undecided_lp(*args, **kwargs):
    # what HiGHS returns when it stops with an unknown model status
    return SimpleNamespace(status=4)


def test_prune_raises_where_the_lp_decides_nothing(monkeypatch):
    # the three-point combination above reaches the LP, whose status 4 is no verdict
    monkeypatch.setattr(geometry, "linprog", _undecided_lp)
    with pytest.raises(DegenerateBodyError, match="status 4"):
        prune_positive_hull(np.vstack([3.0 * np.eye(3), np.ones(3)]))


def test_canonicalize_raises_where_the_lp_decides_nothing(monkeypatch):
    monkeypatch.setattr(exprs, "linprog", _undecided_lp)
    with pytest.raises(DegenerateBodyError, match="status 4"):
        canonicalize_pl(PLAntinorm(np.vstack([3.0 * np.eye(3), np.ones(3)])))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("d", [2, 3])
def test_prune_non_finite_point_is_a_typed_error(monkeypatch, d, bad):
    X = np.vstack([np.eye(d), np.full(d, 0.5)])
    X[1, 0] = bad
    calls = _count_lps(monkeypatch)
    with pytest.raises(DegenerateBodyError):
        prune_positive_hull(X)
    assert calls == {"linprog": 0, "_lp_redundant": 0}


@pytest.mark.parametrize("d", [3, 4])
def test_body_from_vertices_halfspaces_round_trip(d):
    # six extreme points on the surface prod x = 1, and three points inside
    # the body that pruning drops
    rng = np.random.default_rng(4 + d)
    for _ in range(3):
        Z = rng.normal(0.0, 0.7, size=(6, d))
        Z -= Z.mean(axis=1, keepdims=True)
        G = ConicPolytope.from_vertices(np.vstack([np.exp(Z), rng.uniform(1.5, 3.0, size=(3, d))]))
        V = G.vertices()
        H = G.halfspaces
        assert len(V) == 6
        assert np.allclose((H @ V.T).min(axis=1), 1.0, rtol=0.0, atol=1e-12)
        W = ConicPolytope.from_halfspaces(H).vertices()
        assert W.shape == V.shape and np.allclose(W, V, rtol=0.0, atol=1e-10)
