import math

import numpy as np
import pytest
from scipy.optimize import brentq

from antinorms import (
    AutopolarSeed,
    ConeSplitAntinorm,
    DimensionMismatchError,
    InfeasibleSeedError,
    NotSelfDualError,
    PLAntinorm,
    ProductAntinorm,
    antipolar,
    catalog,
    closest_antisphere_point,
    construct1,
    construct2,
    contact_point,
    dual_numeric,
    is_selfdual,
    random_autopolar_seed,
    symmetric_selfdual_probe,
    symmetrize,
)

R = 1.0 + math.sqrt(2.0)
APEX = np.array([1.0, 1.0]) / math.sqrt(2.0)


def test_construct2_k0():
    poly = construct2(AutopolarSeed(0))
    assert poly.vertices.tolist() == [[1.0, 0.0]]
    f = poly.antinorm()
    assert f.functionals.tolist() == [[1.0, 0.0]]  # f(x, y) = x


def test_construct2_k1_reference_polygon():
    poly = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))
    assert np.allclose(poly.vertices, [[0.0, 1.25], [0.6, 0.8]], atol=1e-12)
    f = poly.antinorm()
    # min{0.6x + 0.8y, y/0.8}
    assert np.allclose(np.sort(f.functionals, axis=0),
                       np.sort([[0.6, 0.8], [0.0, 1.25]], axis=0), atol=1e-12)


def test_construct2_vertex_and_side_counts():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 6):
        poly = construct2(random_autopolar_seed(k, rng))
        assert len(poly.vertices) == 2 * k
        assert len(poly.halfspaces()) == 2 * k  # non-axis facets, incl. horizontal ray


def test_construct2_random_seeds_autopolar():
    rng = np.random.default_rng(123)
    for k in range(0, 11, 2):
        seed = random_autopolar_seed(k, rng)
        poly = construct2(seed)
        G = poly.to_polytope()
        assert np.allclose(antipolar(G).vertices(), poly.vertices, atol=1e-10)


def test_construct2_pole_edge_pairing():
    # every edge line of the polygon is the polar line of one of its vertices
    rng = np.random.default_rng(5)
    poly = construct2(random_autopolar_seed(4, rng))
    V = poly.vertices
    for row in poly.halfspaces():
        dists = np.linalg.norm(V - row, axis=1)
        assert dists.min() < 1e-9


def test_construct2_seed_validation():
    with pytest.raises(InfeasibleSeedError):
        AutopolarSeed(2, 0.7, (0.5,))  # wrong parameter count
    with pytest.raises(InfeasibleSeedError):
        AutopolarSeed(1, -0.1)
    with pytest.raises(InfeasibleSeedError):
        AutopolarSeed(3, 0.7, (-0.5, 0.2, 0.3, 0.1))


def test_construct2_infeasible_chain_rejected():
    # enormous first extension drags later vertices out of the orthant
    with pytest.raises(InfeasibleSeedError):
        construct2(AutopolarSeed(2, 1.2, (50.0, 0.5)))


def test_contact_point_reference_cases():
    assert np.allclose(contact_point(catalog("sqrt2xy")), APEX, atol=1e-12)
    k0 = construct2(AutopolarSeed(0)).antinorm()
    assert np.allclose(contact_point(k0), [1.0, 0.0], atol=1e-12)
    k1 = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6))).antinorm()
    assert np.allclose(contact_point(k1), [0.6, 0.8], atol=1e-12)


def test_contact_point_rejects_non_selfdual():
    with pytest.raises(NotSelfDualError):
        contact_point(catalog("sum", dim=2))  # closest point at distance 1/sqrt(2)


def test_contact_point_in_3d_is_a_dimension_error():
    # sampled directions never met |a| = 1 within 1e-9 for this self-dual antinorm
    with pytest.raises(DimensionMismatchError):
        contact_point(ProductAntinorm.selfdual([1.0 / 3.0] * 3))


def test_selfdual_equality_below_euclidean_norm():
    # f(x) <= |x| with equality exactly at the contact direction
    rng = np.random.default_rng(3)
    poly = construct2(random_autopolar_seed(3, rng))
    f = poly.antinorm()
    a = contact_point(f)
    X = rng.uniform(0.01, 3.0, size=(300, 2))
    vals = f._values(X)
    norms = np.linalg.norm(X, axis=1)
    assert np.all(vals <= norms + 1e-10)
    close = np.abs(vals - norms) < 1e-9 * norms
    for x in X[close]:
        assert abs(np.cross(x, a)) < 1e-7 * np.linalg.norm(x)


def test_is_selfdual_products():
    ok, dev = is_selfdual(ProductAntinorm([0.5, 0.5]), 1e-7)
    assert ok and dev <= 1e-9
    ok, dev = is_selfdual(ProductAntinorm.selfdual([0.3, 0.7]), 1e-7)
    assert ok and dev <= 1e-9


def test_is_selfdual_d3_probes_catch_a_scaled_product():
    # 1% off the self-dual scale; probes on a face of the simplex, where f
    # and f* are near 0, would read this self-dual
    w = [0.6, 0.2, 0.2]
    c = ProductAntinorm.selfdual(w).scale
    ok, dev = is_selfdual(ProductAntinorm(w, scale=1.01 * c), n_grid=2)
    assert not ok and dev > 1e-3
    ok, dev = is_selfdual(ProductAntinorm(w, scale=c), n_grid=2)
    assert ok and dev <= 1e-12


def test_is_selfdual_sum_fails_near_axis():
    ok, dev = is_selfdual(catalog("sum", dim=2), 1e-7)
    assert not ok
    assert dev == pytest.approx(1.0, abs=1e-3)  # f* - f gap approaches 1 toward (1, 0)


def test_is_selfdual_sqrt2xy():
    ok, dev = is_selfdual(catalog("sqrt2xy"), 1e-7)
    assert ok and dev <= 1e-9


def test_symmetric_probe_hyperbola_and_product():
    rep = symmetric_selfdual_probe(catalog("sqrt2xy"))
    assert rep.passed and rep.hyperbola_dev <= 1e-12
    rep2 = symmetric_selfdual_probe(ProductAntinorm([0.5, 0.5]))
    assert rep2.passed


def test_symmetric_probe_rejects_symmetrized_polygon():
    rng = np.random.default_rng(8)
    poly = construct2(random_autopolar_seed(2, rng))
    f = symmetrize(poly.antinorm(), -math.inf)
    rep = symmetric_selfdual_probe(f)
    assert rep.symmetric
    assert not rep.selfdual
    assert rep.selfdual_dev > 1e-3


# ---------------------------------------------------------------------------
# Construction 1
# ---------------------------------------------------------------------------

def test_construct1_recovers_sqrt2xy():
    f = construct1(catalog("sqrt2xy"), APEX, side="upper", grid_n=4096)
    rng = np.random.default_rng(1)
    X = rng.uniform(0.05, 3.0, size=(100, 2))
    assert np.allclose(f._values(X), catalog("sqrt2xy")._values(X), atol=1e-9)


def test_construct1_circle_gives_support_closed_form():
    # K1-restricted dual of the circle-arc antinorm is <c, p> - R |p| on K2
    f = construct1(catalog("circle_arc", radius=R), APEX, side="upper", grid_n=8192)
    rng = np.random.default_rng(2)
    P = rng.uniform(0.2, 3.0, size=(120, 2))
    P = P[P[:, 0] >= P[:, 1]]
    oracle = R * P.sum(axis=1) - R * np.linalg.norm(P, axis=1)
    assert np.allclose(f._values(P), oracle, atol=1e-10)


def test_construct1_circle_dual_branch_hyperbola():
    # the K2 branch solves (x - alpha)(y - alpha) = alpha^2 / 2, alpha = sqrt(2) - 1
    f = construct1(catalog("circle_arc", radius=R), APEX, side="upper", grid_n=8192)
    alpha = math.sqrt(2.0) - 1.0
    kappa = alpha * alpha / 2.0
    for x in np.linspace(0.75, 6.0, 20):
        y = brentq(lambda yy: f.value([x, yy]) - 1.0, 1e-6, 2.0, xtol=1e-13)
        assert y == pytest.approx(alpha + kappa / (x - alpha), abs=1e-9)


def test_construct1_circle_matches_brute_force_restricted_dual():
    # independent oracle: dense minimization of <x1, p>/f1(x1) over K1 rays
    f1 = catalog("circle_arc", radius=R)
    phis = np.linspace(math.pi / 4, math.pi / 2 - 1e-9, 200001)
    U = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    S = U / f1._values(U)[:, None]
    f = construct1(f1, APEX, side="upper", grid_n=8192)
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.uniform(0.3, 2.5, size=2)
        p = np.sort(p)[::-1]  # K2 side
        assert f.value(p) == pytest.approx(float(np.min(S @ p)), abs=1e-7)


def test_construct1_pl_edge_gives_pl_ray_piece():
    # restricted dual of the k=1 polygon piece on K2 equals y/0.8 = 1.25 y
    k1 = PLAntinorm([[0.6, 0.8], [0.0, 1.25]])
    f = construct1(k1, np.array([0.6, 0.8]), side="upper", grid_n=4096)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.05, 3.0, size=(200, 2))
    K2 = X[X[:, 1] / X[:, 0] <= 0.8 / 0.6]
    assert np.allclose(f._values(K2), 1.25 * K2[:, 1], atol=1e-9)


def test_construct1_selfdual_verification():
    f = construct1(catalog("circle_arc", radius=R), APEX, side="upper",
                   grid_n=4096, verify=True)
    ok, dev = is_selfdual(f, tol=1e-6, n_grid=300)
    assert ok, dev


def test_construct1_precondition_violation_reported():
    # sum antinorm exceeds <apex, x> away from the apex ray
    with pytest.raises(ValueError):
        construct1(PLAntinorm([[1.0, 1.0]]), np.array([1.0, 0.0]), side="upper")


# ---------------------------------------------------------------------------
# cone split: exact tangency and contact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", ["upper", "lower"])
def test_cone_split_k2_matches_closed_form_to_1e13(side):
    f = ConeSplitAntinorm(catalog("circle_arc", radius=R), APEX, side=side, grid_n=4096)
    P = np.random.default_rng(11).uniform(0.2, 3.0, size=(400, 2))
    k2 = (P[:, 1] < P[:, 0]) if side == "upper" else (P[:, 1] > P[:, 0])
    oracle = R * P.sum(axis=1) - R * np.linalg.norm(P, axis=1)
    assert np.max(np.abs(f._values(P)[k2] / oracle[k2] - 1.0)) <= 1e-13


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_cone_split_contact_point_is_exact(side):
    # the contact point sits on the split ray; Danskin gradients on K2 make
    # the stationarity root exact there
    f = ConeSplitAntinorm(catalog("circle_arc", radius=R), APEX, side=side, grid_n=4096)
    a, _ = closest_antisphere_point(f)
    assert abs(math.atan2(a[1], a[0]) - math.pi / 4) <= 1e-12
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k,seed", [(13, 5913), (14, 3414), (15, 1815), (16, 2016)])
def test_random_autopolar_seed_succeeds_where_rejection_gave_up(k, seed):
    poly = construct2(random_autopolar_seed(k, np.random.default_rng(seed)))
    assert poly.vertices.shape == (2 * k, 2)


def test_random_autopolar_seed_never_fails_for_k_13_to_16():
    for k in range(13, 17):
        for seed in range(400):
            random_autopolar_seed(k, np.random.default_rng(seed))


def test_probe_grid_matches_growing_search():
    from antinorms._search import simplex_grid
    from antinorms.selfdual import _probe_grid

    def grown(dim, n):   # try resolutions 2, 3, ... until one has n interior points
        res = 2
        while True:
            G = simplex_grid(dim, res)
            inner = G[np.all(np.rint(G * res) >= 1, axis=1)]   # every coordinate >= 1/res
            if len(inner) >= n:
                return inner[:n]
            res += 1

    for dim in (3, 4, 5):
        for n in [*range(1, 201), 1000]:
            assert _probe_grid(dim, n).tobytes() == grown(dim, n).tobytes()
