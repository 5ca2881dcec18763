import math
import warnings

import numpy as np
import pytest

from antinorms import (
    ConeSplitAntinorm,
    NumericDualAntinorm,
    PLAntinorm,
    ProductAntinorm,
    canonicalize_pl,
    catalog,
    construct2,
    double_dual_check,
    dual_numeric,
    dual_pl,
    duality_discontinuity_demo,
    random_autopolar_seed,
    symmetrize,
    young_check,
)
from antinorms import duality, exprs
from antinorms.duality import _dual2_batch, dual_values
from antinorms._search import logit_points
from antinorms.exprs import _Arc, continuous_extension_eval


def test_dual_of_sum_is_min():
    for d in (2, 3, 4):
        g = dual_pl(catalog("sum", dim=d))
        assert np.allclose(g.functionals, np.eye(d)[np.lexsort(np.eye(d).T[::-1])], atol=1e-12)


def test_dual_of_min_is_sum():
    g = dual_pl(catalog("min", dim=2))
    assert g.functionals.tolist() == [[1.0, 1.0]]


def test_dual_k1_polygon_selfdual():
    f = PLAntinorm([[0.6, 0.8], [0.0, 1.25]])
    g = dual_pl(f)
    assert np.allclose(np.sort(g.functionals, axis=0), np.sort(f.functionals, axis=0), atol=1e-12)


def test_double_dual_is_canonical_original():
    f = PLAntinorm([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])  # redundant row
    g = dual_pl(dual_pl(f))
    assert np.allclose(g.functionals, canonicalize_pl(f).functionals, atol=1e-12)


def test_dual_numeric_sqrt2xy_closed_form():
    # f*(p, q) = sqrt(2 p q) by the arithmetic-geometric mean inequality
    f = catalog("sqrt2xy")
    assert dual_numeric(f, [3.0, 4.0]) == pytest.approx(math.sqrt(24.0), abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(0.05, 5.0, size=2)
        assert dual_numeric(f, p) == pytest.approx(math.sqrt(2 * p[0] * p[1]), rel=1e-9)


def test_dual_numeric_min_eps_regime_value():
    # closed form 2pq/(q + sqrt(q^2 + eps^2 p q)) in the small-q regime
    assert dual_numeric(catalog("min_eps", eps=0.4), [1.0, 0.02]) == pytest.approx(0.5, abs=1e-9)


def test_dual_numeric_min_is_sum():
    assert dual_numeric(catalog("min", dim=2), [1.0, 0.02]) == pytest.approx(1.02, abs=1e-10)


def test_dual_numeric_rejects_bad_tol():
    with pytest.raises(ValueError):
        dual_numeric(catalog("sum", dim=2), [1.0, 1.0], tol=0.0)


def test_dual_numeric_rootsum3_harmonic_form():
    # stationarity for F = (sum sqrt(x_i))^2 gives F*(p) = 1/sum(1/p_i)
    f = catalog("rootsum3")
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(0.2, 3.0, size=3)
        expect = 1.0 / np.sum(1.0 / p)
        assert dual_numeric(f, p, tol=1e-9) == pytest.approx(expect, rel=1e-6)


def test_pl_dual_consistency_with_numeric():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for _ in range(4):
            A = rng.uniform(0.05, 2.0, size=(3, d))
            f = PLAntinorm(A)
            g = dual_pl(f)
            for _ in range(5):
                p = rng.uniform(0.1, 2.0, size=d)
                assert dual_numeric(f, p, tol=1e-8) == pytest.approx(g.value(p), abs=1e-7)


def test_dual_of_discontinuous_equals_dual_of_extension():
    f = catalog("rootsum3_drop")
    F = catalog("rootsum3")
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.uniform(0.1, 2.0, size=3)
        assert dual_numeric(f, p) == pytest.approx(dual_numeric(F, p), abs=1e-6)


def test_young_zero_violation_catalog():
    for f in (catalog("sum", dim=2), catalog("sqrt2xy"), ProductAntinorm([0.5, 0.5]),
              catalog("min_eps", eps=0.4), catalog("min", dim=3)):
        rep = young_check(f, samples=1500, seed=7)
        assert rep.max_young_violation <= 1e-8


def test_young_equality_case_sqrt2xy():
    f = catalog("sqrt2xy")
    fstar = dual_numeric(f, [1.0, 1.0])
    assert fstar * f.value([1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)  # = <p, x>


def test_double_dual_pl_exact():
    rep = double_dual_check(catalog("sum", dim=3), samples=30, seed=1)
    assert rep.max_reflexivity_gap <= 1e-12


def test_double_dual_smooth():
    rep = double_dual_check(catalog("sqrt2xy"), samples=15, seed=2)
    assert rep.max_reflexivity_gap <= 1e-6


def test_double_dual_recovers_extension_of_discontinuous():
    # f**(1,1,0) equals the extension value 4, not f(1,1,0) = 2
    f = catalog("rootsum3_drop")
    fstar = NumericDualAntinorm(f, tol=1e-8)
    x = np.array([0.5, 0.5, 0.0])  # scaled copy of (1,1,0)
    val = dual_numeric(fstar, x, tol=1e-6) * 2.0
    assert val == pytest.approx(4.0, abs=1e-4)
    assert f.value([1.0, 1.0, 0.0]) == 2.0


def test_dual_numeric_kinked_inputs_in_d3_and_d4():
    # the ratio is quasiconvex but kinked here, and a single Nelder-Mead
    # descent stalls short of the minimum at a few of these points
    rng = np.random.default_rng(21)
    for d in (3, 4):
        P = rng.lognormal(0.0, 1.0, size=(20, d))
        assert np.allclose([dual_numeric(catalog("min", dim=d), p) for p in P], P.sum(axis=1),
                           rtol=1e-9, atol=0.0)
        for _ in range(2):
            f = PLAntinorm(rng.uniform(0.05, 2.0, size=(4, d)))
            P = rng.lognormal(0.0, 1.0, size=(20, d))
            assert np.allclose([dual_numeric(f, p) for p in P], dual_pl(f)._values(P),
                               rtol=1e-9, atol=0.0)


def test_dual_numeric_does_not_stop_at_a_face_point_two_descents_share():
    # the first two descents both end on the edge x2 = x4 = 0, where the
    # ratio is flat in softmax coordinates, and agree 0.2% above f*(p)
    f = PLAntinorm([[0.1104, 0.8244, 1.2176, 0.7692], [0.7344, 1.6403, 0.8786, 1.9179],
                    [0.5546, 0.242, 0.9936, 1.472], [0.7338, 0.5263, 1.1458, 1.6508]])
    p = [0.2898, 0.7408, 0.7464, 1.3331]
    assert dual_numeric(f, p) == pytest.approx(dual_pl(f).value(p), rel=1e-9)


def test_dual_numeric_d3_smooth_stops_after_two_descents(monkeypatch):
    runs = []
    minimize = duality.minimize

    def counted(*args, **kwargs):
        runs.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(duality, "minimize", counted)
    f = catalog("rootsum3")
    for p in np.random.default_rng(3).lognormal(0.0, 1.0, size=(5, 3)):
        runs.clear()
        assert dual_numeric(f, p) == pytest.approx(1.0 / np.sum(1.0 / p), rel=1e-9)
        assert len(runs) <= 2


@pytest.mark.parametrize("f", [
    catalog("rootsum3"),
    ProductAntinorm([0.2, 0.3, 0.5]),
    PLAntinorm([[1.0, 0.2, 0.5, 0.3], [0.3, 1.0, 0.1, 0.6], [0.4, 0.6, 1.0, 0.2]]),
], ids=["rootsum3", "product3", "pl4"])
def test_numeric_duals_batch_equals_rows_one_at_a_time(f):
    P = np.random.default_rng(6).lognormal(0.0, 1.0, size=(6, f.dim))
    one_by_one = [duality._numeric_duals(f, p, 1e-8)[0] for p in P]
    assert np.array_equal(duality._numeric_duals(f, P, 1e-8), one_by_one)


def test_double_dual_check_batch_equals_per_sample_loop():
    f = catalog("sqrt2xy")
    rng = np.random.default_rng(2)   # the samples double_dual_check draws for seed 2
    X = rng.lognormal(0.0, 0.8, size=(15, 2))
    face = rng.random(15) < 0.25
    X[np.nonzero(face)[0], rng.integers(0, 2, size=face.sum())] = 0.0
    fstar = NumericDualAntinorm(f, tol=1e-9)
    gap = max(abs(dual_numeric(fstar, x / x.sum(), tol=1e-7) * x.sum()
                  - continuous_extension_eval(f, x, np.ones(2))) for x in X)
    assert double_dual_check(f, samples=15, seed=2).max_reflexivity_gap == gap


@pytest.mark.parametrize("f", [
    catalog("sum", dim=2),
    catalog("min", dim=2),
    PLAntinorm([[1.0, 0.2, 0.5], [0.3, 1.0, 0.1], [0.4, 0.6, 1.0]]),
    symmetrize(catalog("min", dim=2), -math.inf),
], ids=["sum2", "min2", "pl3", "symmetrized_min"])
def test_dual_values_takes_the_exact_path_for_pl(f, monkeypatch):
    def numeric(*args, **kwargs):
        raise AssertionError("numeric dual called for a piecewise-linear antinorm")

    monkeypatch.setattr(duality, "_dual2_batch", numeric)
    monkeypatch.setattr(duality, "minimize", numeric)
    P = np.random.default_rng(4).lognormal(0.0, 1.0, size=(25, f.dim))
    assert np.array_equal(dual_values(f, P), dual_pl(f)._values(P))


_CLOSED_FORMS = [ProductAntinorm([0.3, 0.7], scale=1.7), ProductAntinorm.selfdual([0.45, 0.55]),
                 ProductAntinorm([0.2, 0.0, 0.8]), ProductAntinorm.selfdual([0.2, 0.3, 0.5]),
                 catalog("sqrt2xy"), catalog("circle_arc", radius=1.5),
                 catalog("circle_arc", radius=2.5), catalog("circle_arc", radius=4.0),
                 catalog("rootsum3"), catalog("min_eps", eps=0.2), catalog("min_eps", eps=0.5),
                 catalog("min_eps", eps=1.0)]
_CLOSED_IDS = ["product2", "selfdual2", "product3_w0", "selfdual3", "sqrt2xy",
               "circle1.5", "circle2.5", "circle4", "rootsum3", "min_eps0.2", "min_eps0.5",
               "min_eps1"]


@pytest.mark.parametrize("f", _CLOSED_FORMS, ids=_CLOSED_IDS)
def test_closed_form_duals_match_the_numeric_search(f):
    P = np.random.default_rng(8).lognormal(0.0, 1.0, size=(12, f.dim))
    numeric = duality._numeric_duals(f, P, 1e-10)
    assert np.max(np.abs(dual_values(f, P) / numeric - 1.0)) <= 1e-9


@pytest.mark.parametrize("f", _CLOSED_FORMS, ids=_CLOSED_IDS)
def test_dual_values_takes_the_closed_form_without_a_search(f, monkeypatch):
    def numeric(*args, **kwargs):
        raise AssertionError("numeric dual called for an antinorm with a closed-form dual")

    monkeypatch.setattr(duality, "_dual2_batch", numeric)
    monkeypatch.setattr(duality, "minimize", numeric)
    P = np.random.default_rng(4).lognormal(0.0, 1.0, size=(25, f.dim))
    assert np.array_equal(dual_values(f, P), f._dual_support(P)[0])


@pytest.mark.parametrize("f", _CLOSED_FORMS, ids=_CLOSED_IDS)
def test_closed_form_dual_is_0_at_a_zero_coordinate(f):
    # f*(p) = 0 when p_j = 0 (take x = e_j), except for a product whose
    # weight w_j is 0, where x_j does not enter f
    P = np.vstack([np.zeros(f.dim), 2.0 - np.eye(f.dim) * 2.0])
    free = np.append(False, getattr(f, "weights", np.ones(f.dim)) == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = dual_values(f, P)
    assert np.all(vals[~free] == 0.0) and np.all(vals[free] > 0.0)


@pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
def test_min_eps_dual_matches_the_numeric_search_on_both_branches(eps):
    # a/b from 1 (the kink branch) to 1e6 (the smooth one), and where they
    # meet, 1 + 2/eps; both orientations, at lognormal scales
    rng = np.random.default_rng(21)
    ratio = np.r_[1.0, 1.0 + 2.0 / eps, np.exp(rng.uniform(0.0, math.log(1e6), 300))]
    b = rng.lognormal(0.0, 1.0, len(ratio))
    P = np.stack([ratio * b, b], axis=1)
    P = np.vstack([P, P[:, ::-1]])
    smooth = np.tile(ratio >= 1.0 + 2.0 / eps, 2)
    assert 50 <= smooth.sum() <= len(P) - 50
    f = catalog("min_eps", eps=eps)
    closed = dual_values(f, P)
    assert np.max(np.abs(closed / duality._numeric_duals(f, P, 1e-10) - 1.0)) <= 1e-13
    assert np.array_equal(closed[~smooth], P[~smooth].sum(axis=1) / (1.0 + eps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dual_values(f, [[0.0, 0.0], [3.0, 0.0], [0.0, 0.5]]).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("f1", [catalog("sqrt2xy"), catalog("circle_arc", radius=2.0),
                                ProductAntinorm.selfdual([0.3, 0.7]),
                                ProductAntinorm([0.6, 0.4]), catalog("min_eps")],
                         ids=["sqrt2xy", "circle_arc", "selfdual", "product", "min_eps"])
def test_closed_form_duals_and_cone_splits_run_no_tangency_search(f1, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("bracket_root called where a closed form is known")

    monkeypatch.setattr(exprs, "bracket_root", search)
    P = np.random.default_rng(6).lognormal(0.0, 1.0, size=(60, 2))
    for eps in (0.2, 0.5, 1.0):
        dual_values(catalog("min_eps", eps=eps), P)
    for apex in ([math.sqrt(0.5), math.sqrt(0.5)], [0.6, 0.8]):
        for side in ("upper", "lower"):
            f = ConeSplitAntinorm(f1, apex, side=side, grid_n=4096)
            X = P[~f._in_k1(P)]
            v, G = f._values_grads(X)
            assert len(X) and np.all(np.isfinite(v)) and np.all(np.isfinite(G))
            assert "_arc" not in vars(f)   # nor is the K1 table built


@pytest.mark.parametrize("f", _CLOSED_FORMS, ids=_CLOSED_IDS)
def test_closed_form_dual_support_points_lie_on_the_antisphere(f):
    P = np.random.default_rng(10).lognormal(0.0, 1.0, size=(100, f.dim))
    v, S = f._dual_support(P)
    assert np.max(np.abs(f._values(S) - 1.0)) <= 1e-13
    assert np.max(np.abs(np.einsum("ij,ij->i", P, S) / v - 1.0)) <= 1e-13


def test_pl_dual_support_is_the_attaining_body_vertex():
    rng = np.random.default_rng(27)
    for d in (2, 3, 4):
        for _ in range(8):
            f = PLAntinorm(rng.lognormal(0.0, 1.0, size=(rng.integers(1, 7), d)))
            V = f.body.vertices()
            P = rng.lognormal(0.0, 1.0, size=(50, d))
            P[:10, rng.integers(0, d)] = 0.0
            v, S = f._dual_support(P)
            match = np.all(S[:, None, :] == V[None, :, :], axis=2)   # (rows, vertices)
            assert np.all(match.sum(axis=1) == 1)
            R = P @ V.T
            assert np.array_equal(R[match], v) and np.array_equal(v, R.min(axis=1))
    assert PLAntinorm(np.eye(5))._dual_support(np.ones((1, 5))) is None   # no vertex enumeration


def test_cone_split_of_a_pl_piece_answers_k2_from_its_body():
    # the PL piece of construct1's k = 1 test and autopolar polygons split at
    # random apexes: on K2, the body's vertex clipped at the apex against the
    # K1 table's support query, which is never built for the answer
    rng = np.random.default_rng(5)
    pieces = [(PLAntinorm([[0.6, 0.8], [0.0, 1.25]]), (0.6, 0.8))]
    for k in range(1, 9):
        poly = construct2(random_autopolar_seed(k, rng)).antinorm()
        pieces += [(poly, (math.cos(t), math.sin(t))) for t in rng.uniform(0.05, 1.52, 2)]
    for f1, apex in pieces:
        for side in ("upper", "lower"):
            f = ConeSplitAntinorm(f1, apex, side=side, grid_n=4096)
            X = rng.lognormal(0.0, 1.0, size=(100, 2))
            X = X[~f._in_k1(X)]
            v, S = f._values_grads(X)
            assert len(X) and "_arc" not in vars(f)
            table_v, table_S = f._arc.support(X)
            assert np.all(np.abs(v - table_v) <= 1e-14 * table_v)
            assert np.all(np.linalg.norm(S - table_S, axis=1)
                          <= 1e-13 * np.linalg.norm(table_S, axis=1))


def test_closed_form_dual_of_a_selfdual_product_is_itself():
    # each side is exp of a weighted sum of logs; its rounding grows with
    # the size of the logs, 4 ulps per unit of sum_i w_i |log p_i|
    eps = np.finfo(float).eps
    rng = np.random.default_rng(9)
    for d in (2, 3, 4, 5, 6):
        for w in rng.dirichlet(np.ones(d), size=10):
            f = ProductAntinorm.selfdual(w)
            P = rng.lognormal(0.0, 1.0, size=(200, d))
            v = f._values(P)
            size = 1.0 + np.abs(np.log(P)) @ w
            assert np.all(np.abs(dual_values(f, P) - v) <= 4 * eps * size * v), w


def test_discontinuity_demo_values():
    tab = duality_discontinuity_demo([0.1, 0.4, 0.9])
    assert max(tab.dual_at_e1) <= 1e-6
    assert tab.limit_dual_at_e1 == pytest.approx(1.0, abs=1e-12)
    assert tab.max_bound_excess <= 1e-8


def _min_eps_smooth_dual(eps, P):
    # min over t of <p, (1, t^2)>/(1 + eps t) for p = (a, b), a >= b: the
    # stationary t solves eps b t^2 + 2 b t - eps a = 0; the root is written
    # without cancellation.  It is the dual where t >= 1, i.e. b <= eps a/(eps + 2)
    a, b = P.max(axis=1), P.min(axis=1)
    t = eps * a / (b + np.sqrt(b * b + eps * eps * a * b))
    return (a + b * t * t) / (1.0 + eps * t)


def test_min_eps_closed_form_and_bound():
    eps = 0.4
    f = catalog("min_eps", eps=eps)
    rng = np.random.default_rng(11)
    q = np.exp(rng.uniform(math.log(1e-8), math.log(eps**2 / 8), size=60))
    P = np.stack([np.ones_like(q), q], axis=1)
    vals = _dual2_batch(f, P)
    for v, qi, closed in zip(vals, q, _min_eps_smooth_dual(eps, P)):
        assert v == pytest.approx(closed, abs=1e-9)
        assert v <= (2.0 / eps) * math.sqrt(qi) + 1e-12


def test_young_report_rendering():
    rep = young_check(catalog("sum", dim=2), samples=100, seed=0)
    assert "max_young_violation" in rep.table()
    assert rep.to_dict()["samples"] == rep.samples


def _circle_arc_dual(R, P):
    # R (p + q) - R |(p, q)|, written without its cancellation near an axis
    return 2.0 * R * P[:, 0] * P[:, 1] / (P.sum(axis=1) + np.hypot(P[:, 0], P[:, 1]))


def test_dual2_batch_matches_closed_forms_to_1e13():
    P = np.random.default_rng(11).lognormal(0.0, 1.5, (1000, 2))
    R = 1.0 + math.sqrt(2.0)
    apex = np.array([1.0, 1.0]) / math.sqrt(2.0)
    product = ProductAntinorm.selfdual([0.3, 0.7])
    cases = [(catalog("sqrt2xy"), P, np.sqrt(2.0 * P[:, 0] * P[:, 1])),
             (product, P, product._values(P)),
             (catalog("circle_arc", radius=2.5), P, _circle_arc_dual(2.5, P)),
             (catalog("min", dim=2), P, P.sum(axis=1)),
             (catalog("sum", dim=2), P, P.min(axis=1))]
    for eps in (0.3, 0.9):
        Q = P[P[:, 1] <= eps * eps * P[:, 0] / 8.0]
        assert len(Q) >= 10
        cases.append((catalog("min_eps", eps=eps), Q, _min_eps_smooth_dual(eps, Q)))
    for side in ("upper", "lower"):   # self-dual, so its dual is itself
        f = ConeSplitAntinorm(catalog("circle_arc", radius=R), apex, side=side, grid_n=4096)
        cases.append((f, P, np.where(f._in_k1(P), f.f1._values(P), _circle_arc_dual(R, P))))
    for f, Q, closed in cases:
        assert np.max(np.abs(_dual2_batch(f, Q) / closed - 1.0)) <= 1e-13, f


def test_min_eps_kink_on_the_table_grid_closes_without_a_search():
    # the kink of min_eps at x = y is a node (u = 0) of the dual's logit
    # table; every p in its normal cone attains f* there, and the support
    # query closes those rows at the node instead of bisecting onto the jump
    eps = 0.5
    f = catalog("min_eps", eps=eps)
    a0, a1 = math.atan2(eps / 2, 1 + eps / 2), math.atan2(1 + eps / 2, eps / 2)
    angles = np.linspace(a0, a1, 202)[1:-1]
    P = np.stack([np.cos(angles), np.sin(angles)], axis=1) * np.linspace(0.5, 3.0, 200)[:, None]
    calls = []
    grads = f._grads
    f._grads = lambda X: calls.append(len(X)) or grads(X)
    vals = _dual2_batch(f, P)
    assert calls[0] == len(exprs._DUAL_U) and len(calls) - 1 <= 2   # the table, then no search
    expect = P.sum(axis=1) / (1.0 + eps)
    assert np.all(np.abs(vals - expect) <= 4 * np.spacing(expect))
    # away from the kink the closed form still holds
    q = np.exp(np.random.default_rng(13).uniform(math.log(1e-6), math.log(eps**2 / 8), 100))
    Q = np.stack([np.ones_like(q), q], axis=1)
    Q = np.concatenate([Q, Q[:, ::-1]])
    closed = _min_eps_smooth_dual(eps, Q)
    assert np.max(np.abs(_dual2_batch(f, Q) / closed - 1.0)) <= 1e-13


def test_arc_of_a_cone_split_queries_its_k1_arc_once():
    # the table's values and normals on K2 come from one support query of
    # the K1 table where the piece has no closed-form dual, and from none
    # where it has one
    apex = np.array([1.0, 1.0]) / math.sqrt(2.0)
    g = ConeSplitAntinorm(catalog("circle_arc"), apex, side="upper", grid_n=4096)
    _Arc(g, exprs._DUAL_U)
    assert "_arc" not in vars(g)   # the K1 table was never built
    f = ConeSplitAntinorm(symmetrize(catalog("min_eps"), 0.5), apex, side="upper", grid_n=4096)
    calls = []
    support = f._arc.support
    f._arc.support = lambda P: calls.append(len(P)) or support(P)
    arc = _Arc(f, exprs._DUAL_U)
    assert len(calls) == 1
    X = logit_points(arc.u)
    assert np.array_equal(arc.points, X / f._values(X)[:, None])
    assert np.allclose(arc.normals * np.hypot(*f._grads(X).T)[:, None], f._grads(X), rtol=1e-14)


def test_numeric_dual_2d_builds_one_inner_arc(monkeypatch):
    built = []
    init = _Arc.__init__
    monkeypatch.setattr(_Arc, "__init__", lambda self, f, u: built.append(f) or init(self, f, u))
    f = catalog("sqrt2xy")
    fstar = NumericDualAntinorm(f)
    P = np.random.default_rng(4).lognormal(0.0, 1.0, (5, 2))
    v, G = fstar._values(P), fstar._grads(P)
    v2, G2 = fstar._values_grads(P)
    assert built == [f]
    assert np.array_equal(v, v2) and np.array_equal(G, G2)
    assert np.array_equal(v, duality._dual2_batch(f, P))


@pytest.mark.parametrize("f", [catalog("sqrt2xy"), ProductAntinorm.selfdual([0.3, 0.7])],
                         ids=["sqrt2xy", "product"])
def test_numeric_dual_grads_2d_are_the_attaining_points(f):
    # f is self-dual, so the supergradient of its numeric dual is grad f
    P = np.random.default_rng(12).lognormal(0.0, 1.0, (200, 2))
    G = NumericDualAntinorm(f)._grads(P)
    assert np.max(np.abs(G / f._grads(P) - 1.0)) <= 1e-12


def test_dual2_batch_on_an_axis_takes_the_arc_end():
    # near the arc's ends the normals of a numeric dual round to the axes;
    # the dual at an axis is still the value at the arc's end, ~1e-6 here
    # for the +-45 logit cut, not at the first normal that rounds to it
    f = NumericDualAntinorm(ProductAntinorm.selfdual([0.3, 0.7]))
    assert np.all(_dual2_batch(f, np.array([[0.0, 1.0], [1.0, 0.0]])) <= 2e-6)
