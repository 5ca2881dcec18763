import math

import numpy as np
import pytest

from antinorms import (
    NumericDualAntinorm,
    PLAntinorm,
    ProductAntinorm,
    canonicalize_pl,
    catalog,
    double_dual_check,
    dual_numeric,
    dual_pl,
    duality_discontinuity_demo,
    min_eps_dual_closed,
    symmetrize,
    young_check,
)
from antinorms import duality
from antinorms.duality import _dual2_batch, dual_values


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
    fstar = NumericDualAntinorm(f, tol=1e-8, resolution=16, n_starts=2, maxiter=150)
    x = np.array([0.5, 0.5, 0.0])  # scaled copy of (1,1,0)
    val = dual_numeric(fstar, x, tol=1e-6, resolution=10, n_starts=2, maxiter=150) * 2.0
    assert val == pytest.approx(4.0, abs=1e-4)
    assert f.value([1.0, 1.0, 0.0]) == 2.0


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


def test_discontinuity_demo_values():
    tab = duality_discontinuity_demo([0.1, 0.4, 0.9])
    assert max(tab.dual_at_e1) <= 1e-6
    assert tab.limit_dual_at_e1 == pytest.approx(1.0, abs=1e-12)
    assert tab.max_bound_excess <= 1e-8


def test_min_eps_closed_form_and_bound():
    eps = 0.4
    f = catalog("min_eps", eps=eps)
    rng = np.random.default_rng(11)
    q = np.exp(rng.uniform(math.log(1e-8), math.log(eps**2 / 8), size=60))
    P = np.stack([np.ones_like(q), q], axis=1)
    vals = _dual2_batch(f, P)
    for v, qi in zip(vals, q):
        assert v == pytest.approx(min_eps_dual_closed(eps, 1.0, qi), abs=1e-9)
        assert v <= (2.0 / eps) * math.sqrt(qi) + 1e-12


def test_min_eps_closed_form_regime_guard():
    with pytest.raises(ValueError):
        min_eps_dual_closed(0.4, 1.0, 1.0)


def test_young_report_rendering():
    rep = young_check(catalog("sum", dim=2), samples=100, seed=0)
    assert "max_young_violation" in rep.table()
    assert rep.to_dict()["samples"] == rep.samples
