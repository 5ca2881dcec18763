import math

import numpy as np
import pytest

from antinorms import (
    AutopolarSeed,
    PLAntinorm,
    ThetaRangeError,
    TrigContext,
    catalog,
    construct2,
    cosh_sinh,
    dual_pl,
    identity_check,
    random_autopolar_seed,
    theta_of_point,
)

HYP = TrigContext.build(catalog("sqrt2xy"))
K1 = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))


def test_theta_of_contact_is_zero():
    assert HYP.theta_of_point(HYP.contact) == pytest.approx(0.0, abs=1e-12)


def test_cosh_sinh_at_zero():
    c, s = cosh_sinh(HYP, 0.0)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_hyperbola_sector_matches_classical():
    for t in np.linspace(-5.0, 5.0, 41):
        c, s = HYP.cosh_sinh(float(t))
        assert c == pytest.approx(math.cosh(t), abs=1e-8)
        assert s == pytest.approx(math.sinh(t), abs=1e-8)


def test_hyperbola_sector_theta_of_classical_point():
    # frame point (cosh 1, sinh 1) has sector parameter 1
    t = 1.0
    x = (math.cosh(t) - math.sinh(t)) / math.sqrt(2.0)
    y = (math.cosh(t) + math.sinh(t)) / math.sqrt(2.0)
    assert HYP.theta_of_point([x, y]) == pytest.approx(1.0, abs=1e-10)


def test_hyperbola_literal_area():
    lit = TrigContext.build(catalog("sqrt2xy"), mode="literal")
    t = 1.0
    x = (math.cosh(t) - math.sinh(t)) / math.sqrt(2.0)
    y = (math.cosh(t) + math.sinh(t)) / math.sqrt(2.0)
    expect = math.cosh(1.0) * math.sinh(1.0) - 1.0
    assert lit.theta_of_point([x, y]) == pytest.approx(expect, abs=1e-10)
    c, s = lit.cosh_sinh(expect)
    assert c == pytest.approx(math.cosh(1.0), abs=1e-9)
    assert s == pytest.approx(math.sinh(1.0), abs=1e-9)


def test_theta_monotone_along_arc():
    phis = np.linspace(0.2, math.pi / 2 - 0.2, 25)
    f = catalog("sqrt2xy")
    pts = [np.array([math.cos(p), math.sin(p)]) / f.value([math.cos(p), math.sin(p)])
           for p in phis]
    thetas = [HYP.theta_of_point(p) for p in pts]
    assert np.all(np.diff(thetas) > 0)


def test_inverse_consistency():
    for ctx in (HYP, TrigContext.build(K1.antinorm())):
        lo, hi = ctx.theta_range()
        for t in np.linspace(max(lo, -3.0) + 0.05, min(hi, 3.0) - 0.05, 15):
            P = ctx.point_at(float(t))
            assert ctx.theta_of_point(P) == pytest.approx(t, abs=1e-8)


def test_theta_of_point_requires_antisphere():
    with pytest.raises(ThetaRangeError):
        HYP.theta_of_point([2.0, 2.0])


def test_polygon_range_and_linear_growth():
    ctx = TrigContext.build(K1.antinorm())
    lo, hi = ctx.theta_range()
    assert math.isinf(lo) and lo < 0          # horizontal ray sweeps unbounded area
    assert hi == pytest.approx(0.75, abs=1e-12)  # 2 * triangle area O-A0-A(-1)
    # small positive theta lands on the edge toward A_{-1} with linear area
    A0, Am1 = np.array([0.6, 0.8]), np.array([0.0, 1.25])
    for t in (0.05, 0.2, 0.6):
        P = ctx.point_at(t)
        tau = t / 0.75
        assert np.allclose(P, A0 + tau * (Am1 - A0), atol=1e-12)
    with pytest.raises(ThetaRangeError):
        ctx.point_at(0.76)


def test_k0_polygon_bounded_on_both_ray_sides():
    ctx = TrigContext.build(construct2(AutopolarSeed(0)).antinorm())
    lo, hi = ctx.theta_range()
    assert lo == pytest.approx(0.0, abs=1e-12)   # horizontal ray lies on the axis
    assert math.isinf(hi)                        # vertical ray at x = 1 sweeps area


def test_identity_hyperbola():
    rep = identity_check(HYP, n_samples=200)
    assert rep.checked == 200
    assert rep.max_residual <= 1e-7


def test_identity_finds_each_point_once(monkeypatch):
    # one boundary inversion for P_t and one for its pole's point, per theta
    ctx = TrigContext.build(catalog("sqrt2xy"))
    thetas = [-1.0, 0.3, 1.2]
    calls = []
    point_at = ctx.point_at
    monkeypatch.setattr(ctx, "point_at", lambda t: calls.append(t) or point_at(t))
    rep = identity_check(ctx, thetas=thetas)
    assert rep.checked == 3 and rep.max_residual <= 1e-7
    assert len(calls) == 2 * len(thetas)


def test_identity_autopolar_polygons():
    rng = np.random.default_rng(21)
    for k in (1, 3, 5):
        poly = construct2(random_autopolar_seed(k, rng))
        ctx = TrigContext.build(poly.antinorm())
        rep = identity_check(ctx, n_samples=120)
        assert rep.checked > 60
        assert rep.max_residual <= 1e-7, (k, rep)


def test_identity_dual_pair_sum_min():
    fsum = catalog("sum", dim=2)
    fmin = dual_pl(fsum)
    ctx = TrigContext.build(PLAntinorm([[1.0, 1.0]]))
    ctx_dual = TrigContext.build(fmin)
    rep = identity_check(ctx, ctx_dual=ctx_dual, n_samples=60)
    assert rep.checked > 30
    assert rep.max_residual <= 1e-7


def test_identity_at_theta_zero_exact():
    rep = identity_check(HYP, thetas=[0.0])
    assert rep.max_residual <= 1e-12


def test_identity_frame_independence_symmetric():
    # relabeling the two coordinates leaves the residual unchanged for
    # symmetric antispheres
    rep = identity_check(HYP, thetas=list(np.linspace(-2, 2, 21)))
    mirrored = identity_check(HYP, thetas=list(-np.linspace(-2, 2, 21)))
    assert abs(rep.max_residual - mirrored.max_residual) <= 1e-9


def test_corner_skip_reporting():
    poly = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))
    ctx = TrigContext.build(poly.antinorm())
    rep = identity_check(ctx, thetas=[0.0, 0.3])  # theta = 0 sits on the corner A0
    assert rep.corner_skips >= 1


def test_theta_of_point_module_function():
    assert theta_of_point(HYP, HYP.contact) == pytest.approx(0.0, abs=1e-12)
