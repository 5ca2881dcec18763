import json
import math

import numpy as np
import pytest

from antinorms import (
    AutopolarSeed,
    ConeSplitAntinorm,
    PLAntinorm,
    ProductAntinorm,
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
from antinorms._search import logit_points

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
    # one boundary inversion for P_t and one for its pole's point, per theta;
    # point_at takes a batch, so count the theta rows it is given
    ctx = TrigContext.build(catalog("sqrt2xy"))
    thetas = [-1.0, 0.3, 1.2]
    calls = []
    point_at = ctx.point_at
    monkeypatch.setattr(ctx, "point_at", lambda t: calls.extend(np.atleast_1d(t)) or point_at(t))
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


def test_identity_residual_keeps_its_digits_where_cosh_is_large():
    # in frame coordinates cosh t cosh t* + sinh t sinh t* - 1 cancels:
    # it read 1 at theta = +-20 on sqrt2xy (cosh^2 ~ 5.9e16)
    for mode in ("sector", "literal"):
        ctx = TrigContext.build(catalog("sqrt2xy"), mode=mode)
        rep = identity_check(ctx, thetas=[-20.0, -10.0, 10.0, 20.0])
        assert rep.checked == 4 and rep.max_residual <= 1e-12, mode


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


def _inversion_contexts():
    apex = np.array([1.0, 1.0]) / math.sqrt(2.0)
    split = [ConeSplitAntinorm(catalog("circle_arc"), apex, side=side, grid_n=4096)
             for side in ("lower", "upper")]
    # sqrt2xy's integrand is the constant 1/2, so its cell interpolant is exact
    return [(TrigContext.build(catalog("sqrt2xy")), True),
            (TrigContext.build(ProductAntinorm.selfdual([0.3, 0.7])), False),
            (TrigContext.build(split[0]), False),
            (TrigContext.build(split[1]), False)]


@pytest.mark.parametrize("ctx, exact", _inversion_contexts(),
                         ids=["sqrt2xy", "product", "cone_split", "cone_split_upper"])
def test_batched_inversion_is_one_antinorm_call_and_inverts_theta(ctx, exact):
    lo, hi = ctx.theta_range()   # the table's end cuts the range of some below 3
    thetas = np.linspace(max(lo, -3.0), min(hi - 0.01, 3.0), 25)
    calls = []
    values = ctx.f._values
    ctx.f._values = lambda X: calls.append(len(X)) or values(X)
    P = ctx.point_at(thetas)
    assert calls == [len(thetas)]
    del ctx.f._values
    back = np.array([ctx.theta_of_point(p) for p in P])
    assert np.max(np.abs(back - thetas)) <= 1e-12
    assert np.array_equal(P[7], ctx.point_at(float(thetas[7])))   # a scalar is one row
    if exact:
        CS = ctx.frame_coords(P)
        assert np.all(np.abs(CS - np.stack([np.cosh(thetas), np.sinh(thetas)], axis=1))
                      <= 1e-13 * np.cosh(thetas)[:, None])


@pytest.mark.parametrize("w", [0.3, 0.45, 0.7])
def test_product_theta_matches_the_closed_form(w):
    # f = c x^w y^(1-w): along u = log(P_0/P_1) the sector rate is e^((1-2w)u)/c^2
    f = ProductAntinorm.selfdual([w, 1.0 - w])
    ctx = TrigContext.build(f)
    c, a = f.value([0.5, 0.5]) / 0.5, 1.0 - 2.0 * w
    u = np.linspace(-8.0, 8.0, 33)
    X = logit_points(u)
    u_c = math.log(ctx.contact[0] / ctx.contact[1])
    exact = (math.exp(a * u_c) - np.exp(a * u)) / (a * c * c)
    theta = np.array([ctx.theta_of_point(x / f.value(x)) for x in X])
    assert np.all(np.abs(theta - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


def test_smooth_boundary_integrates_on_the_arc_cells():
    f = ProductAntinorm.selfdual([0.3, 0.7])
    quad = 16 * (len(f.arc.u) - 1)   # builds f.arc before the count
    calls = []
    values = f._values
    f._values = lambda X: calls.append(len(X)) or values(X)
    ctx = TrigContext.build(f)
    assert np.array_equal(ctx._boundary.taus, -f.arc.u[::-1])
    assert max(calls) == quad and sum(calls) < quad + 16   # besides, a few single points


def test_batched_point_at_marks_rows_outside_the_range():
    lo, hi = HYP.theta_range()
    P = HYP.point_at(np.array([lo - 1.0, 0.0, hi + 1.0]))
    assert np.isnan(P[[0, 2]]).all() and np.allclose(P[1], HYP.contact, atol=1e-12)
    with pytest.raises(ThetaRangeError):
        HYP.point_at(hi + 1.0)
    ctx = TrigContext.build(K1.antinorm())
    P = ctx.point_at(np.array([0.2, 0.76]))
    assert np.array_equal(P[0], ctx.point_at(0.2)) and np.isnan(P[1]).all()


def test_identity_reports_each_residual():
    thetas = [-1.0, 0.3, 1.2]
    rep = identity_check(HYP, thetas=thetas)
    assert rep.residuals.shape == (3,) and np.all(rep.residuals <= 1e-7)
    assert rep.max_residual == np.max(rep.residuals)
    poly = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))
    rep = identity_check(TrigContext.build(poly.antinorm()), thetas=[0.0, 0.3])
    assert math.isnan(rep.residuals[0]) and rep.residuals[1] <= 1e-7   # theta = 0 is the corner A0


def test_pl_point_at_maps_a_batch_in_one_boundary_call():
    ctx = TrigContext.build(K1.antinorm())
    calls = []
    point_at = ctx._boundary.point_at
    ctx._boundary.point_at = lambda q: calls.append(np.size(q)) or point_at(q)
    P = ctx.point_at(np.array([-1.0, 0.05, 0.2, 0.6, 0.76]))
    assert calls == [4] and np.isnan(P[4]).all()   # 0.76 is past the range end 0.75


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["pl", "min"])
def test_literal_theta_zero_is_the_contact(rows):
    # xi * eta at the contact rounds to ~1e-16 rather than 0
    ctx = TrigContext.build(PLAntinorm(rows), mode="literal")
    assert np.allclose(ctx.point_at(0.0), ctx.contact, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("f", [
    construct2(random_autopolar_seed(5, np.random.default_rng(3))).antinorm(),
    ProductAntinorm.selfdual([0.3, 0.7]),
    ConeSplitAntinorm(catalog("circle_arc"), np.array([1.0, 1.0]) / math.sqrt(2.0),
                      side="lower", grid_n=4096),
], ids=["autopolar", "product", "cone_split"])
def test_literal_batch_round_trips(f):
    ctx = TrigContext.build(f, mode="literal")
    lo, hi = ctx.theta_range()
    thetas = np.linspace(max(lo, -3.0), min(hi, 3.0), 13)[1:-1]
    back = np.array([ctx.theta_of_point(p) for p in ctx.point_at(thetas)])
    assert np.max(np.abs(back - thetas)) <= 1e-12


@pytest.mark.parametrize("f", [
    construct2(AutopolarSeed(0)).antinorm(),   # literal theta is 0 along its vertical ray
    PLAntinorm([[1.0, 0.0], [0.0, 1.0]]),
    PLAntinorm([[1.0, 2.0], [3.0, 1.0]]),
    catalog("sqrt2xy"),
], ids=["axis_contact", "min", "pl", "sqrt2xy"])
def test_literal_range_is_what_point_at_reaches(f):
    ctx = TrigContext.build(f, mode="literal")
    lo, hi = ctx.theta_range()
    probes = np.array([-1e12, -1e3, -1.0, -0.1, 0.1, 1.0, 1e3, 1e12])
    inside = probes[(lo < probes) & (probes < hi)]
    if np.isfinite(lo) and np.isfinite(hi):
        inside = np.concatenate([inside, lo + (hi - lo) * np.array([1e-6, 0.25, 0.5, 0.75])])
    assert np.isfinite(ctx.point_at(inside)).all()
    outside = [t for t in (lo - 1.0 - abs(lo), hi + 1.0 + abs(hi), *probes)
               if np.isfinite(t) and not lo <= t <= hi]
    assert outside
    for t in outside:
        with pytest.raises(ThetaRangeError):
            ctx.point_at(float(t))


def test_literal_pole_on_the_contact_tangent_has_no_parameter(tmp_path, capsys):
    # the pole A_{-1} of the horizontal ray lies on the segment A_0 -> A_{-1},
    # where literal theta is 0 throughout; the point at 0 is the contact, so
    # the pole has no parameter (the residual used to be taken there)
    from antinorms.cli import main

    ctx = TrigContext.build(K1.antinorm(), mode="literal")
    res = identity_check(ctx, thetas=np.array([-2.0, -1.0, -0.5])).residuals
    assert np.isinf(res).all()
    sector = identity_check(TrigContext.build(K1.antinorm()), thetas=np.array([-1.0, -0.5, 0.2]))
    assert sector.max_residual <= 1e-12
    pl = tmp_path / "k1.json"
    pl.write_text(json.dumps({"type": "pl", "dim": 2, "functionals": K1.vertices.tolist()}))
    assert main(["trig", "--antinorm", str(pl), "--theta-range", "-2:-0.5:3", "--mode", "literal",
                 "--quiet"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["nan"] * 3
