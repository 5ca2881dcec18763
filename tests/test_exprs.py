import math

import numpy as np
import pytest

from antinorms import (
    CallableAntinorm,
    DimensionMismatchError,
    NegativeCoordinateError,
    PLAntinorm,
    ProductAntinorm,
    antinorm_axioms_check,
    canonicalize_pl,
    catalog,
    continuous_extension_eval,
    symmetrize,
)


def test_eval_sum_linear():
    f = catalog("sum", dim=2)
    assert f.value([1.0, 2.0]) == 3.0


def test_eval_k1_polygon_antinorm():
    # min{0.6x + 0.8y, y/0.8} at (1,1): min(1.4, 1.25)
    f = PLAntinorm([[0.6, 0.8], [0.0, 1.25]])
    assert f.value([1.0, 1.0]) == pytest.approx(1.25, abs=1e-15)


def test_eval_product_at_ones_is_sqrt_d():
    for d in (2, 3, 5):
        f = ProductAntinorm(np.full(d, 1.0 / d))
        assert f.value(np.ones(d)) == pytest.approx(math.sqrt(d), abs=1e-12)


def test_eval_rejects_negative_and_mismatched_points():
    f = catalog("sum", dim=2)
    with pytest.raises(NegativeCoordinateError):
        f.value([1.0, -0.5])
    with pytest.raises(DimensionMismatchError):
        f.value([1.0, 1.0, 1.0])


def test_eval_apex_is_zero():
    for f in (catalog("sqrt2xy"), ProductAntinorm([0.5, 0.5]), catalog("min", dim=2)):
        assert f.value([0.0, 0.0]) == 0.0


def test_product_boundary_conventions():
    # zero weight ignores its coordinate even at 0; positive weight forces 0
    f = ProductAntinorm([1.0, 0.0])
    assert f.value([2.0, 0.0]) == pytest.approx(2.0 * math.sqrt(2.0))
    g = ProductAntinorm([0.5, 0.5])
    assert g.value([1.0, 0.0]) == 0.0


def test_continuous_extension_discontinuous_3d_example():
    f = catalog("rootsum3_drop")
    assert f.value([1.0, 1.0, 0.0]) == 2.0
    F = continuous_extension_eval(f, [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    assert F == pytest.approx(4.0, abs=1e-6)


def test_continuous_extension_of_continuous_antinorm_is_f():
    f = catalog("sum", dim=2)
    F = continuous_extension_eval(f, [1.0, 0.0], [1.0, 1.0])
    assert F == pytest.approx(1.0, abs=1e-12)


def test_continuous_extension_axis_point():
    # limit along (0,0,1) + t((1,1,1)-(0,0,1)) of (sum of square roots)^2 is 1
    f = catalog("rootsum3_drop")
    F = continuous_extension_eval(f, [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert F == pytest.approx(1.0, abs=1e-6)


def test_continuous_extension_witness_independence():
    f = catalog("rootsum3_drop")
    a = continuous_extension_eval(f, [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    b = continuous_extension_eval(f, [1.0, 1.0, 0.0], [0.3, 2.0, 0.7])
    assert abs(a - b) <= 1e-6


def test_continuous_extension_dominates_f():
    f = catalog("rootsum3_drop")
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 2, size=3)
        x[rng.integers(0, 3)] = 0.0
        F = continuous_extension_eval(f, x, np.ones(3))
        assert F >= f.value(x) - 1e-9


def test_continuous_extension_rejects_boundary_witness():
    with pytest.raises(NegativeCoordinateError):
        continuous_extension_eval(catalog("sum", dim=2), [1.0, 0.0], [1.0, 0.0])


def test_symmetrize_min_of_projections():
    f = PLAntinorm([[1.0, 0.0]])  # f(x, y) = x
    g = symmetrize(f, -math.inf)
    assert g.value([3.0, 0.5]) == pytest.approx(0.5)
    h = symmetrize(f, 1.0)
    assert h.value([3.0, 1.0]) == pytest.approx(2.0)


def test_symmetrize_geometric_mean():
    f = PLAntinorm([[1.0, 0.0]])
    g = symmetrize(f, 0.0)
    assert g.value([4.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_symmetrize_permutation_invariance():
    rng = np.random.default_rng(1)
    f = catalog("min_eps", eps=0.3)
    for p in (-math.inf, -2.0, 0.0, 0.5, 1.0):
        g = symmetrize(f, p)
        for _ in range(10):
            x = rng.uniform(0.1, 3, size=2)
            assert g.value(x) == pytest.approx(g.value(x[::-1]), rel=1e-12)


def test_symmetrize_rejects_p_above_one():
    with pytest.raises(ValueError):
        symmetrize(catalog("sum", dim=2), 1.5)


def test_canonicalize_drops_scaled_duplicate():
    f = canonicalize_pl(PLAntinorm([[1.0, 1.0], [2.0, 2.0]]))
    assert f.functionals.tolist() == [[1.0, 1.0]]


def test_canonicalize_drops_dominated_row():
    f = canonicalize_pl(PLAntinorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert f.functionals.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_canonicalize_keeps_singleton():
    f = canonicalize_pl(PLAntinorm([[1.0, 0.0]]))
    assert f.functionals.tolist() == [[1.0, 0.0]]


def test_canonicalize_preserves_values():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.uniform(0, 2, size=(6, 3))
        A[A < 0.2] = 0.0
        A = A[np.any(A > 0, axis=1)]
        if len(A) == 0:
            continue
        f = PLAntinorm(A)
        g = canonicalize_pl(f)
        X = rng.uniform(0, 3, size=(50, 3))
        assert np.allclose(f._values(X), g._values(X), atol=1e-10)


def test_axioms_check_catalog_clean():
    assert antinorm_axioms_check(catalog("sum", dim=2), 300, 0).ok(1e-10)
    assert antinorm_axioms_check(catalog("sqrt2xy"), 300, 0).ok(1e-10)
    assert antinorm_axioms_check(ProductAntinorm([0.25, 0.75]), 300, 1).ok(1e-10)
    assert antinorm_axioms_check(catalog("min_eps", eps=0.7), 300, 2).ok(1e-10)


def test_axioms_check_flags_convex_max():
    g = CallableAntinorm(lambda X: X.max(axis=1), 2, name="max")
    rep = antinorm_axioms_check(g, 300, 0)
    assert rep.concavity > 1e-3


def test_axioms_check_deterministic():
    a = antinorm_axioms_check(catalog("min_eps", eps=0.4), 200, 42)
    b = antinorm_axioms_check(catalog("min_eps", eps=0.4), 200, 42)
    assert a == b


def test_product_selfdual_scale_matches_sqrt_d_for_uniform():
    f = ProductAntinorm.selfdual([0.5, 0.5])
    assert f.scale == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_product_repr_shows_its_scale():
    assert repr(ProductAntinorm([0.3, 0.7])).endswith("scale=1.4142135623730951)")
