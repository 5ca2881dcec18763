import math

import numpy as np
import pytest
from scipy.stats import binom

from antinorms import (
    ConicPolytope,
    DegenerateBodyError,
    MatrixFamily,
    NegativeCoordinateError,
    PLAntinorm,
    ProductAntinorm,
    catalog,
    ct_switching_check,
    invariant_body_iterate,
    lsr_lower_certificate,
    lsr_upper,
    lyapunov_antinorm_check,
    lyapunov_exponent_mc,
    perron_certificate,
    transpose_extremal_check,
)

DIAG = MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
SIMPLEX = ConicPolytope.from_halfspaces([[1.0, 1.0]])


def shear_family(q, probs=(0.5, 0.5)):
    return MatrixFamily([q * np.array([[1.0, 1.0], [0.0, 1.0]]),
                         q * np.array([[1.0, 0.0], [1.0, 1.0]])],
                        probabilities=probs)


def brute_force_lsr_upper(mats, max_len):
    """Independent oracle: min rho(product)^(1/k) over ALL words, by level
    expansion of the full product tree (no necklace pruning)."""
    mats = np.asarray(mats, dtype=float)
    level = np.eye(mats.shape[1])[None, :, :]
    best = math.inf
    for k in range(1, max_len + 1):
        level = np.einsum("aij,bjk->abik", mats, level).reshape(-1, *level.shape[1:])
        rho = np.abs(np.linalg.eigvals(level)).max(axis=1)
        best = min(best, float(np.min(rho) ** (1.0 / k)))
    return best


# ---------------------------------------------------------------------------
# family flags
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(NegativeCoordinateError):
        MatrixFamily([[[1.0, -0.1], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        MatrixFamily([np.eye(2)], probabilities=[0.7])


def test_invariant_subspace_flag_matches_strong_components():
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(8)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        mats = (rng.random((int(rng.integers(1, 3)), d, d)) < rng.uniform(0.05, 0.6)).astype(float)
        n_comp, _ = connected_components(mats.sum(axis=0), directed=True, connection="strong")
        assert MatrixFamily(mats).has_common_invariant_subspace == (n_comp > 1)


def test_family_flags():
    assert DIAG.has_common_invariant_subspace       # both axes are invariant
    assert not DIAG.has_zero_row
    sh = shear_family(0.9)
    assert not sh.has_common_invariant_subspace
    zr = MatrixFamily([[[1.0, 1.0], [0.0, 0.0]]])
    assert zr.has_zero_row and zr.degenerate


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def test_lsr_upper_single_matrix():
    val, word = lsr_upper(MatrixFamily([[[2.0, 1.0], [0.0, 3.0]]]), max_len=8)
    assert val == pytest.approx(3.0, abs=1e-9)
    assert word == "A"


def test_lsr_upper_diagonal_pair():
    val, word = lsr_upper(DIAG, max_len=2)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert word == "AB"


def test_lsr_upper_scalar_family():
    val, word = lsr_upper(MatrixFamily([0.5 * np.eye(2), np.eye(2)]), max_len=3)
    assert val == pytest.approx(0.5, abs=1e-15)
    assert word == "A"


def test_lsr_upper_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(4):
        mats = rng.uniform(0, 1.2, size=(2, 2, 2))
        fam = MatrixFamily(mats)
        a, _ = lsr_upper(fam, max_len=7)
        b = brute_force_lsr_upper(mats, 7)
        assert a == pytest.approx(b, rel=1e-10)


def test_lsr_upper_guards():
    with pytest.raises(ValueError):
        lsr_upper(DIAG, max_len=0)
    with pytest.raises(ValueError):
        lsr_upper(MatrixFamily([np.eye(2)] * 3), max_len=16)


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------

def test_perron_certificate_exact():
    A = [[2.0, 1.0], [0.0, 3.0]]
    f = perron_certificate(A)
    gamma = lsr_lower_certificate(MatrixFamily([A]), f)
    assert gamma == pytest.approx(3.0, abs=1e-9)


def test_certificate_homogeneous_family():
    gamma = lsr_lower_certificate(MatrixFamily([2.0 * np.eye(2)]), PLAntinorm([[0.3, 0.9]]))
    assert gamma == pytest.approx(2.0, abs=1e-12)


def test_certificate_row_sum_growth():
    fam = MatrixFamily([[[1.0, 1.0], [1.0, 1.0]]])
    gamma = lsr_lower_certificate(fam, catalog("min", dim=2))
    assert gamma >= 1.0


def test_certificate_exact_product_antinorm_diag():
    # the geometric-mean antinorm certifies sqrt(2) exactly for the diagonal pair
    gamma = lsr_lower_certificate(DIAG, ProductAntinorm([0.5, 0.5]))
    assert gamma == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_certificate_pl_cap_on_diagonal_family():
    # no piecewise-linear antinorm can certify more than 1 for the diagonal
    # pair: the axes are invariant subspaces where PL decay is linear
    for f in (catalog("min", dim=2), catalog("sum", dim=2),
              PLAntinorm(np.stack([1.0 / (2 * np.linspace(0.1, 2, 64)),
                                   np.linspace(0.1, 2, 64)], axis=1))):
        gamma = lsr_lower_certificate(DIAG, f)
        assert gamma <= 1.0 + 1e-9


def test_bound_consistency():
    rng = np.random.default_rng(3)
    for _ in range(5):
        mats = rng.uniform(0, 1.0, size=(2, 2, 2)) + 0.05
        fam = MatrixFamily(mats)
        upper, _ = lsr_upper(fam, max_len=8)
        res = invariant_body_iterate(fam, SIMPLEX, iters=10)
        lower = lsr_lower_certificate(fam, res.antinorm)
        assert lower <= upper + 1e-9


def test_scaling_equivariance():
    fam = shear_family(0.8)
    up1, _ = lsr_upper(fam, max_len=6)
    up2, _ = lsr_upper(fam.scaled(3.0), max_len=6)
    assert up2 == pytest.approx(3.0 * up1, rel=1e-12)
    g1 = lsr_lower_certificate(fam, catalog("sum", dim=2))
    g2 = lsr_lower_certificate(fam.scaled(3.0), catalog("sum", dim=2))
    assert g2 == pytest.approx(3.0 * g1, rel=1e-10)


# ---------------------------------------------------------------------------
# invariant body iteration
# ---------------------------------------------------------------------------

def test_body_iterate_scalar_family_one_step():
    res = invariant_body_iterate(MatrixFamily([1.7 * np.eye(2)]), SIMPLEX, iters=1)
    assert res.gamma_low == pytest.approx(1.7, abs=1e-12)
    assert res.gamma_high == pytest.approx(1.7, abs=1e-12)


def test_body_iterate_diagonal_bracket():
    res = invariant_body_iterate(DIAG, SIMPLEX, iters=12)
    assert res.gamma_low <= math.sqrt(2.0) <= res.gamma_high
    assert res.gamma_high - res.gamma_low <= 0.05
    oracle = brute_force_lsr_upper(DIAG.matrices, 16)
    assert res.gamma_low - 1e-9 <= oracle <= res.gamma_high + 1e-9


def test_body_iterate_shear_bracket_contains_oracle():
    fam = shear_family(0.9)
    res = invariant_body_iterate(fam, SIMPLEX, iters=12)
    upper, _ = lsr_upper(fam, max_len=12)
    assert res.gamma_low - 1e-9 <= upper <= res.gamma_high + 1e-9
    assert res.gamma_high == pytest.approx(0.9, abs=1e-12)  # word A^k is optimal


def test_body_iterate_interval_tightens():
    res5 = invariant_body_iterate(DIAG, SIMPLEX, iters=5)
    res12 = invariant_body_iterate(DIAG, SIMPLEX, iters=12)
    assert res12.gamma_high <= res5.gamma_high + 1e-12
    assert res12.gamma_low >= res5.gamma_low - 1e-12


def test_body_iterate_transposed_support_relation():
    # support function of the iterate is the antinorm iterate for the family
    res = invariant_body_iterate(DIAG, SIMPLEX, iters=3)
    W = res.body.vertices()
    assert np.all(W > 0)


# ---------------------------------------------------------------------------
# transpose duality
# ---------------------------------------------------------------------------

def test_transpose_duality_three_families():
    rng = np.random.default_rng(4)
    fams = [
        MatrixFamily([1.3 * np.eye(2)]),
        shear_family(0.9),
        MatrixFamily(rng.uniform(0.1, 1.0, size=(2, 2, 2))),
    ]
    for fam in fams:
        res = invariant_body_iterate(fam, SIMPLEX, iters=10)
        rep = transpose_extremal_check(fam, res.antinorm, tol=0.02)
        assert rep.gammas_match, (rep.gamma_primal, rep.gamma_dual_transposed)


def test_transpose_check_body_residual_small_for_scalar():
    rep = transpose_extremal_check(MatrixFamily([2.0 * np.eye(2)]), PLAntinorm([[1.0, 1.0]]))
    assert rep.body_residual <= 1e-10
    assert rep.passed


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

def test_mc_scalar_family_exact():
    fam = MatrixFamily([[[2.0]]], probabilities=[1.0])
    mc = lyapunov_exponent_mc(fam, steps=50, trials=4, seed=0)
    assert mc.estimate == pytest.approx(math.log(2.0), abs=1e-12)
    assert mc.stderr == 0.0


def test_mc_matches_binomial_dp_oracle():
    fam = MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])], probabilities=[0.5, 0.5])
    steps = 1000
    mc = lyapunov_exponent_mc(fam, steps=steps, trials=48, seed=3)
    a = np.arange(steps + 1)
    pmf = binom.pmf(a, steps, 0.5)
    oracle = float(np.sum(pmf * np.maximum(a, steps - a))) * math.log(2.0) / steps
    assert abs(mc.estimate - oracle) <= 3.0 * max(mc.stderr, 1e-12)


def test_mc_matches_long_run_oracle_shear():
    fam = shear_family(0.8)
    mc = lyapunov_exponent_mc(fam, steps=2000, trials=24, seed=5)
    long_run = lyapunov_exponent_mc(fam, steps=200000, trials=1, seed=99)
    assert abs(mc.estimate - long_run.estimate) <= 3.0 * mc.stderr + 2e-3


def test_mc_deterministic_and_guarded():
    fam = shear_family(0.8)
    a = lyapunov_exponent_mc(fam, steps=100, trials=8, seed=7)
    b = lyapunov_exponent_mc(fam, steps=100, trials=8, seed=7)
    assert a == b
    with pytest.raises(ValueError):
        lyapunov_exponent_mc(MatrixFamily([np.eye(2)]), steps=10)
    zr = MatrixFamily([[[1.0, 1.0], [0.0, 0.0]]], probabilities=[1.0])
    with pytest.raises(DegenerateBodyError):
        lyapunov_exponent_mc(zr, steps=10)
    assert lyapunov_exponent_mc(zr, steps=10, trials=2, seed=0, force=True)


def test_mc_scaling_shifts_by_log():
    fam = shear_family(0.8)
    a = lyapunov_exponent_mc(fam, steps=500, trials=8, seed=11)
    b = lyapunov_exponent_mc(fam.scaled(2.0), steps=500, trials=8, seed=11)
    assert b.estimate - a.estimate == pytest.approx(math.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Lyapunov antinorm check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.72, 0.8, 0.99])
def test_shear_counterexample(q):
    fam = shear_family(q)
    rep = lyapunov_antinorm_check(fam, catalog("sum", dim=2), samples=400, seed=2)
    assert rep.verdict == "anti_lyapunov"
    assert rep.min_ratio >= q * math.sqrt(2.0) - 1e-9
    # the dual antinorm min{x,y} fails at (1,1): ratio q < 1
    fmin = catalog("min", dim=2)
    vals = [fmin.value(A @ np.ones(2)) for A in fam.matrices]
    assert math.sqrt(vals[0] * vals[1]) == pytest.approx(q, abs=1e-12)


def test_scalar_contraction_is_lyapunov():
    fam = MatrixFamily([0.5 * np.eye(2)], probabilities=[1.0])
    rep = lyapunov_antinorm_check(fam, catalog("sum", dim=2), samples=200, seed=0)
    assert rep.verdict == "lyapunov"
    assert rep.min_ratio == pytest.approx(0.5, abs=1e-12)
    assert rep.max_ratio == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# continuous-time switching
# ---------------------------------------------------------------------------

def test_ct_minus_identity_linear_exact():
    fam = MatrixFamily([-np.eye(2)], allow_negative=True)
    rep = ct_switching_check(fam, catalog("sum", dim=2), s=1e-3, samples=64, seed=0)
    assert rep.eps == pytest.approx(1e-3, abs=1e-12)
    assert rep.lyapunov


def test_ct_metzler_first_order_rate():
    fam = MatrixFamily([np.diag([-1.0, -2.0])], allow_negative=True)
    rep = ct_switching_check(fam, catalog("sqrt2xy"), s=1e-3, samples=64, seed=0)
    assert rep.eps == pytest.approx(1.5e-3, rel=2e-3)
    assert abs(rep.eps_dual - rep.eps) <= 0.1 * rep.eps


def test_ct_rejects_bad_step():
    fam = MatrixFamily([np.array([[-5.0, 0.0], [0.0, -1.0]])], allow_negative=True)
    with pytest.raises(NegativeCoordinateError):
        ct_switching_check(fam, catalog("sum", dim=2), s=0.5)
