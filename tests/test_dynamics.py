import itertools
import math
from fractions import Fraction

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


def test_pl_certificate_is_rounded_below_the_exact_gamma():
    # f = <u, x> has the vertices e_i / u_i, so the exact gamma of the float
    # certificate is min_i (u A)_i / u_i in rationals; the float minimum
    # over the rounded vertices exceeded it in about half of these cases
    # until it was rounded down
    for A in np.random.default_rng(17).uniform(0.0, 1.0, (2000, 2, 2)):
        f = perron_certificate(A)
        u = [Fraction(v) for v in f.functionals[0].tolist()]
        M = [[Fraction(v) for v in row] for row in A.tolist()]
        exact = min((u[0] * M[0][i] + u[1] * M[1][i]) / u[i] for i in range(2) if u[i] > 0)
        assert Fraction(lsr_lower_certificate(MatrixFamily([A]), f)) <= exact


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
        rep = transpose_extremal_check(fam, res.antinorm)
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


# ---------------------------------------------------------------------------
# batched kernels against scalar references
# ---------------------------------------------------------------------------

def test_word_values_upper_bounds_exact_rho():
    import mpmath

    from antinorms.dynamics import _word_values

    rng = np.random.default_rng(31)
    checked = nilpotent = 0
    with mpmath.workdps(60):
        for t in range(160):
            d, m, k = int(rng.integers(2, 5)), 3, int(rng.integers(1, 5))
            mats = rng.uniform(0.0, 1.0, (m, d, d)) * (rng.random((m, d, d)) < 0.5)
            if t % 4 == 0:      # strictly upper triangular up to one permutation
                perm = rng.permutation(d)
                mats = np.triu(mats, 1)[:, perm][:, :, perm]
            elif t % 4 == 1:    # block upper triangular: reducible products
                mats[:, d // 2:, :d // 2] = 0.0
            mats *= 10.0 ** rng.uniform(-60.0, 60.0, (m, 1, 1))
            words = rng.integers(0, m, size=(4, k))
            _, upper = _word_values(mats, words)
            for word, up in zip(words, upper):
                S = np.eye(d, dtype=bool)
                for i in word:
                    S = (mats[i] > 0).astype(int) @ S > 0
                if not np.any(np.linalg.matrix_power(S.astype(int), d)):
                    assert up == 0.0          # nilpotent: mpmath's eig is noise there
                    nilpotent += 1
                    continue
                P = mpmath.eye(d)
                for i in word:
                    P = mpmath.matrix(mats[i].tolist()) * P
                rho = max(abs(e) for e in mpmath.eig(P, left=False, right=False))
                assert up >= rho ** (mpmath.mpf(1) / k)
                checked += 1
    assert checked >= 300 and nilpotent >= 20


def test_mc_batched_matches_per_trial_loop():
    fam = MatrixFamily(np.random.default_rng(4).lognormal(0.0, 1.0, (3, 3, 3)),
                       probabilities=[0.2, 0.3, 0.5])
    for trials in (1, 16):
        rng = np.random.default_rng(9)
        vals = []
        for _ in range(trials):
            x, acc = np.ones(3), 0.0
            for i in rng.choice(3, size=300, p=fam.probabilities):
                x = fam.matrices[i] @ x
                acc += math.log(np.max(x))
                x = x / np.max(x)
            vals.append(acc / 300)
        mc = lyapunov_exponent_mc(fam, steps=300, trials=trials, seed=9)
        assert mc.estimate == pytest.approx(np.mean(vals), rel=1e-14, abs=0)
        stderr = np.std(vals, ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
        assert mc.stderr == pytest.approx(stderr, rel=1e-14, abs=0)


def test_lsr_upper_reducible_word_takes_diagonal_blocks():
    # the Perron vectors of a triangular matrix have zeros; rho = 0.81
    fam = MatrixFamily([[[0.7, 0.38, 0.0], [0.0, 0.78, 0.0], [0.0, 0.0, 0.81]]])
    val, _ = lsr_upper(fam, max_len=1)
    assert 0.81 <= val <= 0.81 * (1.0 + 1e-14)


def test_word_values_underflowed_product_keeps_a_bound():
    from antinorms.dynamics import _word_values

    # the diagonal of A^2 is 1e-340 exactly but underflows to 0 in floats,
    # so its 1 x 1 diagonal blocks would bound rho(A^2)^(1/2) = 1e-170 by 0
    A = np.array([[1e-170, 1.0], [0.0, 1e-170]])
    _, upper = _word_values(A[None], [[0, 0]])
    assert upper[0] >= 1e-170


def test_lsr_upper_tie_margin_is_relative():
    # an absolute 1e-15 margin lets no word below 1e-15 replace the first one
    val, word = lsr_upper(DIAG.scaled(1e-20), max_len=4)
    assert word == "AB"
    assert val == pytest.approx(math.sqrt(2.0) * 1e-20, rel=1e-14)
    fam = MatrixFamily([[[0.0, 1e-170, 0.0], [0.0, 0.0, 1e-170], [1.0, 0.0, 0.0]]])
    val, word = lsr_upper(fam, max_len=3)
    assert word == "AAA"
    assert val == pytest.approx(1e-340 ** (1.0 / 3.0), rel=1e-14)


def test_body_iterate_prunes_once_per_iteration(monkeypatch):
    import antinorms.dynamics
    import antinorms.geometry

    calls = []
    prune = antinorms.geometry.prune_positive_hull

    def counted(points):
        calls.append(len(points))
        return prune(points)

    monkeypatch.setattr(antinorms.dynamics, "prune_positive_hull", counted)
    monkeypatch.setattr(antinorms.geometry, "prune_positive_hull", counted)
    for fam in (DIAG, shear_family(0.9)):
        calls.clear()
        res = invariant_body_iterate(fam, SIMPLEX, iters=6)
        assert len(calls) == res.iterations == 6


def test_lower_certificate_3d_sampled_branch():
    fam = MatrixFamily([1.7 * np.eye(3), np.diag([2.0, 1.8, 1.9])])
    assert lsr_lower_certificate(fam, catalog("rootsum3")) == pytest.approx(1.7, rel=1e-12)
    fam = MatrixFamily(np.random.default_rng(3).uniform(0.1, 1.0, (2, 3, 3)))
    assert lsr_lower_certificate(fam, ProductAntinorm([0.2, 0.3, 0.5])) <= lsr_upper(fam)[0]


@pytest.mark.parametrize("f", [catalog("sqrt2xy"), ProductAntinorm([0.3, 0.7]),
                               catalog("circle_arc")], ids=["sqrt2xy", "product", "circle_arc"])
def test_lower_certificate_2d_refines_to_the_ratio_minimum(f, monkeypatch):
    # a smooth ratio with an interior minimum, which the 4097-point grid
    # misses and the root of its slope finds
    from antinorms import dynamics
    from antinorms._search import logit_points

    roots = []
    bracket_root = dynamics.bracket_root

    def counted(*args, **kwargs):
        roots.append(1)
        return bracket_root(*args, **kwargs)

    monkeypatch.setattr(dynamics, "bracket_root", counted)
    fam = MatrixFamily(np.random.default_rng(0).uniform(0.1, 1.0, (2, 2, 2)))
    gamma = lsr_lower_certificate(fam, f)
    assert roots
    X = logit_points(np.linspace(-16.0, 16.0, 2_000_001))
    fine = np.min(np.min(np.stack([f._values(X @ A.T) for A in fam.matrices]), axis=0)
                  / f._values(X))
    assert fine * (1.0 - 1e-11) <= gamma <= fine


# ---------------------------------------------------------------------------
# word products formed once: the prenecklace walk and the carried body words
# ---------------------------------------------------------------------------

def necklaces(k, m):
    """Words of length k over m letters that equal their least rotation, in
    lexicographic order."""
    return [w for w in itertools.product(range(m), repeat=k)
            if w == min(w[i:] + w[:i] for i in range(k))]


def reference_lsr_upper(family, max_len):
    """``lsr_upper`` with each necklace valued by its own ``_word_values`` call."""
    from antinorms.dynamics import _word_values

    best, word = math.inf, ""
    for k in range(1, max_len + 1):
        for w in necklaces(k, family.size):
            up = _word_values(family.matrices, [w])[1][0]
            if up < best * (1.0 - 1e-15):
                best, word = up, "".join("ABCDEFGH"[i] for i in w)
    return best, word


def reference_body(family, P0, iters):
    """``invariant_body_iterate`` with each realized word valued by its own
    ``_word_values`` call: (gamma_low, gamma_high, support ratios, vertices)."""
    from antinorms._search import aitken_limit
    from antinorms.dynamics import _round_down, _word_values
    from antinorms.geometry import prune_positive_hull

    def value(w):
        near, upper = _word_values(family.matrices, [w])
        return near[0], upper[0]

    probe = np.ones(family.dim)
    W = np.array(P0.halfspaces, dtype=float)
    W = W / float(np.min(W @ probe))
    words = [()] * len(W)
    gamma_near, gamma_high = map(min, zip(*(value((j,)) for j in range(family.size))))
    gamma_low, ratios = 0.0, []
    for _ in range(iters):
        cand = np.concatenate([W @ A for A in family.matrices])
        cand_words = [w + (j,) for j in range(family.size) for w in words]
        keep = np.max(np.abs(cand), axis=1) > 1e-300
        cand, cand_words = cand[keep], [w for w, k in zip(cand_words, keep) if k]
        if not len(cand):
            break
        pruned = prune_positive_hull(cand)
        sup = float(np.min(pruned @ probe))
        if not np.isfinite(sup) or sup <= 0:
            break
        words = [cand_words[int(np.argmin(np.max(np.abs(cand - row), axis=1)))] for row in pruned]
        ratios.append(sup)
        W = pruned / sup
        for near, upper in map(value, words):
            gamma_near, gamma_high = min(gamma_near, near), min(gamma_high, upper)
        if len(ratios) >= 2:
            est = aitken_limit([math.sqrt(a * b) for a, b in zip(ratios, ratios[1:])][-6:])
        else:
            est = ratios[-1]
        residual = abs(est / gamma_near - 1.0) if gamma_near > 0 else 1.0
        gamma_low = max(gamma_low, gamma_near * max(0.0, 1.0 - residual))
    return min(gamma_low, _round_down(gamma_near, family.dim)), gamma_high, ratios, W


def record_word_bounds(monkeypatch):
    """The words of each ``_word_bounds`` call, one list per call."""
    from antinorms import dynamics

    calls = []
    word_bounds = dynamics._word_bounds

    def recorded(mats, P, exp2, words):
        calls.append([tuple(w) for w in words])
        return word_bounds(mats, P, exp2, words)

    monkeypatch.setattr(dynamics, "_word_bounds", recorded)
    return calls


@pytest.mark.parametrize("chunk", [8, 4096])
def test_prenecklace_walk_lists_the_necklaces_in_order(chunk, monkeypatch):
    from antinorms import dynamics

    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    calls = record_word_bounds(monkeypatch)
    for m in (1, 2, 3):
        calls.clear()
        lsr_upper(MatrixFamily(np.random.default_rng(m).uniform(0.1, 1.0, (m, 2, 2))), 7)
        assert all(len(words) <= chunk for words in calls)
        walked = [w for words in calls for w in words]
        for k in range(1, 8):
            assert [w for w in walked if len(w) == k] == necklaces(k, m)


NILPOTENT = MatrixFamily([[[0.0, 1.0], [0.0, 0.0]], [[0.3, 0.9], [0.6, 0.2]]])
UNDERFLOW = MatrixFamily([[[1e-170, 1.0], [0.0, 1e-170]]])
# triangular: loose Perron vectors, so the walk's stack takes diagonal blocks
TRIANGULAR = MatrixFamily([[[0.7, 0.38, 0.0], [0.0, 0.78, 0.0], [0.0, 0.0, 0.81]],
                           np.diag([0.8, 0.7, 0.9])])
REFERENCE_FAMILIES = [
    (MatrixFamily(np.random.default_rng(11).uniform(0.0, 1.0, (2, 2, 2))), 8),
    (MatrixFamily(np.random.default_rng(12).lognormal(0.0, 1.0, (3, 3, 3))), 5),
    (DIAG, 6), (TRIANGULAR, 6), (NILPOTENT, 6), (UNDERFLOW, 6),
    (MatrixFamily(np.random.default_rng(13).uniform(0.0, 1.0, (1, 3, 3))), 7),
]


@pytest.mark.parametrize("fam,max_len", REFERENCE_FAMILIES,
                         ids=["random-m2", "lognormal-m3-d3", "diag", "triangular", "nilpotent",
                              "underflow", "m1"])
def test_word_searches_match_the_per_word_reference(fam, max_len):
    assert lsr_upper(fam, max_len) == reference_lsr_upper(fam, max_len)
    P0 = ConicPolytope.from_halfspaces([np.ones(fam.dim)])
    res = invariant_body_iterate(fam, P0, iters=10)
    gamma_low, gamma_high, ratios, W = reference_body(fam, P0, 10)
    assert (res.gamma_low, res.gamma_high) == (gamma_low, gamma_high)
    assert res.support_ratios == ratios and res.iterations == len(ratios)
    assert np.array_equal(res.antinorm.functionals, PLAntinorm(np.maximum(W, 0.0)).functionals)


def test_each_search_bounds_its_words_in_one_stack(monkeypatch):
    calls = record_word_bounds(monkeypatch)
    fam = MatrixFamily(np.random.default_rng(14).uniform(0.1, 1.0, (2, 2, 2)))
    lsr_upper(fam, max_len=8)
    assert [len(words) for words in calls] == [sum(len(necklaces(k, 2)) for k in range(1, 9))]
    calls.clear()
    res = invariant_body_iterate(fam, SIMPLEX, iters=10)
    assert len(calls) == 1 and res.iterations == 10


def test_lsr_upper_chunked_walk_keeps_value_and_word(monkeypatch):
    from antinorms import dynamics

    fams = [(MatrixFamily(np.random.default_rng(15).uniform(0.0, 1.0, (3, 2, 2))), 6),
            (MatrixFamily(np.random.default_rng(16).lognormal(0.0, 1.0, (2, 3, 3))), 8),
            (DIAG.scaled(1e-20), 4)]
    whole = [lsr_upper(fam, max_len) for fam, max_len in fams]
    monkeypatch.setattr(dynamics, "_CHUNK", 8)
    assert [lsr_upper(fam, max_len) for fam, max_len in fams] == whole
