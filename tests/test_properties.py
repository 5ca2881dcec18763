import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from antinorms import (
    ConeSplitAntinorm,
    PLAntinorm,
    ProductAntinorm,
    canonicalize_pl,
    catalog,
    contact_point,
    dual_pl,
    exprs,
    geometry,
    prune_positive_hull,
)
from antinorms.duality import _dual2_batch, dual_values

weights = st.floats(min_value=0.05, max_value=0.95)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(w=weights, seed=seeds)
def test_dual2_batch_of_selfdual_product_is_itself(w, seed):
    f = ProductAntinorm.selfdual([w, 1.0 - w])
    P = np.random.default_rng(seed).lognormal(0.0, 1.0, size=(16, 2))
    assert _dual2_batch(f, P) == pytest.approx(f.value(P), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(w=weights)
def test_contact_point_of_selfdual_product(w):
    f = ProductAntinorm.selfdual([w, 1.0 - w])
    a = contact_point(f)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)
    assert f.value(a) == pytest.approx(1.0, abs=1e-9)


@st.composite
def products(draw):
    """ProductAntinorm in d = 2-6 with one weight 0 and a random scale."""
    d = draw(st.integers(min_value=2, max_value=6))
    w = draw(st.lists(st.integers(min_value=1, max_value=100), min_size=d - 1, max_size=d - 1))
    w = np.insert(np.array(w, dtype=float), draw(st.integers(min_value=0, max_value=d - 1)), 0.0)
    return ProductAntinorm(w / w.sum(), scale=draw(st.floats(min_value=0.1, max_value=10.0)))


@settings(max_examples=100, deadline=None)
@given(f=products(), seed=seeds)
def test_product_closed_form_dual_meets_young_with_equality(f, seed):
    # f*(p) f(x) <= <p, x>, with equality at x_i = w_i/p_i (weighted AM-GM)
    u = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    P = rng.lognormal(0.0, 1.0, size=(8, f.dim))
    X = rng.lognormal(0.0, 1.0, size=(50, f.dim))
    fstar = dual_values(f, P)
    assert np.all(fstar[:, None] * f._values(X)[None, :] <= (P @ X.T) * (1.0 + 4.0 * u))
    w, a = f.weights, f.weights > 0
    X = w / P
    pair = np.einsum("ij,ij->i", P, X)
    # 4 ulps per unit of the exponent sum_i w_i |log(p_i/w_i)| both sides round
    size = 1.0 + np.abs(np.log(P[:, a] / w[a])) @ w[a]
    assert np.all(np.abs(fstar * f._values(X) - pair) <= 4.0 * u * size * pair)


@st.composite
def closed_form_2d(draw):
    """A 2-D antinorm whose dual and the point attaining it have closed forms."""
    kind = draw(st.sampled_from(["sqrt2xy", "circle_arc", "min_eps", "product", "selfdual"]))
    if kind == "sqrt2xy":
        return catalog("sqrt2xy")
    if kind == "circle_arc":
        return catalog("circle_arc", radius=draw(st.floats(min_value=1.5, max_value=4.0)))
    if kind == "min_eps":
        return catalog("min_eps", eps=draw(st.floats(min_value=0.05, max_value=1.0)))
    w = draw(weights)
    if kind == "product":
        return ProductAntinorm([w, 1.0 - w], scale=draw(st.floats(min_value=0.1, max_value=10.0)))
    return ProductAntinorm.selfdual([w, 1.0 - w])


def _rounding_size(f, P):
    """1, or for a product, which rounds an exp of a sum of logs, 1 plus
    the exponent's size sum_i w_i |log(p_i/w_i)| (PR 24's tolerance note)."""
    w = getattr(f, "weights", None)
    return np.ones(len(P)) if w is None else 1.0 + np.abs(np.log(P / w)) @ w


@settings(max_examples=100, deadline=None)
@given(f=closed_form_2d(), seed=seeds)
def test_closed_form_dual_point_is_on_the_antisphere_and_attains_the_dual(f, seed):
    u = np.finfo(float).eps
    P = np.random.default_rng(seed).lognormal(0.0, 2.0, size=(64, 2))
    S, fstar = f._dual_points(P), f._dual_values(P)
    size = _rounding_size(f, P)
    assert np.all(np.abs(f._values(S) - 1.0) <= 4.0 * u * size)
    assert np.all(np.abs(np.einsum("ij,ij->i", P, S) - fstar) <= 4.0 * u * size * fstar)


_APEXES = [(math.sqrt(0.5), math.sqrt(0.5)), (0.6, 0.8), (0.9, math.sqrt(1.0 - 0.81))]


@settings(max_examples=60, deadline=None)
@given(f1=closed_form_2d(), apex=st.sampled_from(_APEXES),
       side=st.sampled_from(["upper", "lower"]), seed=seeds)
def test_cone_split_k2_closed_form_matches_its_k1_table(f1, apex, side, seed):
    # the closed form against the K1 table's support query it replaces.
    # The table's point ties to a cell end whenever the two values agree to
    # rounding, where <x, s> is flat along the arc, so it pins the point
    # only to about sqrt(eps) relative; the values agree to rounding
    f = ConeSplitAntinorm(f1, apex, side=side, grid_n=4096)
    X = np.random.default_rng(seed).lognormal(0.0, 1.0, size=(64, 2))
    X = X[~f._in_k1(X)]
    v, S = f._values_grads(X)
    table_v, table_S = f._arc.support(X)
    assert np.all(np.abs(v - table_v) <= 1e-14 * table_v)
    assert np.all(np.linalg.norm(S - table_S, axis=1) <= 1e-6 * np.linalg.norm(table_S, axis=1))
    # a point whose unrestricted minimizer leaves K1 takes the apex end
    clipped = ~f._in_k1(f1._dual_points(X))
    assert np.all(f._in_k1(S[~clipped]))
    end = np.asarray(apex) / f1.value(apex)
    assert np.all(S[clipped] == end)
    assert np.all(np.abs(v[clipped] - X[clipped] @ end) <= 1e-15 * v[clipped])


@st.composite
def rows_2d(draw):
    """2-D functionals: points on xy = c spaced down to 1e-3, plus rows that
    are dominated by one of them, duplicates and rows on the axes."""
    c = draw(st.floats(min_value=0.5, max_value=4.0))
    x0 = draw(st.floats(min_value=0.25, max_value=2.0))
    gaps = draw(st.lists(st.floats(min_value=-3.0, max_value=-0.3).map(lambda e: 10.0 ** e),
                         max_size=8))
    x = x0 + np.cumsum([0.0, *gaps])
    rows = [np.array([xi, c / xi]) for xi in x]
    base = st.integers(min_value=0, max_value=len(rows) - 1)
    shift = st.tuples(st.floats(min_value=0.0, max_value=1.0),
                      st.floats(min_value=0.01, max_value=1.0)).map(
        lambda t: np.array(t) if t[0] < 0.5 else np.array(t[::-1]))
    rows += [rows[i] + s for i, s in draw(st.lists(st.tuples(base, shift), max_size=3))]
    rows += [rows[i] for i in draw(st.lists(base, max_size=2))]
    axis = st.tuples(st.booleans(), st.floats(min_value=0.1, max_value=10.0))
    rows += [np.array([v, 0.0] if on_x else [0.0, v]) for on_x, v in
             draw(st.lists(axis, max_size=2))]
    return np.array(rows)


def _redundancy_distance(b, others):
    """min over c in co(others) of max_k (c - b)_k; b is redundant iff it is <= 0.

    An optimal c is a convex combination of at most two rows, and along a
    chord the objective is the maximum of two linear functions, so checking
    both ends and the crossing point of every chord is exact.
    """
    a, p = others[:, None, :], others[None, :, :]
    u, v = a - b, p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(v[..., 0] != v[..., 1], (u[..., 1] - u[..., 0]) / (v[..., 0] - v[..., 1]), 0.0)
    best = np.inf
    for lam in (0.0, 1.0, np.clip(cross, 0.0, 1.0)):
        lam = np.asarray(lam)[..., None] if np.ndim(lam) else lam
        best = min(best, float(np.min(np.max(u + lam * v, axis=-1))))
    return best


@settings(max_examples=60)
@given(A=rows_2d(), seed=seeds)
def test_dual_pl_2d_matches_linprog(A, seed):
    g = dual_pl(PLAntinorm(A))
    P = np.random.default_rng(seed).lognormal(0.0, 1.0, size=(6, 2))
    for p, v in zip(P, g.value(P)):
        lp = linprog(p, A_ub=-A, b_ub=-np.ones(len(A)), bounds=[(0, None)] * 2, method="highs")
        assert v == pytest.approx(lp.fun, rel=1e-9)


@settings(max_examples=100)
@given(A=rows_2d())
def test_canonicalize_pl_2d_keeps_extreme_drops_dominated(A):
    U = np.unique(A, axis=0)
    kept = {tuple(r) for r in canonicalize_pl(PLAntinorm(A)).functionals.tolist()}
    for i, b in enumerate(U):
        others = np.delete(U, i, axis=0)
        if len(others) and _redundancy_distance(b, others) > 1e-7:
            assert tuple(b) in kept
        if np.any(np.all(others <= b, axis=1)):
            assert tuple(b) not in kept


def test_2d_pl_path_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(exprs, "linprog", no_lp)
    monkeypatch.setattr(geometry, "linprog", no_lp)
    A = np.array([[1.2461671148197715, 0.8024605914469395],
                  [1.2469394314314466, 0.8019635716002919],
                  [1.2490404964125301, 0.8006145540294177],
                  [2.0, 1.0], [1.2469394314314466, 0.8019635716002919], [0.0, 3.0], [4.0, 0.0]])
    canonical = canonicalize_pl(PLAntinorm(A)).functionals
    assert len(canonical) == 5                 # (2, 1) is dominated, one copy is kept
    assert prune_positive_hull(A).tolist() == canonical.tolist()
    g = dual_pl(PLAntinorm(A))
    assert len(g.functionals) == 4             # the axis rows meet no axis
    assert np.allclose(dual_pl(g).functionals, canonical, rtol=0, atol=1e-9)


_R = 1.0 + np.sqrt(2.0)
_APEX = np.array([1.0, 1.0]) / np.sqrt(2.0)
# (antinorm, kink test): a point is off the kinks when the test is False
_GRAD_CASES = [
    (exprs.catalog("sum", dim=2), None),
    (exprs.catalog("min", dim=2), "diagonal"),
    (exprs.catalog("sqrt2xy"), None),
    (exprs.catalog("min_eps", eps=0.3), "diagonal"),
    (exprs.catalog("circle_arc", radius=2.2), None),
    (exprs.catalog("rootsum3"), None),
    (ProductAntinorm([0.2, 0.3, 0.5]), None),
    (PLAntinorm([[1.0, 3.0], [2.0, 1.5], [4.0, 0.5]]), "pl"),
    (exprs.ConeSplitAntinorm(exprs.catalog("circle_arc", radius=_R), _APEX, "upper", 4096), "diagonal"),
    (exprs.ConeSplitAntinorm(exprs.catalog("circle_arc", radius=_R), _APEX, "lower", 4096), "diagonal"),
]


def _central_differences(f, x, h=1e-6):
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h * x[i]
        g[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * e[i])
    return g


@settings(max_examples=100)
@given(case=st.integers(min_value=0, max_value=len(_GRAD_CASES) - 1),
       x=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3, max_size=3))
def test_grads_match_central_differences_and_euler(case, x):
    f, kink = _GRAD_CASES[case]
    x = np.array(x[:f.dim])
    if kink == "diagonal":
        assume(abs(x[0] - x[1]) > 1e-3 * x.max())
    if kink == "pl":
        v = np.sort(f.functionals @ x)
        assume(v[1] - v[0] > 1e-3 * v[0])
    g = f._grads(x[None, :])[0]
    assert np.allclose(g, _central_differences(f, x), rtol=1e-5, atol=1e-7 * np.abs(g).max())
    assert float(g @ x) == pytest.approx(f.value(x), rel=1e-12)
    assert np.array_equal(f.grad(x), g)


def _gauss_jordan_reference(M, b):
    """Exact solution of M x = b in rationals, each entry rounded once."""
    n = len(b)
    R = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(M.tolist(), b.tolist())]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(R[r][c]))
        R[c], R[p] = R[p], R[c]
        R[c] = [v / R[c][c] for v in R[c]]
        for r in range(n):
            if r != c:
                R[r] = [x - R[r][c] * y for x, y in zip(R[r], R[c])]
    return [float(R[i][n]) for i in range(n)]


def _nonsingular(A):
    """Full rank after exact elimination."""
    R = [[Fraction(v) for v in row] for row in A.tolist()]
    for c in range(len(R)):
        piv = [r for r in range(c, len(R)) if R[r][c] != 0]
        if not piv:
            return False
        R[c], R[piv[0]] = R[piv[0]], R[c]
        for r in range(c + 1, len(R)):
            R[r] = [x - R[r][c] / R[c][c] * y for x, y in zip(R[r], R[c])]
    return True


@st.composite
def exact_systems(draw):
    """Stacks of nonsingular systems in d = 1..4: 27-bit entries scaled by
    2^-60 .. 2^60, a third of them zero (which forces row swaps)."""
    n = draw(st.integers(min_value=1, max_value=4))
    mantissa = st.integers(min_value=-2**26, max_value=2**26)
    entry = st.one_of(st.just(0), mantissa, mantissa)
    scale = st.integers(min_value=-60, max_value=60)

    def vec():
        return [draw(entry) * 2.0 ** (draw(scale) - 26) for _ in range(n)]

    M = np.array([[vec() for _ in range(n)] for _ in range(5)])
    b = np.array([vec() for _ in range(5)])
    keep = [_nonsingular(A) for A in M]
    assume(any(keep))
    return M[keep], b[keep]


@settings(max_examples=150, deadline=None)
@given(exact_systems())
def test_solve_exact_stack_is_correctly_rounded(system):
    M, b = system
    got = geometry._solve_exact(np.concatenate([M, b[..., None]], axis=2)) + 0.0   # a zero's sign is not a rounding
    want = np.array([_gauss_jordan_reference(A, c) for A, c in zip(M, b)])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
