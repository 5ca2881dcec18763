import math

import numpy as np
import pytest

from antinorms import MatrixFamily, ProductAntinorm, catalog, dual_numeric, is_selfdual
from antinorms._search import bracket_root, logit_points, simplex_grid
from antinorms.dynamics import lsr_lower_certificate
from antinorms.geometry import prune_positive_hull

EPS = np.finfo(float).eps


class Counted:
    """Condition wrapper that records the rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, t, rows):
        self.calls.append(np.array(rows))
        return self.fn(t, rows)


def solve(fn, lo, hi, iters=100):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    rows = np.arange(len(lo))
    return bracket_root(fn, lo, hi, fn(lo, rows), fn(hi, rows), iters)


def budget(lo, hi):
    """Bisection steps to a bracket of 4 ulps of max(1, |x|), plus four."""
    tol = 2.0 * EPS * max(1.0, abs(lo), abs(hi))
    return math.ceil(math.log2((hi - lo) / (2.0 * tol))) + 4


def test_smooth_root_to_a_few_ulps_in_few_steps():
    c = np.linspace(0.5, 4.0, 50)
    fn = Counted(lambda t, r: t ** 3 - c[r])
    a, b = solve(fn, np.zeros(50), np.full(50, 2.0))
    root = np.cbrt(c)
    assert np.all((a <= root * (1 + 2 * EPS)) & (root <= b * (1 + 2 * EPS)))
    assert np.all(b - a <= 4.0 * EPS * np.maximum(1.0, b))
    assert len(fn.calls) - 2 <= 12     # superlinear, against 52 bisection steps


def test_jump_closes_onto_the_discontinuity():
    c = np.array([0.3, 0.7, 1.0 / 3.0, 0.9999])
    fn = Counted(lambda t, r: np.where(t < c[r], -1.0 - t, 2.0 + t))
    a, b = solve(fn, np.zeros(4), np.ones(4))
    assert np.all((a < c) & (c <= b))
    assert np.all(b - a <= 4.0 * EPS)
    assert len(fn.calls) - 2 <= budget(0.0, 1.0)


def test_square_root_end_is_no_slower_than_bisection():
    # condition sqrt(1 - t) - sqrt(1 - r): infinite slope at the bracket end
    r = 1.0 - np.array([1e-3, 1e-8, 1e-12, 1e-15])
    fn = Counted(lambda t, i: np.sqrt(1.0 - t) - np.sqrt(1.0 - r[i]))
    a, b = solve(fn, np.zeros(4), np.ones(4))
    assert np.all((a <= r) & (r <= b))
    assert np.all(b - a <= 4.0 * EPS)
    assert len(fn.calls) - 2 <= budget(0.0, 1.0)


def test_flat_brackets_settle_without_work():
    # a bracket already within tolerance is never evaluated; a plateau of
    # exact zeros stops at the first point that lands on it
    fn = Counted(lambda t, r: np.clip(t - 0.5, -0.1, 0.1) * (np.abs(t - 0.5) > 0.2))
    lo = np.array([0.0, 0.5 - 2 * EPS])
    hi = np.array([1.0, 0.5])
    a, b = bracket_root(fn, lo, hi, np.array([-0.1, -1.0]), np.array([0.1, 1.0]), 50)
    assert all(1 not in rows for rows in fn.calls)
    assert a[1] == lo[1] and b[1] == hi[1]
    assert a[0] == b[0] and abs(a[0] - 0.5) <= 0.2
    assert len(fn.calls) == 1


def test_rows_stop_one_by_one_and_only_active_rows_are_evaluated():
    # row 0 is linear (one secant step), row 1 smooth, row 2 a jump
    def cond(t, r):
        return np.choose(np.arange(3)[r], [t - 0.25, np.exp(t) - 2.0, np.where(t < 0.6, -1.0, 1.0)])

    fn = Counted(cond)
    a, b = solve(fn, np.zeros(3), np.ones(3))
    counts = np.bincount(np.concatenate(fn.calls[2:]), minlength=3)
    assert counts[0] <= 2 and counts[0] < counts[1] < counts[2]
    assert all(len(np.unique(rows)) == len(rows) for rows in fn.calls)
    assert [len(rows) for rows in fn.calls[2:]] == sorted((len(r) for r in fn.calls[2:]), reverse=True)
    assert abs(a[1] - math.log(2.0)) <= 4 * EPS and b[2] - a[2] <= 4 * EPS


def test_step_cap_returns_valid_brackets():
    c = np.array([0.1, 0.5, 0.9])
    fn = Counted(lambda t, r: np.where(t < c[r], -1.0, 1.0))   # bisection only
    a, b = solve(fn, np.zeros(3), np.ones(3), iters=3)
    assert len(fn.calls) == 2 + 3
    assert np.all((0.0 <= a) & (a < c) & (c <= b) & (b <= 1.0))
    assert np.all(b - a <= 0.5 ** 2)


def test_rows_stop_at_their_rounding_floor():
    # a condition with noise of 1e-12 near its root: rows stop on the first
    # value inside ftol instead of bisecting through the noise
    noise = np.array([1e-12, -1e-12])
    fn = Counted(lambda t, r: (t - 0.4) * 1e-3 + noise[np.arange(len(t)) % 2])
    lo, hi = np.zeros(2), np.ones(2)
    a, b = bracket_root(fn, lo, hi, np.full(2, -4e-4), np.full(2, 6e-4), 100, ftol=4e-12)
    assert np.all(a == b) and np.all(np.abs(a - 0.4) <= 1e-8)
    assert len(fn.calls) <= 4


def test_logit_points_are_interior_and_on_the_simplex():
    t = np.linspace(-45.0, 45.0, 100_001)
    X = logit_points(t)
    assert np.all(X > 0.0) and np.all(X <= 1.0)
    assert np.max(np.abs(X.sum(axis=1) - 1.0)) <= EPS
    assert np.array_equal(logit_points(-t), X[:, ::-1])


def test_simplex_grid_is_one_read_only_array_per_size():
    G = simplex_grid(3, 64)
    assert simplex_grid(3, 64) is G and not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 0.5
    # every caller reads the shared grids and leaves them as built
    rng = np.random.default_rng(2)
    dual_numeric(catalog("rootsum3"), [0.3, 0.5, 0.2])                       # duality
    is_selfdual(catalog("rootsum3"), n_grid=4)                                # selfdual
    lsr_lower_certificate(MatrixFamily(rng.uniform(0.1, 1.0, (2, 3, 3))),
                          ProductAntinorm([0.2, 0.3, 0.5]))                   # dynamics
    P = rng.lognormal(0.0, 0.5, (12, 2))
    prune_positive_hull(np.hstack([P, 1.0 / np.prod(P, axis=1, keepdims=True)]))  # geometry
    for d, n in [(3, 64), (3, 5)]:          # 5: the coarsest grid with 4 interior points
        assert simplex_grid(d, n).tobytes() == simplex_grid.__wrapped__(d, n).tobytes()
