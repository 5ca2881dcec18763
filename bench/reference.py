"""Reference computations for the benchmark, kept apart from the program.

Nothing here imports ``antinorms``: every value the benchmark checks a job
against is computed from the inputs with numpy and scipy alone, by a method
that does not share code with the program.

* ``lsr_oracle``: brute-force level expansion of all products (einsum plus
  batched ``eigvals``), no necklace pruning.
* ``pl_dual_lp``: the PL dual value f*(p) = min{<p, x> : A x >= 1, x >= 0}
  as one HiGHS LP; a pass/fail check only, at HiGHS tolerances.
* ``vertex_residual``: exact rational residuals of a claimed vertex of
  {x >= 0 : A x >= 1}; PL digits come from these.
* closed-form antinorms and duals: sqrt(2pq) for ``sqrt2xy``,
  1/sum(1/p_i) for ``rootsum3``, the weighted-geometric-mean dual for
  product antinorms, 2pq/(q + sqrt(q^2 + eps^2 pq)) for ``min_eps`` when
  q <= eps^2 p / 8 (and its mirror image), R(p1 + p2) - R|p| for the
  circle arc and for the K2 side of the circle cone split.
* ``lyapunov_mc``: a vectorized Monte-Carlo Lyapunov estimate.

``python3 bench/reference.py`` runs ``self_test`` on hand values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

CIRCLE_R = 1.0 + math.sqrt(2.0)  # the circle arc whose contact point is unit


# ---------------------------------------------------------------------------
# lower spectral radius
# ---------------------------------------------------------------------------

def lsr_oracle(mats, max_len):
    """min over all words w, |w| <= max_len, of rho(Pi_w)^(1/|w|)."""
    mats = np.asarray(mats, dtype=float)
    level = np.eye(mats.shape[1])[None, :, :]
    best = math.inf
    for k in range(1, max_len + 1):
        level = np.einsum("aij,bjk->abik", mats, level).reshape(-1, *level.shape[1:])
        scale = np.max(np.abs(level), axis=(1, 2), keepdims=True)
        scale[scale == 0] = 1.0
        rho = np.abs(np.linalg.eigvals(level / scale)).max(axis=1) * scale[:, 0, 0]
        best = min(best, float(np.min(rho)) ** (1.0 / k))
    return best


def lyapunov_mc(mats, probs, steps, trials, seed):
    """(estimate, standard error) of lim (1/k) E log ||Pi_k 1|| over ``trials``
    vectorized trajectories, each renormalized by its sup norm per step."""
    mats = np.asarray(mats, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mats), size=(steps, trials), p=np.asarray(probs, dtype=float))
    X = np.ones((trials, mats.shape[1]))
    acc = np.zeros(trials)
    for t in range(steps):
        X = np.einsum("nij,nj->ni", mats[idx[t]], X)
        s = np.max(np.abs(X), axis=1)
        acc += np.log(s)
        X /= s[:, None]
    vals = acc / steps
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def lyapunov_ceiling(mats):
    """log max_i ||A_i||_inf, which bounds every Lyapunov exponent above."""
    return math.log(max(float(np.abs(A).sum(axis=1).max()) for A in np.asarray(mats)))


# ---------------------------------------------------------------------------
# piecewise-linear antinorms
# ---------------------------------------------------------------------------

def pl_value(A, X):
    """min_j <a_j, x> for each row x of X."""
    return np.min(np.atleast_2d(X) @ np.asarray(A, dtype=float).T, axis=1)


def pl_dual_lp(A, p):
    """min{<p, x> : A x >= 1, x >= 0} solved as one LP."""
    A = np.asarray(A, dtype=float)
    res = linprog(c=np.asarray(p, dtype=float), A_ub=-A, b_ub=-np.ones(len(A)),
                  bounds=[(0, None)] * A.shape[1], method="highs")
    if res.status != 0:
        raise ValueError(f"reference LP failed: {res.message}")
    return float(res.fun)


def vertex_residual(A, v):
    """Exact residual of ``v`` as a vertex of {x >= 0 : A x >= 1}.

    The constraints are <a_j, x> - 1 >= 0 and x_i >= 0.  Returns
    (active residual, smallest residual, rank): the largest exact |residual|
    over the d constraints closest to active, the most negative residual
    over all constraints (feasibility), and the rank of the rows active
    within 1e-9.  Float inputs convert to fractions without rounding.
    """
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    d = len(v)
    rows = np.vstack([A, np.eye(d)])
    rhs = np.concatenate([np.ones(len(A)), np.zeros(d)])
    approx = rows @ v - rhs
    closest = np.argsort(np.abs(approx))[:d]
    vf = [Fraction(x) for x in v.tolist()]
    exact = [abs(sum(Fraction(a) * x for a, x in zip(rows[j].tolist(), vf)) - int(rhs[j]))
             for j in closest.tolist()]
    active = rows[np.abs(approx) <= 1e-9]
    rank = int(np.linalg.matrix_rank(active)) if len(active) else 0
    return float(max(exact)), float(np.min(approx)), rank


# ---------------------------------------------------------------------------
# closed-form antinorms and their duals
# ---------------------------------------------------------------------------

def sqrt2xy(X):
    X = np.atleast_2d(X)
    return np.sqrt(2.0 * X[:, 0] * X[:, 1])


def min_eps(X, eps):
    X = np.atleast_2d(X)
    return np.minimum(X[:, 0], X[:, 1]) + eps * np.sqrt(X[:, 0] * X[:, 1])


def min_eps_dual(p, eps):
    """Dual of min{x, y} + eps sqrt(xy) at p = (a, b), or None outside the
    closed-form regime b <= eps^2 a / 8 and its mirror a <= eps^2 b / 8."""
    a, b = float(p[0]), float(p[1])
    if a < b:
        a, b = b, a
    if b > eps * eps * a / 8.0:
        return None
    return 2.0 * a * b / (b + math.sqrt(b * b + eps * eps * a * b))


def circle_arc(X, R):
    """Value on the near arc of |x - (R, R)| = R: the larger root t of
    R^2 t^2 - 2 (x . c) t + |x|^2 = 0 with c = (R, R)."""
    X = np.atleast_2d(X)
    b = R * (X[:, 0] + X[:, 1])
    n2 = X[:, 0] ** 2 + X[:, 1] ** 2
    return (b + np.sqrt(np.maximum(b * b - R * R * n2, 0.0))) / (R * R)


def circle_arc_dual(P, R):
    """min over the near arc of <p, x> = R (p1 + p2) - R |p|."""
    P = np.atleast_2d(P)
    return R * (P[:, 0] + P[:, 1]) - R * np.hypot(P[:, 0], P[:, 1])


def cone_split_circle(X, side):
    """The circle arc (R = 1 + sqrt 2) on K1, its K1-restricted dual
    R (x1 + x2) - R |x| on K2; the split ray is the diagonal."""
    X = np.atleast_2d(X)
    upper = X[:, 1] >= X[:, 0]
    in_k1 = upper if side == "upper" else ~upper
    return np.where(in_k1, circle_arc(X, CIRCLE_R), circle_arc_dual(X, CIRCLE_R))


def product(X, w, c):
    X = np.atleast_2d(X)
    with np.errstate(divide="ignore"):
        return c * np.exp(np.log(X) @ np.asarray(w, dtype=float))


def product_dual(P, w, c):
    """Weighted AM-GM: min <p, x>/(c prod x^w) = prod (p_i/w_i)^w_i / c."""
    w = np.asarray(w, dtype=float)
    return np.exp(np.log(np.atleast_2d(P) / w) @ w) / c


def product_selfdual_scale(w):
    """The c with c prod x^w self-dual: c^2 prod w^w = 1."""
    w = np.asarray(w, dtype=float)
    return math.exp(-0.5 * float(np.sum(w * np.log(w))))


def rootsum3(X):
    return np.square(np.sqrt(np.atleast_2d(X)).sum(axis=1))


def rootsum3_dual(P):
    return 1.0 / np.sum(1.0 / np.atleast_2d(P), axis=1)


# ---------------------------------------------------------------------------
# concave trigonometry
# ---------------------------------------------------------------------------

def classical_cosh_sinh(theta):
    return math.cosh(theta), math.sinh(theta)


def frame_to_plane(xi, eta, angle):
    """Undo the rotation that takes the contact ray to the first axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * xi - s * eta, s * xi + c * eta])


def sector_reach(f, angle, tau_max=12.0):
    """Twice the sector area from the contact ray toward each axis.

    Returns (toward OX, toward OY), integrals of r(phi)^2 with
    r = 1/f(cos phi, sin phi), truncated at |log tan phi| <= tau_max.
    """
    def r2(phi):
        u = np.array([[math.cos(phi), math.sin(phi)]])
        return 1.0 / float(f(u)[0]) ** 2

    lo = math.atan(math.exp(-tau_max))
    hi = math.atan(math.exp(tau_max))
    down = quad(r2, lo, angle, limit=200)[0]
    up = quad(r2, angle, hi, limit=200)[0]
    return down, up


# ---------------------------------------------------------------------------
# self-test on hand values
# ---------------------------------------------------------------------------

def self_test():
    """Raise AssertionError unless every reference reproduces hand values."""
    diag = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]
    assert abs(lsr_oracle(diag, 4) - math.sqrt(2.0)) < 1e-14
    p = np.array([0.7, 0.2, 1.3])
    assert abs(pl_dual_lp(np.ones((1, 3)), p) - p.min()) < 1e-9        # sum* = min
    assert abs(pl_dual_lp(np.eye(3), p) - p.sum()) < 1e-9              # min* = sum
    assert vertex_residual(np.ones((1, 2)), [1.0, 0.0]) == (0.0, 0.0, 2)
    assert abs(sqrt2xy([3.0, 4.0])[0] - math.sqrt(24.0)) < 1e-15
    w = np.array([0.5, 0.5])
    assert abs(product_dual([3.0, 4.0], w, math.sqrt(2.0))[0] - math.sqrt(24.0)) < 1e-14
    w = np.array([0.2, 0.3, 0.5])
    c = product_selfdual_scale(w)
    x = np.array([0.4, 1.7, 0.9])
    assert abs(product_dual(x, w, c)[0] - product(x, w, c)[0]) < 1e-14
    assert abs(rootsum3_dual([1.0, 1.0, 1.0])[0] - 1.0 / 3.0) < 1e-16
    assert abs(rootsum3([1.0, 1.0, 1.0])[0] - 9.0) < 1e-14
    assert abs(circle_arc([1.0, 1.0], CIRCLE_R)[0] - math.sqrt(2.0)) < 1e-14
    assert abs(circle_arc_dual([1.0, 1.0], CIRCLE_R)[0] - math.sqrt(2.0)) < 1e-14
    # min_eps at (1, 0.01), eps = 1: inside the regime, against a dense scan
    s = 1.0 / (1.0 + np.exp(-np.linspace(-30.0, 30.0, 400001)))
    X = np.stack([s, 1.0 - s], axis=1)
    scan = float(np.min((X @ [1.0, 0.01]) / min_eps(X, 1.0)))
    assert abs(min_eps_dual([1.0, 0.01], 1.0) - scan) < 1e-9
    c, s = classical_cosh_sinh(0.0)
    assert (c, s) == (1.0, 0.0)
    est, se = lyapunov_mc([2.0 * np.eye(2)], [1.0], 10, 4, 0)
    assert abs(est - math.log(2.0)) < 1e-15 and se == 0.0
    assert abs(lyapunov_ceiling(diag) - math.log(2.0)) < 1e-15
    down, up = sector_reach(sqrt2xy, math.pi / 4, tau_max=3.0)
    # on 2xy = 1, log tan(phi) = 2 theta along the ray at phi
    assert abs(down - 1.5) < 1e-9 and abs(up - 1.5) < 1e-9


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
