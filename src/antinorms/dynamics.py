"""Antinorm-based analysis of nonnegative matrix families.

The lower spectral radius (joint spectral subradius) of a finite family is
rho_check = lim_k min over length-k products of ||A_{d_k} ... A_{d_1}||^{1/k}.
Exact computation is NP-hard already for Boolean matrices, so this module
provides desk-scale bounds and diagnostics:

* ``lsr_upper``  -- certified upper bound  min_w rho(Pi_w)^{1/|w|} over
  words up to a given length (spectral radii of products always bound the
  limit from above); enumeration runs over necklace representatives since
  rho is invariant under cyclic shifts.  Each word value is a
  Collatz-Wielandt bound on rho rounded up, so it does not rest on the
  eigensolver; the work guard counts the matrix products the search does.
* ``lsr_lower_certificate`` -- the certified bound gamma(f) =
  inf_x min_A f(Ax)/f(x) for a supplied antinorm f; any antinorm gives a
  valid lower bound.  For piecewise-linear f the infimum is attained at the
  vertices of the antiball (superadditivity + monotonicity), which makes
  the 2- to 4-dimensional computation exact.
* ``invariant_body_iterate`` -- the positive-hull iteration
  P_{k+1} = co_+ { A P_k } run on the dual side: the vertex set iterated is
  the half-space set of the supplied body and the family acts transposed,
  which is the same object through transpose duality (the support function
  of the iterate is the antinorm iterate min_A f_k(A x) for the original
  family).  Run directly on primal vertices the iteration freezes whenever
  the start body has vertices on invariant coordinate axes, which is why
  the dual side is used.  Returns the final body plus a gamma bracket
  rounded outward: the upper end is certified (best realized word, rounded
  up as in ``lsr_upper``), the lower end discounts the best word's nearest
  value by the observed stabilization residual of the support ratios, is
  rounded down, and is a diagnostic, not a certificate.
* Lyapunov exponents of random products (Monte-Carlo with per-step sup-norm
  renormalization) and Lyapunov-antinorm / continuous-time switching
  checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._report import Report
from ._search import aitken_limit, bracket_root, logit_points, simplex_grid
from .errors import DegenerateBodyError, DimensionMismatchError, NegativeCoordinateError
from .exprs import PLAntinorm, as_pl
from .geometry import ConicPolytope, positive_hull_value, prune_positive_hull

__all__ = [
    "MatrixFamily",
    "LSRBoundReport",
    "lsr_upper",
    "lsr_lower_certificate",
    "invariant_body_iterate",
    "BodyIterationResult",
    "transpose_extremal_check",
    "TransposeDualityReport",
    "lyapunov_exponent_mc",
    "LyapunovMCResult",
    "lyapunov_antinorm_check",
    "LyapunovAntinormReport",
    "ct_switching_check",
    "CTSwitchingReport",
    "perron_certificate",
]

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _strongly_connected(S):
    """Whether the digraph with boolean adjacency matrix ``S`` is strongly
    connected: the transitive closure of I + S has no zero entry.  After k
    squarings R holds the paths of length <= 2^k, and d - 1 steps suffice."""
    R = np.eye(len(S), dtype=bool) | S
    for _ in range((len(S) - 1).bit_length()):
        R = R @ R
    return bool(R.all())


class MatrixFamily:
    """Finite family of d x d nonnegative matrices, optionally weighted.

    Degeneracy flags are computed on construction: zero rows/columns and
    common invariant coordinate subspaces (detected as proper closed vertex
    sets of the union support digraph, i.e. the digraph not being strongly
    connected).  Operations relying on irreducibility refuse degenerate
    families unless forced.  ``allow_negative`` admits Metzler-type
    matrices for the continuous-time check only.
    """

    def __init__(self, matrices, probabilities=None, allow_negative=False):
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] < 1:
            raise DimensionMismatchError("matrices must be a nonempty list of square matrices")
        if not allow_negative and np.any(mats < 0):
            raise NegativeCoordinateError("matrix entries must be nonnegative")
        self.matrices = mats
        self.matrices.setflags(write=False)
        self.dim = mats.shape[1]
        self.size = mats.shape[0]
        self.allow_negative = bool(allow_negative)
        if probabilities is not None:
            p = np.asarray(probabilities, dtype=float)
            if p.shape != (self.size,) or np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("probabilities must be positive and sum to 1")
            p.setflags(write=False)
        else:
            p = None
        self.probabilities = p
        absm = np.abs(mats)
        self.has_zero_row = bool(np.any(absm.sum(axis=2).min(axis=0) == 0)) or bool(
            np.any((absm.sum(axis=2) == 0)))
        self.has_zero_col = bool(np.any((absm.sum(axis=1) == 0)))
        self.has_common_invariant_subspace = not _strongly_connected(absm.sum(axis=0) > 0)

    @property
    def degenerate(self):
        return self.has_zero_row or self.has_zero_col or self.has_common_invariant_subspace

    def transpose(self):
        return MatrixFamily(np.transpose(self.matrices, (0, 2, 1)),
                            self.probabilities, self.allow_negative)

    def scaled(self, lam):
        return MatrixFamily(lam * self.matrices, self.probabilities, self.allow_negative)

    def __repr__(self):
        return f"MatrixFamily(m={self.size}, dim={self.dim}, probs={self.probabilities is not None})"


@dataclass(frozen=True)
class LSRBoundReport(Report):
    """Package of lower spectral radius bounds for one family."""

    lower: float
    upper: float
    witness_product: str
    iterations: int
    estimate_low: float
    estimate_high: float
    certificate_functionals: np.ndarray   # rows of the PL antinorm certifying ``lower``


# ---------------------------------------------------------------------------
# word enumeration upper bound
# ---------------------------------------------------------------------------

def _necklaces(n, m):
    """All necklace representatives of length n over an m-letter alphabet
    (Fredricksen-Kessler-Maiorana generation)."""
    a = [0] * (n + 1)
    out = []

    def gen(t, p):
        if t > n:
            if n % p == 0:
                out.append(tuple(a[1:n + 1]))
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, m):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return out


_U = 2.0 ** -53              # unit roundoff of IEEE double precision
_CW_FLOOR = 2.0 ** -60       # floor on Collatz-Wielandt test vector entries


def _margin(d, L):
    """Relative rounding margin u (2d + 6 + 6L) of a k-th root of a d x d product.

    For nonnegative data (standard rounding-error model, no underflow) the
    k - 1 products and the Collatz-Wielandt matvec and division cost at most
    (2d + 1) u under the k-th root; log and exp within one ulp each cost
    4 u L + 2 u when L bounds the logarithms divided by k; the factor's own
    rounding costs u.  The rest is slack.
    """
    return _U * (2 * d + 6 + 6 * L)


def _collatz_wielandt(P):
    """(max_i (P v)_i / v_i, eigensolver rho) with v the floored Perron vector.

    For P >= 0 and any v > 0 the first entry bounds rho(P) from above.
    """
    w, V = np.linalg.eig(P)
    j = int(np.argmax(np.abs(w)))
    v = np.abs(np.real(V[:, j]))
    v = np.maximum(v / np.max(v), _CW_FLOOR)
    return float(np.max((P @ v) / v)), float(np.abs(w[j]))


def _word_value(mats, word):
    """(nearest, upper) for rho(Pi_w)^{1/|w|}, Pi_w applying word[0] first.

    The product is built with power-of-two renormalization (exact scaling).
    ``nearest`` takes the eigensolver's spectral radius.  ``upper`` is a
    rigorous bound that does not trust the eigensolver: Collatz-Wielandt,
    rho(P) <= max_i (P v)_i / v_i for any v > 0, with v the computed right
    (or, if that is loose, left) Perron vector floored at 2^-60; its k-th
    root is rounded up by ``_margin`` and one more ulp.
    """
    d = mats.shape[1]
    P = np.eye(d)
    exp2 = 0
    for idx in word:
        P = mats[idx] @ P
        s = float(np.max(P))
        if s > 1e100 or 0 < s < 1e-100:
            e = math.frexp(s)[1]
            P = np.ldexp(P, -e)
            exp2 += e
    cw, rho = _collatz_wielandt(P)
    if cw > rho * (1.0 + 1e-12):   # right Perron vector has zeros: try the left one
        cw = min(cw, _collatz_wielandt(P.T)[0])
    if cw <= 0.0:
        return 0.0, 0.0
    k = len(word)
    log2 = math.log(2.0) * exp2
    near = math.exp((math.log(rho) + log2) / k) if rho > 0 else 0.0
    L = (abs(math.log(cw)) + abs(log2)) / k
    upper = math.exp((math.log(cw) + log2) / k) * (1.0 + _margin(d, L))
    return near, math.nextafter(upper, math.inf)


def _round_down(x, d):
    """``x`` > 0 lowered by ``_margin`` and one more ulp."""
    return math.nextafter(x * (1.0 - _margin(d, abs(math.log(x)))), 0.0) if x > 0 else x


def _word_products(m, max_len):
    """Matrix products the necklace search does: k per necklace of length k.

    By Burnside, k times the number of length-k necklaces over m letters is
    sum_{i=1..k} m^gcd(i, k).
    """
    return sum(m ** math.gcd(i, k) for k in range(1, max_len + 1) for i in range(1, k + 1))


def lsr_upper(family, max_len=8):
    """min over words w (|w| <= max_len) of rho(Pi_w)^{1/|w|} and the word.

    rho(Pi)^{1/k} >= rho_check for every product, so the minimum is a valid
    upper bound; it is exact for families with an optimal periodic word of
    length <= max_len.  Words are enumerated over necklace representatives
    because cyclic shifts leave the spectral radius unchanged, and products
    are renormalized by powers of two to avoid overflow.  Each word value is
    a Collatz-Wielandt bound rounded up (``_word_value``), so the returned
    number is >= rho(Pi_w)^{1/|w|} of the exact product despite rounding.

    The work guard counts the matrix products the search does (k per
    necklace of length k) and raises ``ValueError`` above 5e6 before any word
    is built; ``max_len`` = 8 admits families of up to 6 matrices.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if family.allow_negative:
        raise NegativeCoordinateError("upper bounds require nonnegative matrices")
    m = family.size
    if _word_products(m, max_len) > 5e6:
        raise ValueError("word enumeration too large; reduce max_len")
    best = math.inf
    best_word = ""
    for k in range(1, max_len + 1):
        for word in _necklaces(k, m):
            _, val = _word_value(family.matrices, word)
            if val < best - 1e-15:
                best = val
                best_word = "".join(_LETTERS[i] for i in word)
    return best, best_word


# ---------------------------------------------------------------------------
# certified lower bound from an antinorm certificate
# ---------------------------------------------------------------------------

def perron_certificate(A):
    """Left Perron functional of a single nonnegative matrix as a PL antinorm.

    f(x) = <u, x> with u^T A = rho u^T satisfies f(Ax) = rho f(x) exactly,
    so it certifies gamma = rho(A) for the one-matrix family.
    """
    w, V = np.linalg.eig(np.asarray(A, dtype=float).T)
    j = int(np.argmax(np.abs(w)))
    u = np.abs(np.real(V[:, j]))
    u = u / max(u.max(), 1e-300)
    return PLAntinorm(u[None, :])


def lsr_lower_certificate(family, f):
    """Certified bound gamma = inf_x min_A f(Ax)/f(x)  (so rho_check >= gamma).

    Piecewise-linear f in dim <= 4: the infimum equals the minimum over the
    vertices of the antiball of f.  For x in the antiball, x is a convex
    combination of vertices plus a nonnegative shift, and superadditivity
    with monotonicity push f(Ax) below the vertex values; the bound is
    therefore exact, not sampled.  Other antinorms fall back to sampling:
    4097 logit points in d = 2, refined by the root of the slope of the
    best point's active ratio f(Ax)/f(x) next to it, and the simplex
    lattice in d >= 3.  That result is an estimate,
    good only to the sampling density.
    """
    if family.allow_negative:
        raise NegativeCoordinateError("lower bounds require nonnegative matrices")
    pl = as_pl(f)
    mats = family.matrices
    if pl is not None and pl.dim <= 4:
        V = ConicPolytope.from_halfspaces(pl.functionals).vertices()
        vals = np.min(np.stack([pl._values(V @ A.T) for A in mats]), axis=0)
        return float(np.min(vals))

    def ratio(X):
        fx = f._values(X)
        ok = fx > 1e-14
        r = np.full(len(X), np.inf)
        r[ok] = np.min(np.stack([f._values(X[ok] @ A.T) for A in mats]), axis=0) / fx[ok]
        return r

    d = family.dim
    if d > 2:
        return float(np.min(ratio(simplex_grid(d, {3: 64, 4: 28}.get(d, 16)))))
    t = np.linspace(-16.0, 16.0, 4097)
    X = logit_points(t)
    ratios = ratio(X)
    j = int(np.argmin(ratios))
    A = min(mats, key=lambda M: f.value(M @ X[j]))   # active at the best point
    e = np.array([1.0, -1.0])

    # along x(u) = (s, 1 - s) the slope of f(Ax)/f(x) has the sign of
    # <grad f(Ax), Ae> f(x) - f(Ax) <grad f(x), e>
    def slope(u, rows):
        Xu = logit_points(u)
        Y = Xu @ A.T
        return (f._grads(Y) @ (A @ e)) * f._values(Xu) - f._values(Y) * (f._grads(Xu) @ e)

    lo, hi = t[[max(0, j - 1)]], t[[min(len(t) - 1, j + 1)]]
    s_lo, s_hi = slope(lo, None), slope(hi, None)
    if not (s_lo[0] < 0 < s_hi[0]):
        return float(ratios[j])
    a, b = bracket_root(slope, lo, hi, s_lo, s_hi, 64)
    return float(min(ratios[j], ratio(logit_points(0.5 * (a + b)))[0]))


# ---------------------------------------------------------------------------
# invariant conic body iteration
# ---------------------------------------------------------------------------

@dataclass
class BodyIterationResult:
    """Final iterate and gamma bracket of ``invariant_body_iterate``.

    ``body`` collects the iterated dual-side vertex set W: its positive
    hull is the invariant-body candidate for the transposed family, and the
    PL antinorm with functionals W (``antinorm``) is the extremal-antinorm
    candidate for the original family.  The bracket is rounded outward:
    ``gamma_high`` is a certified word bound rounded up; ``gamma_low`` is the
    stabilization estimate, capped by the best word's nearest value rounded
    down.
    """

    body: ConicPolytope
    gamma_low: float
    gamma_high: float
    antinorm: PLAntinorm
    iterations: int
    support_ratios: list = field(default_factory=list)
    stalled: bool = False


def invariant_body_iterate(family, P0, iters=12, max_vertices=600):
    """Positive-hull iteration toward an invariant conic body.

    The vertex set W_0 is the half-space set of ``P0`` and each step maps
    W_{k+1} = prune(co_+ {A^T w : w in W_k}), rescaled by the support ratio
    at the all-ones probe; by transpose duality this realizes
    P_{k+1} = co_+ { A P_k } for the body with half-spaces W_k, and the
    support function h_k(x) = min_w <w, x> obeys the antinorm iteration
    h_{k+1}(x) = min_A h_k(A x) for the *original* family.

    gamma_high is the certified word bound min rho(Pi_w)^{1/|w|} over words
    realized by surviving vertices plus single letters, each rounded up as
    in ``lsr_upper``.  gamma_low is the best word's nearest value discounted
    by the residual between the accelerated support ratios and that value,
    capped by the nearest value rounded down; it converges to the word value
    when the iteration locks onto an optimal periodic word and is reported
    as an estimate.  The bracket envelope only tightens with k.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if family.allow_negative:
        raise NegativeCoordinateError("the body iteration requires nonnegative matrices")
    W = np.array(P0.halfspaces, dtype=float, copy=True)
    if W.shape[1] != family.dim:
        raise DimensionMismatchError("body dimension does not match the family")
    probe = np.ones(family.dim)
    s0 = float(np.min(W @ probe))
    if s0 <= 0:
        raise DegenerateBodyError("start body has a zero half-space functional")
    W = W / s0
    words = [()] * W.shape[0]
    ratios = []
    rho_words = {}

    def word_value(word):
        if not word:
            return math.inf, math.inf
        if word not in rho_words:
            rho_words[word] = _word_value(family.matrices, word)
        return rho_words[word]

    # gamma_high: best rounded-up word bound; gamma_near: best nearest value
    gamma_near, gamma_high = map(min, zip(*(word_value((j,)) for j in range(family.size))))
    gamma_low = 0.0
    stalled = False
    k_done = 0
    for k in range(iters):
        cand = np.concatenate([W @ A for A in family.matrices], axis=0)  # rows A^T w
        cand_words = [w + (j,) for j in range(family.size) for w in words]
        nonzero = np.max(np.abs(cand), axis=1) > 1e-300
        cand = cand[nonzero]
        cand_words = [cw for cw, nz in zip(cand_words, nonzero) if nz]
        if cand.shape[0] == 0:
            stalled = True
            break
        pruned = prune_positive_hull(cand)
        if pruned.shape[0] > max_vertices:
            raise DegenerateBodyError(f"vertex explosion at iteration {k}")
        # pruning only drops rows, so each survivor matches a candidate exactly
        new_words = []
        for row in pruned:
            new_words.append(cand_words[int(np.argmin(np.max(np.abs(cand - row), axis=1)))])
        sup = float(np.min(pruned @ probe))
        if not np.isfinite(sup) or sup <= 0:
            stalled = True
            break
        ratios.append(sup)          # previous iterate was normalized to support 1
        W = pruned / sup
        words = new_words
        for w in new_words:
            near, upper = word_value(w)
            gamma_near = min(gamma_near, near)
            gamma_high = min(gamma_high, upper)
        k_done = k + 1
        # stabilization estimate: two-step geometric means of the support
        # ratios (handles period-2 alternation), Aitken-accelerated
        if len(ratios) >= 2:
            g2 = [math.sqrt(ratios[i] * ratios[i + 1]) for i in range(len(ratios) - 1)]
            est = aitken_limit(g2[-6:])
        else:
            est = ratios[-1]
        residual = abs(est / gamma_near - 1.0) if gamma_near > 0 else 1.0
        gamma_low = max(gamma_low, gamma_near * max(0.0, 1.0 - residual))
    body = ConicPolytope.from_vertices(W)
    return BodyIterationResult(
        body=body,
        gamma_low=min(gamma_low, _round_down(gamma_near, family.dim)),
        gamma_high=gamma_high,
        antinorm=PLAntinorm(np.maximum(W, 0.0)),
        iterations=k_done,
        support_ratios=ratios,
        stalled=stalled,
    )


# ---------------------------------------------------------------------------
# transpose duality check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransposeDualityReport:
    gamma_primal: float
    gamma_dual_transposed: float
    body_residual: float
    tol: float
    body_tol: float

    @property
    def gammas_match(self):
        return abs(self.gamma_primal - self.gamma_dual_transposed) <= self.tol

    @property
    def passed(self):
        return self.gammas_match and self.body_residual <= self.body_tol


def transpose_extremal_check(family, f, tol=0.02, body_tol=0.1):
    """Verify extremal-antinorm transpose duality for a near-extremal f.

    If f is extremal for the family then f* is extremal for the transposed
    family with the same gamma (checked within ``tol``).  The companion
    body statement  co_+ {A^T G*} = gamma G*  with G* the antipolar of the
    antiball of f is probed on an interior band of directions and the
    relative support-function residual reported against ``body_tol``; it is
    looser because iterates whose tails keep spreading (families with
    invariant coordinate axes) never equilibrate near the axis directions.
    """
    from .duality import dual_pl

    pl = as_pl(f)
    if pl is None:
        raise TypeError("transpose check needs a piecewise-linear certificate")
    fam_T = family.transpose()
    g1 = lsr_lower_certificate(family, pl)
    g2 = lsr_lower_certificate(fam_T, dual_pl(pl))
    # body statement: G* has vertices = functionals of f (canonical form)
    Vstar = np.array(ConicPolytope.from_halfspaces(pl.functionals).canonical().halfspaces)
    image = prune_positive_hull(np.concatenate([Vstar @ A for A in family.matrices], axis=0))
    if family.dim == 2:
        probes = logit_points(np.linspace(-2.5, 2.5, 41))
    else:
        rng = np.random.default_rng(0)
        probes = rng.dirichlet(3.0 * np.ones(family.dim), size=48)
    h_img = np.min(probes @ image.T, axis=1)
    h_ref = np.min(probes @ Vstar.T, axis=1)
    gamma_ref = 0.5 * (g1 + g2)
    residual = float(np.max(np.abs(h_img / (gamma_ref * h_ref) - 1.0))) if gamma_ref > 0 else math.inf
    return TransposeDualityReport(g1, g2, residual, tol, body_tol)


# ---------------------------------------------------------------------------
# Lyapunov exponent of random products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovMCResult(Report):
    estimate: float
    stderr: float
    steps: int
    trials: int
    seed: int


def lyapunov_exponent_mc(family, steps=1000, trials=32, seed=0, force=False):
    """Monte-Carlo estimate of the largest Lyapunov exponent
    lim (1/k) E log ||A_{d_k} ... A_{d_1}||.

    Each trial iterates a vector with per-step sup-norm renormalization
    (the limit is norm-independent and the telescoped log norms equal the
    log of the product norm applied to the start vector).  Deterministic
    for a fixed seed.  Families with zero rows/columns make the estimate
    unreliable and are refused unless ``force``.
    """
    if family.probabilities is None:
        raise ValueError("lyapunov_exponent_mc needs a family with probabilities")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if (family.has_zero_row or family.has_zero_col) and not force:
        raise DegenerateBodyError(
            "family has a zero row or column; the vector iteration may collapse "
            "(pass force=True to override)")
    rng = np.random.default_rng(seed)
    mats = family.matrices
    p = family.probabilities
    vals = np.empty(trials)
    for t in range(trials):
        x = np.ones(family.dim)
        acc = 0.0
        idxs = rng.choice(family.size, size=steps, p=p)
        for i in idxs:
            x = mats[i] @ x
            s = np.max(np.abs(x))
            if s <= 0:
                raise DegenerateBodyError("trajectory collapsed to zero")
            acc += math.log(s)
            x = x / s
        vals[t] = acc / steps
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return LyapunovMCResult(est, stderr, steps, trials, seed)


# ---------------------------------------------------------------------------
# Lyapunov antinorm check for random products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovAntinormReport(Report):
    min_ratio: float
    max_ratio: float
    verdict: str          # "lyapunov" | "anti_lyapunov" | "inconclusive"
    samples: int
    seed: int


def lyapunov_antinorm_check(family, f, samples=512, seed=0):
    """Range of  prod_j f(A_j x)^{p_j} / f(x)  over sampled antisphere points.

    max < 1 makes f a Lyapunov antinorm for the random product (values
    contract in the probability-weighted geometric mean), min > 1 makes it
    anti-Lyapunov; anything else is inconclusive.
    """
    if family.probabilities is None:
        raise ValueError("the check needs probabilities")
    rng = np.random.default_rng(seed)
    d = family.dim
    X = rng.dirichlet(np.ones(d), size=samples)
    X = np.vstack([X, np.eye(d), np.full((1, d), 1.0 / d)])
    fx = f._values(X)
    keep = fx > 1e-14
    X, fx = X[keep], fx[keep]
    logs = np.zeros(len(X))
    for Aj, pj in zip(family.matrices, family.probabilities):
        vj = f._values(X @ Aj.T)
        good = vj > 0
        logs[~good] = -math.inf
        logs[good] += pj * np.log(vj[good])
    ratios = np.exp(logs) / fx
    mn, mx = float(np.min(ratios)), float(np.max(ratios))
    if mx < 1.0:
        verdict = "lyapunov"
    elif mn > 1.0:
        verdict = "anti_lyapunov"
    else:
        verdict = "inconclusive"
    return LyapunovAntinormReport(mn, mx, verdict, len(X), seed)


# ---------------------------------------------------------------------------
# continuous-time switching check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CTSwitchingReport(Report):
    eps: float
    eps_dual: float
    s: float
    samples: int
    seed: int

    @property
    def lyapunov(self):
        """True when f strictly decreases along every sampled Euler step."""
        return self.eps > 0


def ct_switching_check(family, f, s=1e-3, samples=256, seed=0):
    """Check f(x + s A x) < (1 - eps) f(x) for a continuous-time control set.

    Matrices may be Metzler (negative diagonal); the Euler step I + sA must
    stay nonnegative for the chosen s.  When a positive eps is found the
    dual statement f*(y - s A^T y) >= (1 + eps') f*(y) is verified on the
    same sample budget; the report carries both margins.
    """
    rng = np.random.default_rng(seed)
    d = family.dim
    steps = np.eye(d)[None, :, :] + s * family.matrices
    if np.any(steps < -1e-12):
        raise NegativeCoordinateError(
            f"Euler step I + s A leaves the orthant for s={s}; reduce s")
    steps = np.maximum(steps, 0.0)
    X = rng.dirichlet(np.ones(d), size=samples)
    X = np.vstack([X, np.full((1, d), 1.0 / d)])
    fx = f._values(X)
    keep = fx > 1e-14
    X, fx = X[keep], fx[keep]
    worst = -math.inf
    for S in steps:
        worst = max(worst, float(np.max(f._values(X @ S.T) / fx)))
    eps = 1.0 - worst

    from .duality import dual_values

    Y = rng.dirichlet(np.ones(d), size=min(samples, 64))
    dual_steps = np.eye(d)[None, :, :] - s * np.transpose(family.matrices, (0, 2, 1))
    dual_steps = np.maximum(dual_steps, 0.0)
    fz = dual_values(f, np.vstack([Y] + [Y @ S.T for S in dual_steps])).reshape(-1, len(Y))
    eps_dual = float(np.min(fz[1:] / fz[0])) - 1.0
    return CTSwitchingReport(float(eps), float(eps_dual), float(s), len(X), seed)
