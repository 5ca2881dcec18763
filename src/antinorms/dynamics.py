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
  eigensolver; on reducible products it bounds each diagonal block of the
  Frobenius normal form.  A depth-first walk of the prenecklace tree forms
  each product once from its parent's (``_extend``), and the necklaces are
  bounded in stacks with one eigensolve each (``_word_bounds``).
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
  the dual side is used.  Vertices carry their words' products.  Returns
  the final body plus a gamma bracket rounded outward: the upper end is
  certified (best realized word, rounded up as in ``lsr_upper``); the lower
  end discounts the best word's nearest value by the support ratios'
  stabilization residual, is rounded down, and is not a certificate.
* Lyapunov exponents of random products (Monte-Carlo with per-step sup-norm
  renormalization, all trials advanced as one stack) and Lyapunov-antinorm /
  continuous-time switching checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._report import Report
from ._search import aitken_limit, bracket_root, logit_points, simplex_grid
from .errors import DegenerateBodyError, DimensionMismatchError, NegativeCoordinateError
from .exprs import PLAntinorm, as_pl
from .geometry import ConicPolytope, prune_positive_hull

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


def _closure(S):
    """Transitive closure of I + S for boolean adjacency matrices ``S``
    (a stack (..., d, d) works too); the digraph is strongly connected when
    it has no zero entry.  After k squarings R holds the paths of length
    <= 2^k, and d - 1 steps suffice."""
    R = np.eye(S.shape[-1], dtype=bool) | S
    for _ in range((S.shape[-1] - 1).bit_length()):
        R = R @ R
    return R


class MatrixFamily:
    """Finite family of d x d nonnegative matrices, optionally weighted.

    Degeneracy flags are computed on construction: zero rows/columns and
    common invariant coordinate subspaces (detected as proper closed vertex
    sets of the union support digraph, i.e. the digraph not being strongly
    connected).  Only ``lyapunov_exponent_mc`` refuses one (a zero row or
    column) unless forced.  ``allow_negative`` admits Metzler-type matrices
    for the continuous-time check only.
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
        self.has_zero_row = bool(np.any(absm.sum(axis=2) == 0))
        self.has_zero_col = bool(np.any(absm.sum(axis=1) == 0))
        self.has_common_invariant_subspace = not _closure(absm.sum(axis=0) > 0).all()

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

    lower: float | None   # None where no certified bound exists (CLI ``lsr`` in d >= 5)
    upper: float
    witness_product: str
    iterations: int
    estimate_low: float
    estimate_high: float
    certificate_functionals: np.ndarray   # rows of the PL antinorm certifying ``lower``


# ---------------------------------------------------------------------------
# word enumeration upper bound
# ---------------------------------------------------------------------------

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
    """(max_i (P v)_i / v_i, eigensolver rho) per matrix of a stack P (N, d, d),
    v each matrix's floored Perron vector.

    For P >= 0 and any v > 0 the first entry bounds rho(P) from above.
    """
    w, V = np.linalg.eig(P)
    j = np.argmax(np.abs(w), axis=1)
    rows = np.arange(len(P))
    v = np.abs(np.real(V[rows, :, j]))
    v = np.maximum(v / np.max(v, axis=1, keepdims=True), _CW_FLOOR)
    return np.max((P @ v[..., None])[..., 0] / v, axis=1), np.abs(w[rows, j])


def _block_bounds(P, S):
    """Per matrix of the stack P, max over the diagonal blocks of its Frobenius
    normal form of a bound on the block's rho; ``S`` is the exact support of P.

    The blocks are the strong components of the support digraph, and rho(P)
    is the largest of their spectral radii.  A 1 x 1 block is its entry; a
    larger one is irreducible and takes Collatz-Wielandt with its own Perron
    vector.  A matrix with a float entry that underflowed to 0 where the
    exact product is positive gets inf: its block values bound nothing.
    """
    out = np.full(len(P), np.inf)
    R = _closure(S)
    for n in np.nonzero(~np.any(S & (P == 0), axis=(1, 2)))[0]:
        best = 0.0
        for comp in np.unique(R[n] & R[n].T, axis=0):
            idx = np.nonzero(comp)[0]
            block = P[n][np.ix_(idx, idx)]
            best = max(best, block[0, 0] if len(idx) == 1 else _collatz_wielandt(block[None])[0][0])
        out[n] = best
    return out


def _extend(mats, P, exp2, letters):
    """The stack P (N, d, d) of products P * 2^exp2, each left-multiplied by
    mats[letters[i]] and renormalized by powers of two (exact scaling) that
    add to ``exp2`` (updated in place).  The one place products are formed.
    """
    P = mats[letters] @ P
    s = np.max(P, axis=(1, 2))
    scale = (s > 1e100) | ((s > 0) & (s < 1e-100))
    if np.any(scale):
        e = np.frexp(s[scale])[1]
        P[scale] = np.ldexp(P[scale], -e[:, None, None])
        exp2[scale] += e
    return P, exp2


def _word_bounds(mats, P, exp2, words):
    """(nearest, upper) lists of rho(Pi_w)^{1/|w|} for the words w, a list
    of letter sequences of any lengths, with Pi_w = P * 2^exp2 row by row.

    One eigensolve serves the whole stack.  ``nearest`` takes the
    eigensolver's spectral radius.  ``upper`` is a rigorous bound that does
    not trust the eigensolver: Collatz-Wielandt, rho(P) <= max_i (P v)_i / v_i
    for any v > 0, with v the computed right Perron vector floored at 2^-60.
    Where that is loose the left Perron vector is tried, and where both are
    (a reducible product, whose Perron vectors have zeros) the max over the
    diagonal blocks of its Frobenius normal form (``_block_bounds``, on the
    support built from the row's word); a nilpotent product gets exactly 0.
    The k-th root is taken per word in scalar ``math.log``/``math.exp``,
    whose one-ulp accuracy ``_margin`` assumes, and rounded up by
    ``_margin`` and one more ulp.
    """
    d = mats.shape[1]
    cw, rho = _collatz_wielandt(P)
    loose = cw > rho * (1.0 + 1e-12)
    if np.any(loose):   # right Perron vector has zeros: try the left one
        cw[loose] = np.minimum(cw[loose], _collatz_wielandt(np.swapaxes(P[loose], 1, 2))[0])
        loose &= cw > rho * (1.0 + 1e-12)
    if np.any(loose):
        support = mats > 0
        S = [functools.reduce(lambda acc, a: support[a] @ acc, words[n][1:], support[words[n][0]])
             for n in np.nonzero(loose)[0]]
        cw[loose] = np.minimum(cw[loose], _block_bounds(P[loose], np.array(S)))
    near, upper = [], []
    for c, r, e, w in zip(cw.tolist(), rho.tolist(), exp2.tolist(), words):
        if c <= 0.0:
            near.append(0.0)
            upper.append(0.0)
            continue
        k, log2 = len(w), math.log(2.0) * e
        near.append(math.exp((math.log(r) + log2) / k) if r > 0 else 0.0)
        L = (abs(math.log(c)) + abs(log2)) / k
        up = math.exp((math.log(c) + log2) / k) * (1.0 + _margin(d, L))
        upper.append(math.nextafter(up, math.inf))
    return near, upper


def _identities(n, d):
    """n empty words for ``_extend``: identity products with exponent 0."""
    return np.broadcast_to(np.eye(d), (n, d, d)), np.zeros(n, dtype=np.int64)


def _word_values(mats, words):
    """``_word_bounds`` of the rows w of the (N, k) array ``words``, Pi_w
    applying w[0] first, formed letter by letter with ``_extend``."""
    words = np.asarray(words, dtype=np.intp)
    P, exp2 = _identities(len(words), mats.shape[1])
    for letters in words.T:
        P, exp2 = _extend(mats, P, exp2, letters)
    return _word_bounds(mats, P, exp2, words.tolist())


def _round_down(x, d):
    """``x`` > 0 lowered by ``_margin`` and one more ulp."""
    return math.nextafter(x * (1.0 - _margin(d, abs(math.log(x)))), 0.0) if x > 0 else x


def _word_products(m, max_len):
    """Matrix products of forming every necklace up to max_len on its own, k
    per necklace of length k; they bound the products the tree walk forms.

    By Burnside, k times the number of length-k necklaces over m letters is
    sum_{i=1..k} m^gcd(i, k).
    """
    return sum(m ** math.gcd(i, k) for k in range(1, max_len + 1) for i in range(1, k + 1))


_CHUNK = 4096   # products per stack in ``lsr_upper``


def lsr_upper(family, max_len=8):
    """min over words w (|w| <= max_len) of rho(Pi_w)^{1/|w|} and the word.

    rho(Pi)^{1/k} >= rho_check for every product, so the minimum is a valid
    upper bound; it is exact for families with an optimal periodic word of
    length <= max_len.  Only necklaces are bounded, since cyclic shifts
    leave rho unchanged.  They are nodes of the prenecklace tree (Cattell et
    al., J. Algorithms 37, 2000): a prenecklace w of length t and period p
    has the children w + w[t - p] (period p) and w + j for j > w[t - p]
    (period t + 1), and is a necklace iff p divides t.  The walk goes depth
    first, 4,096 nodes at a time, so memory stays bounded, and forms each
    node's product from its parent's by one ``_extend``; the necklaces go
    through ``_word_bounds`` in stacks of at most 4,096.  Each value is a
    Collatz-Wielandt bound rounded up, so the result is >= rho(Pi_w)^{1/|w|}
    of the exact product.  Ties within a relative 1e-15 keep the first word
    in (length, lexicographic) order, so the bound scales with the family.

    The work guard bounds the products (k per necklace of length k: 596
    for m = 2, max_len = 8, where the walk forms 167) and raises
    ``ValueError`` above 5e6 before any word is built; ``max_len`` = 8
    admits families of up to 6 matrices.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if family.allow_negative:
        raise NegativeCoordinateError("upper bounds require nonnegative matrices")
    m, d, mats = family.size, family.dim, family.matrices
    if _word_products(m, max_len) > 5e6:
        raise ValueError("word enumeration too large; reduce max_len")
    stack, queue = [], [[], np.empty((0, d, d)), np.empty(0, dtype=np.int64)]
    # per length, the words that lowered its running minimum: no other passes the tie test
    lows = [[(math.inf, ())] for _ in range(max_len + 1)]

    def bound(n):   # the first n queued necklaces, as one stack
        words, P, exp2 = queue
        for w, v in zip(words[:n], _word_bounds(mats, P[:n], exp2[:n], words[:n])[1]):
            if v < lows[len(w)][-1][0]:
                lows[len(w)].append((v, w))
        queue[:] = words[n:], P[n:], exp2[n:]

    def expand(W, p, P, exp2):   # W: (N, t + 1) prenecklaces after a 0 sentinel
        base = W[np.arange(len(W)), W.shape[1] - p]
        par, let = np.nonzero(np.arange(m) >= base[:, None])
        for lo in reversed(range(0, len(par), _CHUNK)):
            stack.append((W, p, P, exp2, base, par[lo:lo + _CHUNK], let[lo:lo + _CHUNK]))

    expand(np.zeros((1, 1), dtype=np.intp), np.ones(1, dtype=np.intp), *_identities(1, d))
    while stack:
        W, p, P, exp2, base, i, j = stack.pop()
        t = W.shape[1]
        W, p = np.column_stack([W[i], j]), np.where(j == base[i], p[i], t)
        P, exp2 = _extend(mats, P[i], exp2[i], j)
        neck = t % p == 0
        queue[:] = (queue[0] + W[neck, 1:].tolist(), np.concatenate([queue[1], P[neck]]),
                    np.concatenate([queue[2], exp2[neck]]))
        if len(queue[0]) >= _CHUNK:
            bound(_CHUNK)
        if t < max_len:
            expand(W, p, P, exp2)
    if queue[0]:
        bound(len(queue[0]))
    best, word = math.inf, ()
    for v, w in (low for ls in lows for low in ls[1:]):   # (length, lexicographic) order
        if v < best * (1.0 - 1e-15):
            best, word = v, w
    return best, "".join(_LETTERS[a] for a in word)


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
    return PLAntinorm.irredundant(u[None, :])


def lsr_lower_certificate(family, f):
    """Certified bound gamma = inf_x min_A f(Ax)/f(x)  (so rho_check >= gamma).

    Piecewise-linear f in dim <= 4: the infimum equals the minimum over the
    vertices of the antiball of f.  For x in the antiball, x is a convex
    combination of vertices plus a nonnegative shift, and superadditivity
    with monotonicity push f(Ax) below the vertex values; the bound is
    therefore exact, not sampled, and the float minimum is rounded down
    once (``_round_down``) to cover the rounding of the vertices and the
    products.  Other antinorms fall back to sampling: in d = 2 the points of
    ``f.arc``, where f = 1, refined by the root of the slope of the best
    point's active ratio f(Ax)/f(x) next to it, and the simplex lattice in
    d >= 3.  That result is an estimate, good only to the sampling density.
    """
    if family.allow_negative:
        raise NegativeCoordinateError("lower bounds require nonnegative matrices")
    pl = as_pl(f)
    mats = family.matrices
    if pl is not None and pl.dim <= 4:
        V = pl.body.vertices()
        vals = np.min(np.stack([pl._values(V @ A.T) for A in mats]), axis=0)
        return _round_down(float(np.min(vals)), pl.dim)

    def ratio(X):
        fx = f._values(X)
        ok = fx > 1e-14
        r = np.full(len(X), np.inf)
        r[ok] = np.min(np.stack([f._values(X[ok] @ A.T) for A in mats]), axis=0) / fx[ok]
        return r

    d = family.dim
    if d > 2:
        return float(np.min(ratio(simplex_grid(d, {3: 64, 4: 28}.get(d, 16)))))
    t, X = f.arc.u, f.arc.points
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

    ``antinorm`` has the iterated dual-side vertex set W as functionals, the
    extremal-antinorm candidate for the original family; ``body`` (built on
    demand) is co_+ W, the invariant-body candidate for the transposed
    family.  The bracket is rounded outward:
    ``gamma_high`` is a certified word bound rounded up; ``gamma_low`` is the
    stabilization estimate, capped by the best word's nearest value rounded
    down.
    """

    gamma_low: float
    gamma_high: float
    antinorm: PLAntinorm
    iterations: int
    support_ratios: list = field(default_factory=list)
    stalled: bool = False

    @property
    def body(self):
        return ConicPolytope.from_vertices(self.antinorm.functionals)   # W >= 0


def invariant_body_iterate(family, P0, iters=12):
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
    as an estimate.  The bracket envelope only tightens with k.  Vertices
    carry their words' products (one ``_extend`` per iteration); one
    ``_word_bounds`` stack after the loop bounds them all, and the bracket
    is replayed iteration by iteration.
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
    m, d, mats = family.size, family.dim, family.matrices
    words, (P, exp2) = [()] * len(W), _identities(len(W), d)
    # (words, products, exponents) realized in each iteration, single letters first
    realized = [([(j,) for j in range(m)], *_extend(mats, *_identities(m, d), np.arange(m)))]
    ratios = []
    stalled = False
    for k in range(iters):
        cand = np.concatenate([W @ A for A in mats], axis=0)  # row j n + i: A_j^T w_i
        src = np.nonzero(np.max(np.abs(cand), axis=1) > 1e-300)[0]
        cand = cand[src]
        if cand.shape[0] == 0:
            stalled = True
            break
        pruned = prune_positive_hull(cand)
        if pruned.shape[0] > 600:
            raise DegenerateBodyError(f"vertex explosion at iteration {k}")
        sup = float(np.min(pruned @ probe))
        if not np.isfinite(sup) or sup <= 0:
            stalled = True
            break
        # pruning only drops rows, so each survivor is a candidate exactly: the first such
        pick = src[np.argmax(np.all(cand == pruned[:, None], axis=2), axis=1)]
        letter, parent = np.divmod(pick, len(W))
        ratios.append(sup)          # previous iterate was normalized to support 1
        W = pruned / sup
        words = [words[i] + (j,) for i, j in zip(parent.tolist(), letter.tolist())]
        P, exp2 = _extend(mats, P[parent], exp2[parent], letter)
        realized.append((words, P, exp2))
    near, upper = _word_bounds(mats, *(np.concatenate([r[i] for r in realized]) for i in (1, 2)),
                               [w for r in realized for w in r[0]])
    # replayed per iteration: gamma_near, the best nearest value, and
    # gamma_high, the best rounded-up word bound
    ends = np.cumsum([len(r[0]) for r in realized]).tolist()
    gamma_near, gamma_high, gamma_low = min(near[:m]), min(upper[:m]), 0.0
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        gamma_near, gamma_high = min([gamma_near, *near[lo:hi]]), min([gamma_high, *upper[lo:hi]])
        # stabilization estimate: two-step geometric means of the support
        # ratios (handles period-2 alternation), Aitken-accelerated
        r = ratios[:k + 1]
        est = aitken_limit([math.sqrt(a * b) for a, b in zip(r, r[1:])][-6:]) if k else r[0]
        residual = abs(est / gamma_near - 1.0) if gamma_near > 0 else 1.0
        gamma_low = max(gamma_low, gamma_near * max(0.0, 1.0 - residual))
    return BodyIterationResult(
        gamma_low=min(gamma_low, _round_down(gamma_near, family.dim)),
        gamma_high=gamma_high,
        antinorm=PLAntinorm.irredundant(np.maximum(W, 0.0)),
        iterations=len(ratios),
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


def transpose_extremal_check(family, f):
    """Verify extremal-antinorm transpose duality for a near-extremal f.

    If f is extremal for the family then f* is extremal for the transposed
    family with the same gamma (within ``tol`` = 0.02).  The body statement
    co_+ {A^T G*} = gamma G*, G* the antipolar of the antiball of f, is
    probed on an interior band of directions against ``body_tol`` = 0.1 in
    relative support-function residual; looser, since iterates whose tails
    keep spreading (invariant coordinate axes) never equilibrate there.
    """
    from .duality import dual_pl

    pl = as_pl(f)
    if pl is None:
        raise TypeError("transpose check needs a piecewise-linear certificate")
    fam_T = family.transpose()
    g1 = lsr_lower_certificate(family, pl)
    g2 = lsr_lower_certificate(fam_T, dual_pl(pl))
    # body statement: G* has vertices = functionals of f (canonical form)
    Vstar = pl.body.halfspaces
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
    return TransposeDualityReport(g1, g2, residual, 0.02, 0.1)


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
    log of the product norm applied to the start vector).  All trials
    advance together as one (trials, d, 1) stack; their letters are drawn
    at once, trial after trial, which is the stream of drawing them one
    trial at a time.  Deterministic for a fixed seed.  Families with zero
    rows/columns make the estimate unreliable and are refused unless
    ``force``.
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
    idxs = rng.choice(family.size, size=(trials, steps), p=family.probabilities)
    X = np.ones((trials, family.dim, 1))
    norms = np.empty((steps, trials))
    with np.errstate(divide="ignore", invalid="ignore"):   # a collapse shows as NaN
        for s, i in zip(norms, idxs.T):
            X = mats[i] @ X
            np.max(np.abs(X), axis=(1, 2), out=s)
            X /= s[:, None, None]
    if not np.all(norms > 0):
        raise DegenerateBodyError("trajectory collapsed to zero")
    vals = np.sum(np.log(norms), axis=0) / steps
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
    stay nonnegative for the chosen s.  eps is the sampled margin over the
    Dirichlet points and the barycentre, an estimate, not a bound.
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
    return CTSwitchingReport(float(1.0 - worst), float(s), len(X), seed)
