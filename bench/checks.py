"""Answer checks: every job's output against ``reference`` or a property.

``check_job`` returns (problems, digits).  ``problems`` lists what is wrong
with the output; ``digits`` is min(15, -log10 of the relative error) for a
job checked against a reference value, or None for a job that returns a
verdict or a statistical estimate.  No check compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import reference as ref
from workloads import spec_dual, spec_value

MAX_DIGITS = 15.0


def digits(rel_err):
    return MAX_DIGITS if rel_err <= 0 else min(MAX_DIGITS, -math.log10(rel_err))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _rowsort(M):
    M = np.asarray(M, dtype=float)
    return M[np.lexsort(M.T[::-1])]


def _orthant_samples(rng, d, n=64):
    X = rng.lognormal(0.0, 1.0, (n, d))
    X[: n // 4, 0] = 0.0
    return X


def _young(dual_of, f_of, P, rng, tol=1e-9):
    """Problems with f*(p) f(x) <= <p, x> at P and sampled x."""
    X = _orthant_samples(rng, P.shape[1])
    excess = dual_of[:, None] * f_of(X)[None, :] - (P @ X.T) * (1.0 + tol)
    worst = float(np.max(excess))
    return [f"Young's inequality fails by {worst:.3g}"] if worst > 0 else []


# ---------------------------------------------------------------------------
# lsr-families
# ---------------------------------------------------------------------------

def _lsr(job, out):
    c = job["check"]
    lower, upper = out["lower"], out["upper"]
    oracle = ref.lsr_oracle(c["mats"], c["max_len"])
    problems = []
    if not lower <= oracle * (1 + 1e-13):
        problems.append(f"lower {lower!r} above the oracle {oracle!r}")
    if not oracle <= upper * (1 + 1e-13):
        problems.append(f"upper {upper!r} below the oracle {oracle!r}")
    F = np.asarray(out.get("certificate_functionals", []), dtype=float)
    if len(F):
        rng = np.random.default_rng(c["seed"])
        X = rng.dirichlet(np.ones(F.shape[1]), size=256)
        fx = ref.pl_value(F, X)
        ok = fx > 0
        ratio = np.min([ref.pl_value(F, X[ok] @ A.T) for A in np.asarray(c["mats"])], axis=0) / fx[ok]
        if np.any(ratio < lower * (1 - 1e-12)):
            problems.append(f"certificate ratio {float(ratio.min())!r} below lower {lower!r}")
    width = (upper - lower) / upper if upper > 0 else 1.0
    return problems, digits(width)


def _lyapunov(job, out):
    c = job["check"]
    est, se = ref.lyapunov_mc(c["mats"], c["probs"], c["steps"], c["trials"], c["seed"])
    problems = []
    if abs(out["estimate"] - est) > 5.0 * math.hypot(out["stderr"], se):
        problems.append(f"estimate {out['estimate']!r} vs reference {est!r} +- {se!r}")
    if out["estimate"] > ref.lyapunov_ceiling(c["mats"]) + 1e-12:
        problems.append("estimate above log max ||A_i||_inf")
    if c["sum_antinorm"]:
        # ratio prod_j sum(A_j x)^p_j / sum(x) on a dense grid of the simplex
        t = np.linspace(0.0, 1.0, 200001)
        X = np.stack([t, 1.0 - t], axis=1)
        logs = sum(p * np.log((X @ np.asarray(A).T).sum(axis=1))
                   for A, p in zip(c["mats"], c["probs"]))
        g = np.exp(logs)
        a = out["antinorm_check"]
        if a["min_ratio"] < g.min() * (1 - 1e-8) or a["max_ratio"] > g.max() * (1 + 1e-8):
            problems.append("antinorm ratios outside their range on the simplex")
        verdict = ("lyapunov" if a["max_ratio"] < 1 else
                   "anti_lyapunov" if a["min_ratio"] > 1 else "inconclusive")
        if a["verdict"] != verdict:
            problems.append(f"verdict {a['verdict']} with ratios {a['min_ratio']}, {a['max_ratio']}")
    return problems, None


# ---------------------------------------------------------------------------
# pl-exact
# ---------------------------------------------------------------------------

def _pl_vertices(A, V):
    """Problems and worst exact active residual of V as the vertex set of
    {x >= 0 : A x >= 1}."""
    problems, worst = [], 0.0
    d = A.shape[1]
    for v in V:
        active, lowest, rank = ref.vertex_residual(A, v)
        worst = max(worst, active)
        if lowest < -1e-9 or np.any(v < 0):
            problems.append(f"{v.tolist()} is not feasible")
        if rank < d or active > 1e-12:
            problems.append(f"{v.tolist()} is not a vertex (rank {rank}, residual {active:.3g})")
    return problems, worst


def _pl_dual(job, out, polygon):
    c = job["check"]
    V = np.asarray(out["dual"]["functionals"], dtype=float)
    problems = []
    if out["dual"]["type"] != "pl":
        return ["dual of a PL antinorm is not PL"], None
    if out["report"]["max_young_violation"] > 1e-8:
        problems.append("reported Young violation above 1e-8")
    if polygon is not None:
        A = np.asarray(polygon["vertices"], dtype=float)
        # autopolar: the dual's rows are the polygon's own vertices
        same = len(V) == len(A) and np.allclose(_rowsort(V), _rowsort(A), rtol=1e-9, atol=1e-12)
        if not same:
            problems.append("dual of an autopolar polygon differs from the polygon")
        probes, lp = [], []
    else:
        A = np.asarray(c["A"], dtype=float)
        probes, lp = c["probes"], c["lp"]
    more, worst = _pl_vertices(A, V)
    problems += more
    for p, value in zip(probes, lp):   # LP at HiGHS tolerances: pass/fail only
        got = float(np.min(V @ np.asarray(p)))
        if abs(got - value) > 1e-7 * max(1.0, abs(value)):
            problems.append(f"dual value {got!r} at {p} vs LP {value!r}")
    P = np.random.default_rng(len(V)).lognormal(0.0, 1.0, (32, A.shape[1]))
    problems += _young(ref.pl_value(V, P), lambda X: ref.pl_value(A, X), P,
                       np.random.default_rng(len(A)))
    return problems, digits(worst)


def _facets(V):
    """Facet functionals of a conic polygon with vertex chain V (first
    vertex on the OY axis), solved exactly from consecutive vertex pairs,
    plus the horizontal facet through the last vertex."""
    out = []
    for a, b in zip(V[:-1], V[1:]):
        a = [Fraction(x) for x in a]
        b = [Fraction(x) for x in b]
        det = a[0] * b[1] - a[1] * b[0]
        out.append([float((b[1] - a[1]) / det), float((a[0] - b[0]) / det)])
    out.append([0.0, float(1 / Fraction(V[-1][1]))])
    return np.array(out)


def _autopolar(job, out):
    k = job["check"]["k"]
    V = np.asarray(out["vertices"], dtype=float)
    problems = []
    if V.shape != (2 * k, 2) or out["k"] != k:
        return [f"expected {2 * k} vertices for k = {k}"], None
    if V[0, 0] != 0.0 or np.any(V[1:] <= 0):
        problems.append("chain does not start on OY or leaves the open orthant")
    turns = [(b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
             for a, b, c in zip(V[:-2], V[1:-1], V[2:])]
    if np.any(np.array(turns) <= 0):
        problems.append("vertex chain is not strictly convex")
    H = _facets(V)
    if not np.allclose(_rowsort(H), _rowsort(V), rtol=1e-9, atol=1e-12):
        problems.append("antipolar computed from the facets does not reproduce the vertices")
    a = np.asarray(out["contact"], dtype=float)
    if abs(np.hypot(*a) - 1.0) > 1e-9 or abs(float(ref.pl_value(H, a)[0]) - 1.0) > 1e-9:
        problems.append(f"contact {a.tolist()} is not a unit antisphere point")
    return problems, None


def _trig(job, text, polygon):
    c = job["check"]
    rows = [list(map(float, line.split(","))) for line in text.strip().splitlines()[1:]]
    if polygon is not None:
        V = np.asarray(polygon["vertices"], dtype=float)
        spec = {"kind": "pl", "A": V}
        angle = math.atan2(V[polygon["k"]][1], V[polygon["k"]][0])
    else:
        spec, angle = c["spec"], c["angle"]
    # rows carry 12 significant digits; a PL contact vertex is exact, a
    # smooth one comes from a golden-section search, which places a minimum
    # only to about sqrt(machine eps)
    lipschitz = float(np.max(np.hypot(*np.asarray(spec["A"]).T))) if spec["kind"] == "pl" else 0.0
    problems, errs, phis = [], [], []
    if not rows:
        return ["no rows"], None
    for theta, ch, sh, res in rows:
        if not (math.isfinite(ch) and math.isfinite(sh)):
            problems.append(f"theta {theta}: no value")
            continue
        P = ref.frame_to_plane(ch, sh, angle)
        fP = float(spec_value(spec, P)[0])
        tol = 1e-9 + 1e-11 * lipschitz * float(np.hypot(*P)) if lipschitz else 1e-6
        if abs(fP - 1.0) > tol:
            problems.append(f"theta {theta}: f(P) = {fP!r}, not on the antisphere")
        if not (res <= 1e-7 or (polygon is not None and math.isnan(res))):
            problems.append(f"theta {theta}: identity residual {res!r}")
        phis.append(math.atan2(P[1], P[0]))
        if spec["kind"] == "sqrt2xy":
            cc, ss = ref.classical_cosh_sinh(theta)
            errs.append(max(_rel(ch, cc), abs(sh - ss) / cc))
    if np.any(np.diff(phis) <= 0):
        problems.append("points do not advance toward OY as theta grows")
    return problems, (digits(max(errs)) if errs else None)


# ---------------------------------------------------------------------------
# smooth-numeric
# ---------------------------------------------------------------------------

def _sampled_dual(job, out):
    spec = job["check"]["spec"]
    P = np.asarray(out["dual"]["points"], dtype=float)
    vals = np.asarray(out["dual"]["values"], dtype=float)
    problems, errs = [], []
    if out["report"]["max_young_violation"] > 1e-8:
        problems.append("reported Young violation above 1e-8")
    for p, v in zip(P, vals):
        expect = spec_dual(spec, p)
        if expect is None:
            continue
        errs.append(_rel(v, expect))
        if errs[-1] > 1e-7:
            problems.append(f"dual at {p.tolist()} is {v!r}, reference {expect!r}")
    problems += _young(vals, lambda X: spec_value(spec, X), P, np.random.default_rng(len(P)))
    return problems, (digits(max(errs)) if errs else None)


def _value(job, out):
    expect = job["check"]["expect"]
    err = _rel(out["value"], expect)
    problems = [f"value {out['value']!r}, reference {expect!r}"] if err > 1e-7 else []
    return problems, digits(err)


def _values(job, out):
    c = job["check"]
    expect = spec_value(c["spec"], np.asarray(c["points"]))
    err = float(np.max(np.abs(np.asarray(out["values"]) - expect) / np.abs(expect)))
    problems = [f"values off the closed form by {err:.3g}"] if err > 1e-8 else []
    return problems, digits(err)


def _verdict(expect, got):
    return [] if got == expect else [f"self-dual verdict {got}, expected {expect}"]


# ---------------------------------------------------------------------------

def check_job(job, rc, text, polygons):
    """(problems, digits) of one completed job; ``polygons`` maps autopolar
    job ids of the same round to their parsed output."""
    c = job["check"]
    kind = c["type"]
    polygon = polygons.get(c.get("polygon_of"))
    if kind == "selfdual":
        problems = _verdict(c["expect"], json.loads(text)["selfdual"])
        if rc != (0 if c["expect"] else 1):
            problems.append(f"exit code {rc} does not match the verdict")
        return problems, None
    if rc != 0:
        return [f"exit code {rc}"], None
    if kind == "trig":
        return _trig(job, text, polygon)
    out = json.loads(text)
    if kind == "autopolar":
        polygons[job["id"]] = out
        return _autopolar(job, out)
    if kind == "selfdual_value":
        return _verdict(c["expect"], out["selfdual"]), None
    return {"lsr": _lsr, "lyapunov": _lyapunov, "sampled_dual": _sampled_dual,
            "value": _value, "values": _values,
            "pl_dual": lambda j, o: _pl_dual(j, o, polygon)}[kind](job, out)
