"""Seeded job mixes of the three workloads.

A plan is a pool of rounds.  Every round of a workload has the same make-up
(the same commands on the same kinds of input); only the numbers drawn from
the seed differ between rounds.  A run goes through the pool in order and
always attempts whole rounds of the same operations.  The pool holds more
rounds than a run gets through today, so no input counts twice in a run
and each timing averages over as many distinct inputs as the run has time
for; a faster program wraps around to the start of the pool.  Each job carries what
its checker needs (``check``), computed here from the inputs with
``reference`` alone; the program only ever sees the files written here.

Jobs run in order inside a round.  In ``pl-exact`` the polygon an
``autopolar`` job writes becomes the input of the three jobs after it; the
worker does that hand-over between jobs (``glue``), outside the timed span.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

VARIANTS = 4      # parameter draws per smooth 2-D antinorm kind and round
AUTOPOLAR_K = range(1, 13)  # k >= 13 fails for some seeds (see CHANGES.md)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli(job_id, argv, check, output="stdout", **extra):
    return {"id": job_id, "kind": "cli", "argv": [str(a) for a in argv],
            "output": output, "check": check, **extra}


def _lib(job_id, call, check):
    return {"id": job_id, "kind": "lib", "call": call, "output": "value", "check": check}


# ---------------------------------------------------------------------------
# lsr-families
# ---------------------------------------------------------------------------

DIAG = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]


def _shear(q):
    return [q * np.array([[1.0, 1.0], [0.0, 1.0]]), q * np.array([[1.0, 0.0], [1.0, 1.0]])]


def _family(kind, m, d, rng):
    if kind == "dense":
        return rng.uniform(0.0, 1.0, (m, d, d))
    if kind == "lognormal":
        return rng.lognormal(0.0, 1.0, (m, d, d))
    A = rng.uniform(0.0, 1.0, (m, d, d)) * (rng.random((m, d, d)) < 0.4)
    for i in range(m):
        A[i][np.diag_indices(d)] = rng.uniform(0.5, 1.5, d)
    return A


def _lsr_round(rng, r, work):
    jobs = []

    def lsr(name, mats, max_len, iters):
        path = _write(os.path.join(work, f"r{r}-{name}.json"),
                      {"dim": len(mats[0]), "matrices": np.asarray(mats).tolist()})
        jobs.append(_cli(f"r{r}.lsr.{name}",
                         ["lsr", "--family", path, "--max-len", max_len, "--iters", iters,
                          "--json", "--quiet"],
                         {"type": "lsr", "mats": np.asarray(mats).tolist(),
                          "max_len": max_len, "seed": int(rng.integers(2**31))}))

    # two draws of each cheap d = 2 stratum: their brackets are the most
    # spread (exact or a digit wide), so they set how steady answer_digits is
    for kind in ("dense", "sparse", "lognormal"):
        for m in (2, 3):
            for d, copies in ((2, 2), (3, 1)):
                for c in range(copies):
                    lsr(f"{kind}-m{m}-d{d}" + (f"-{c}" if copies > 1 else ""),
                        _family(kind, m, d, rng), 8 if m == 2 else 6, 10 if d == 2 else 4)
    lsr("diag", DIAG, 8, 10)
    lsr("shear", _shear(0.9), 8, 10)

    sum2 = _write(os.path.join(work, f"r{r}-sum2.json"),
                  {"type": "builtin", "name": "sum", "dim": 2, "params": {}})
    lyap = [("shear", _shear(0.9), [0.5, 0.5]),
            ("dense-m2-d2", _family("dense", 2, 2, rng), rng.dirichlet([2.0, 2.0])),
            ("lognormal-m3-d3", _family("lognormal", 3, 3, rng), rng.dirichlet([2.0] * 3))]
    for name, mats, probs in lyap:
        path = _write(os.path.join(work, f"r{r}-lyap-{name}.json"),
                      {"dim": len(mats[0]), "matrices": np.asarray(mats).tolist(),
                       "probabilities": np.asarray(probs).tolist()})
        cli_seed = int(rng.integers(2**31))
        argv = ["lyapunov", "--family", path, "--steps", 400, "--trials", 16,
                "--seed", cli_seed, "--json", "--quiet"]
        if name == "shear":
            argv += ["--antinorm", sum2]
        jobs.append(_cli(f"r{r}.lyapunov.{name}", argv,
                         {"type": "lyapunov", "mats": np.asarray(mats).tolist(),
                          "probs": np.asarray(probs).tolist(), "steps": 400, "trials": 16,
                          "seed": int(rng.integers(2**31)),
                          "sum_antinorm": name == "shear"}))
    return jobs


# ---------------------------------------------------------------------------
# pl-exact
# ---------------------------------------------------------------------------

def _pl_rows(rng, d, irredundant, redundant):
    """Rows on the surface prod a_i = 1 (all irredundant) plus rows that a
    row or a convex combination of two rows dominates (all redundant)."""
    U = rng.dirichlet(2.0 * np.ones(d), size=irredundant)
    A = U / np.exp(np.log(U).mean(axis=1, keepdims=True))
    extra = []
    for _ in range(redundant):
        i, j = rng.choice(irredundant, size=2, replace=False)
        lam = rng.uniform(0.0, 1.0)
        base = lam * A[i] + (1.0 - lam) * A[j]
        extra.append(base * rng.uniform(1.05, 1.5) + rng.uniform(0.0, 0.2, d))
    rows = np.vstack([A, extra]) if extra else A
    return rows[rng.permutation(len(rows))]


def _pl_round(rng, r, work):
    jobs = []
    for i, (d, irr, red) in enumerate(((2, 24, 6), (3, 12, 4), (4, 8, 3), (3, 14, 2))):
        A = _pl_rows(rng, d, irr, red)
        name = f"pl{i}-d{d}-m{len(A)}"
        path = _write(os.path.join(work, f"r{r}-{name}.json"),
                      {"type": "pl", "dim": d, "functionals": A.tolist()})
        probes = rng.dirichlet(np.ones(d), size=8)
        jobs.append(_cli(f"r{r}.dual.{name}",
                         ["dual", "--input", path, "--output", path + ".dual.json",
                          "--seed", int(rng.integers(2**31)), "--quiet"],
                         {"type": "pl_dual", "A": A.tolist(), "probes": probes.tolist(),
                          "lp": [ref.pl_dual_lp(A, p) for p in probes]},
                         output=path + ".dual.json"))
    for k in AUTOPOLAR_K:
        poly = os.path.join(work, f"r{r}-poly-k{k}.json")
        pl = poly + ".pl.json"
        jobs.append(_cli(f"r{r}.autopolar.k{k}",
                         ["autopolar", "--k", k, "--seed", int(rng.integers(2**31)),
                          "--output", poly, "--quiet"],
                         {"type": "autopolar", "k": k}, output=poly,
                         glue={"polygon_to_pl": pl}))
        jobs.append(_cli(f"r{r}.selfdual.k{k}", ["selfdual-check", "--input", pl, "--json", "--quiet"],
                         {"type": "selfdual", "expect": True, "polygon_of": f"r{r}.autopolar.k{k}"}))
        jobs.append(_cli(f"r{r}.dual.k{k}",
                         ["dual", "--input", pl, "--output", pl + ".dual.json", "--quiet"],
                         {"type": "pl_dual", "polygon_of": f"r{r}.autopolar.k{k}"},
                         output=pl + ".dual.json"))
        # the theta range is filled in by the glue from the polygon's own reach
        jobs.append(_cli(f"r{r}.trig.k{k}",
                         ["trig", "--antinorm", pl, "--theta-range", "{theta_range}",
                          "--output", pl + ".trig.csv", "--quiet"],
                         {"type": "trig", "polygon_of": f"r{r}.autopolar.k{k}"},
                         output=pl + ".trig.csv", theta_from=f"r{r}.autopolar.k{k}"))
    return jobs


def polygon_theta_range(vertices, k, n=7):
    """``a:b:n`` inside the sector range of an autopolar polygon: from -1.5
    toward OX, up to 0.8 of the reach from the contact vertex A_0 (index k)
    to the OY axis."""
    V = np.asarray(vertices, dtype=float)
    reach = float(sum(V[i + 1][0] * V[i][1] - V[i + 1][1] * V[i][0] for i in range(k)))
    return f"-1.5:{0.8 * reach!r}:{n}"


# ---------------------------------------------------------------------------
# smooth-numeric
# ---------------------------------------------------------------------------

def _contact_angle(spec):
    """Polar angle of the antisphere point nearest the origin."""
    if spec["kind"] == "product":
        w = spec["w"][0]
        return math.atan(math.sqrt((1.0 - w) / w))
    return math.pi / 4   # the symmetric antinorms and the diagonal cone split


def _theta_range(rng, spec, n):
    angle = _contact_angle(spec)
    down, up = ref.sector_reach(lambda X: spec_value(spec, X), angle)
    a = -0.7 * min(down, 2.0)
    b = 0.7 * min(up, 2.0)
    return f"{float(a * rng.uniform(0.8, 1.0))!r}:{float(b * rng.uniform(0.8, 1.0))!r}:{n}", angle


def spec_value(spec, X):
    """The reference value of the antinorm a spec describes."""
    kind = spec["kind"]
    if kind == "sqrt2xy":
        return ref.sqrt2xy(X)
    if kind == "min_eps":
        return ref.min_eps(X, spec["eps"])
    if kind == "circle_arc":
        return ref.circle_arc(X, spec["R"])
    if kind == "product":
        return ref.product(X, spec["w"], spec["c"])
    if kind == "cone_split":
        return ref.cone_split_circle(X, spec["side"])
    if kind == "rootsum3":
        return ref.rootsum3(X)
    if kind == "pl":
        return ref.pl_value(spec["A"], X)
    raise ValueError(kind)


def spec_dual(spec, p):
    """Closed-form dual value at p, or None where no closed form applies."""
    kind = spec["kind"]
    if kind == "sqrt2xy":
        return float(ref.sqrt2xy(p)[0])
    if kind == "min_eps":
        return ref.min_eps_dual(p, spec["eps"])
    if kind == "circle_arc":
        return float(ref.circle_arc_dual(p, spec["R"])[0])
    if kind == "product":
        return float(ref.product_dual(p, spec["w"], spec["c"])[0])
    if kind == "cone_split":       # self-dual
        return float(ref.cone_split_circle(p, spec["side"])[0])
    if kind == "rootsum3":
        return float(ref.rootsum3_dual(p)[0])
    raise ValueError(kind)


def _selfdual(spec):
    return spec["kind"] in ("sqrt2xy", "product", "cone_split")


def _smooth_round(rng, r, work):
    jobs = []
    side = "upper" if rng.random() < 0.5 else "lower"
    specs = [("sqrt2xy", {"kind": "sqrt2xy"},
              {"type": "builtin", "name": "sqrt2xy", "dim": 2, "params": {}})]
    for v in range(VARIANTS):
        eps = float(rng.uniform(0.2, 1.0))
        specs.append((f"min_eps{v}", {"kind": "min_eps", "eps": eps},
                      {"type": "builtin", "name": "min_eps", "dim": 2, "params": {"eps": eps}}))
        R = float(rng.uniform(1.5, 4.0))
        specs.append((f"circle_arc{v}", {"kind": "circle_arc", "R": R},
                      {"type": "builtin", "name": "circle_arc", "dim": 2, "params": {"radius": R}}))
        w0 = float(rng.uniform(0.25, 0.75))
        w = [w0, 1.0 - w0]
        c = ref.product_selfdual_scale(w)
        specs.append((f"product{v}", {"kind": "product", "w": w, "c": c},
                       {"type": "product", "weights": w, "scale": c}))
    circle = {"type": "builtin", "name": "circle_arc", "dim": 2, "params": {"radius": ref.CIRCLE_R}}
    apex = [math.sqrt(0.5), math.sqrt(0.5)]
    specs.append(("cone_split", {"kind": "cone_split", "side": side},
                  {"type": "cone_split", "inner": circle, "apex": apex, "side": side,
                   "grid_n": 4096}))

    probe = rng.lognormal(0.0, 1.0, (12, 2))
    jobs.append(_lib(f"r{r}.construct1",
                     {"fn": "construct1", "inner": circle, "apex": apex, "side": side,
                      "grid_n": 4096, "points": probe.tolist()},
                     {"type": "values", "spec": {"kind": "cone_split", "side": side},
                      "points": probe.tolist()}))
    for name, spec, expr in specs:
        path = _write(os.path.join(work, f"r{r}-{name}.json"), expr)
        samples = 3 if name == "cone_split" else 7
        jobs.append(_cli(f"r{r}.dual.{name}",
                         ["dual", "--input", path, "--samples", samples,
                          "--seed", int(rng.integers(2**31)), "--output", path + ".dual.json",
                          "--quiet"],
                         {"type": "sampled_dual", "spec": spec}, output=path + ".dual.json"))
        jobs.append(_cli(f"r{r}.selfdual.{name}",
                         ["selfdual-check", "--input", path, "--json", "--quiet"],
                         {"type": "selfdual", "expect": _selfdual(spec)}))
        if _selfdual(spec):
            # trig on non-self-dual smooth antinorms prints only NaN rows
            # (see CHANGES.md), so it runs on the self-dual ones
            rng_text, angle = _theta_range(rng, spec, 7)
            jobs.append(_cli(f"r{r}.trig.{name}",
                             ["trig", "--antinorm", path, "--theta-range", rng_text,
                              "--output", path + ".trig.csv", "--quiet"],
                             {"type": "trig", "spec": spec, "angle": angle},
                             output=path + ".trig.csv"))

    w3 = rng.dirichlet(3.0 * np.ones(3)).tolist()
    c3 = ref.product_selfdual_scale(w3)
    d3 = [("rootsum3", {"kind": "rootsum3"},
           {"type": "builtin", "name": "rootsum3", "dim": 3, "params": {}}),
          ("product3", {"kind": "product", "w": w3, "c": c3},
           {"type": "product", "weights": w3, "scale": c3})]
    for name, spec, expr in d3:
        p = rng.lognormal(0.0, 0.7, 3)
        jobs.append(_lib(f"r{r}.dual_numeric.{name}",
                         {"fn": "dual_numeric", "expr": expr, "p": p.tolist()},
                         {"type": "value", "expect": spec_dual(spec, p)}))
        jobs.append(_lib(f"r{r}.is_selfdual.{name}",
                         {"fn": "is_selfdual", "expr": expr, "n_grid": 2},
                         {"type": "selfdual_value", "expect": _selfdual(spec)}))
    return jobs


# workload: (round generator, rounds in the pool).  A 30-s run gets through
# 22 to 31 rounds of lsr-families, 13 to 18 of pl-exact and 4 to 6 of
# smooth-numeric on 2 shared vCPUs; a round repeated within a run would
# weigh its inputs twice and widen the spread between seeds.
WORKLOADS = {
    "lsr-families": (_lsr_round, 40),
    "pl-exact": (_pl_round, 24),
    "smooth-numeric": (_smooth_round, 8),
}


def make_plan(workload, seed, work):
    """Write the inputs of a pool of rounds into ``work``; return the plan."""
    make_round, pool = WORKLOADS[workload]
    rounds = [make_round(np.random.default_rng([seed, r]), r, work) for r in range(pool)]
    return {"workload": workload, "seed": seed, "rounds": rounds}
