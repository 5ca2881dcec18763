"""scipy loads on the first solver call, and the solver names stay patchable.

``_search.linprog``, ``minimize`` and ``brentq`` import ``scipy.optimize``
when first called.  Each caller binds them as a module attribute under the
scipy name, and the benchmark's per-layer trace wraps exactly those
attributes, so a call through the attribute must reach the solver and give
the same result.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import antinorms
from antinorms import duality, exprs, geometry, trig
from antinorms.cli import main
from antinorms.exprs import PLAntinorm, canonicalize_pl, catalog
from antinorms.geometry import ConicPolytope
from antinorms.serialize import expr_to_dict

SRC = str(pathlib.Path(antinorms.__file__).resolve().parents[1])

# d = 2 lsr, d = 2 PL dual and autopolar call no scipy routine; a d = 3 PL
# dual with a redundant row runs the redundancy LP
_SCRIPT = """
import json, sys
import antinorms
import antinorms.cli
from antinorms.cli import main

def write(name, obj):
    with open(name, "w") as fh:
        json.dump(obj, fh)
    return name

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

codes = [
    main(["lsr", "--family", write("fam.json", {"dim": 2, "matrices": [
        [[1.0, 0.5], [0.2, 0.8]], [[0.7, 0.1], [0.9, 1.2]]]}),
          "--max-len", "6", "--output", "lsr.json", "--quiet"]),
    main(["dual", "--input", write("pl2.json", {"type": "pl", "dim": 2, "functionals": [
        [1.0, 0.2], [0.3, 1.0], [1.5, 1.5]]}), "--output", "dual2.json", "--quiet"]),
    main(["autopolar", "--k", "3", "--seed", "1", "--output", "poly.json", "--quiet"]),
]
solver_free = scipy_loaded()
codes.append(main(["dual", "--input", write("pl3.json", {"type": "pl", "dim": 3, "functionals": [
    [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [1.1, 1.1, 0.1]]}),
                   "--output", "dual3.json", "--quiet"]))
print(json.dumps({"codes": codes, "solver_free": solver_free, "after": scipy_loaded()}))
"""


def test_solver_free_commands_never_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [SRC, os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    assert out["solver_free"] == []
    assert "scipy.optimize" in out["after"]


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a pass-through that records each result."""
    results = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(module, name, counting)
    return results


def test_exprs_linprog_is_the_redundancy_lp(monkeypatch):
    # [1.1, 1.1, 0.1] is above the midpoint of the first two rows, and above no single row
    f = PLAntinorm([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [1.1, 1.1, 0.1]])
    plain = canonicalize_pl(f).functionals
    calls = _count_calls(monkeypatch, exprs, "linprog")
    traced = canonicalize_pl(f).functionals
    assert len(calls) > 0
    assert np.array_equal(traced, plain)
    assert plain.shape == (3, 3)


def test_canonicalize_pl_solves_an_lp_only_for_rows_no_certificate_decides(monkeypatch):
    # twelve extreme rows on the surface prod a_i = 1, and four rows above them
    rng = np.random.default_rng(3)
    P = rng.lognormal(0.0, 0.5, (12, 2))
    P = np.hstack([P, 1.0 / np.prod(P, axis=1, keepdims=True)])
    X = np.vstack([P, 1.3 * P[:4] + 0.1])
    calls = _count_calls(monkeypatch, exprs, "linprog")
    kept = canonicalize_pl(PLAntinorm(X)).functionals
    assert len(calls) < len(X)
    assert np.array_equal(kept, np.unique(P, axis=0))


def test_geometry_linprog_is_the_positive_hull_lp(monkeypatch):
    V = [[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0], [0.6, 0.6, 0.6]]
    X = [[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.7, 0.6, 0.7], [2.0, 0.1, 0.3]]
    plain = [ConicPolytope.from_vertices(V).contains(x) for x in X]
    calls = _count_calls(monkeypatch, geometry, "linprog")
    traced = [ConicPolytope.from_vertices(V).contains(x) for x in X]
    assert len(calls) > 0
    assert traced == plain
    assert True in plain and False in plain


def test_duality_minimize_is_the_descent_and_reports_nfev(monkeypatch):
    f, p = catalog("rootsum3"), np.array([0.3, 0.5, 0.2])
    plain = duality.dual_numeric(f, p)
    calls = _count_calls(monkeypatch, duality, "minimize")
    traced = duality.dual_numeric(f, p)
    assert len(calls) > 0
    assert all(res.nfev > 0 for res in calls)
    assert traced == plain


def test_trig_brentq_is_the_boundary_root(monkeypatch, tmp_path):
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(expr_to_dict(catalog("sqrt2xy"))))

    def run(name):
        out = tmp_path / name
        assert main(["trig", "--antinorm", str(inp), "--theta-range", "-2:2:9",
                     "--output", str(out), "--quiet"]) == 0
        return out.read_text()

    plain = run("plain.csv")
    calls = _count_calls(monkeypatch, trig, "brentq")
    traced = run("traced.csv")
    assert len(calls) > 0
    assert traced == plain
