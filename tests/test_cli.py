import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import antinorms
from antinorms import catalog
from antinorms.cli import main
from antinorms.serialize import expr_to_dict, family_to_dict
from antinorms.svgplot import antisphere_points
from antinorms import MatrixFamily, PLAntinorm, TrigContext


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return tmp_path, write


def test_dual_sum_to_min(files, capsys):
    tmp, write = files
    inp = write("sum.json", expr_to_dict(catalog("sum", dim=3)))
    out = str(tmp / "dual.json")
    assert main(["dual", "--input", inp, "--output", out, "--quiet"]) == 0
    d = json.load(open(out))
    assert d["dual"]["type"] == "pl"
    assert sorted(d["dual"]["functionals"]) == sorted(np.eye(3).tolist())
    assert d["report"]["max_young_violation"] <= 1e-8
    assert os.path.exists(out + ".manifest.json")


def test_dual_selfdual_polygon_file(files):
    tmp, write = files
    inp = write("k1.json", {"type": "pl", "dim": 2,
                            "functionals": [[0.6, 0.8], [0.0, 1.25]]})
    out = str(tmp / "dual.json")
    assert main(["dual", "--input", inp, "--output", out, "--quiet"]) == 0
    d = json.load(open(out))
    assert sorted(map(tuple, d["dual"]["functionals"])) == [(0.0, 1.25), (0.6, 0.8)]


def test_dual_sampled_path(files):
    tmp, write = files
    inp = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    out = str(tmp / "dual.json")
    assert main(["dual", "--input", inp, "--output", out, "--samples", "21", "--quiet"]) == 0
    d = json.load(open(out))
    assert d["dual"]["type"] == "sampled_dual"
    pts = np.array(d["dual"]["points"])
    vals = np.array(d["dual"]["values"])
    assert np.allclose(vals, np.sqrt(2 * pts[:, 0] * pts[:, 1]), atol=1e-8)


def test_malformed_json_exit_2(files, capsys):
    tmp, _ = files
    bad = tmp / "bad.json"
    bad.write_text("{nope")
    assert main(["dual", "--input", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_autopolar_k0_and_k1(files):
    tmp, _ = files
    out = str(tmp / "p0.json")
    assert main(["autopolar", "--k", "0", "--output", out, "--quiet"]) == 0
    assert json.load(open(out))["vertices"] == [[1.0, 0.0]]
    out1 = str(tmp / "p1.json")
    svg = str(tmp / "p1.svg")
    assert main(["autopolar", "--k", "1", "--a0", "0.6,0.8",
                 "--output", out1, "--svg", svg, "--quiet"]) == 0
    d = json.load(open(out1))
    assert np.allclose(d["vertices"], [[0.0, 1.25], [0.6, 0.8]])
    assert np.allclose(d["contact"], [0.6, 0.8])
    assert open(svg).read().startswith("<svg")


def test_autopolar_random_seed_verified(files):
    tmp, _ = files
    out = str(tmp / "p3.json")
    assert main(["autopolar", "--k", "3", "--seed", "7", "--output", out, "--quiet"]) == 0
    assert len(json.load(open(out))["vertices"]) == 6


def test_autopolar_infeasible_exit_1(files, capsys):
    assert main(["autopolar", "--k", "2", "--a0", "0.6,0.8",
                 "--params", "50,0.5", "--quiet"]) == 1


def test_selfdual_check_verdicts(files):
    tmp, write = files
    good = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    bad = write("s.json", expr_to_dict(catalog("sum", dim=2)))
    assert main(["selfdual-check", "--input", good, "--quiet"]) == 0
    assert main(["selfdual-check", "--input", bad, "--quiet"]) == 1


def test_extension_command(files, capsys):
    tmp, write = files
    inp = write("d.json", expr_to_dict(catalog("rootsum3_drop")))
    assert main(["extension", "--input", inp, "--point", "1,1,0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f"] == 2.0
    assert abs(out["extension"] - 4.0) < 1e-6


def test_lsr_command(files, capsys):
    tmp, write = files
    fam = write("fam.json", family_to_dict(
        MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])))
    assert main(["lsr", "--family", fam, "--max-len", "4", "--iters", "8",
                 "--json", "--quiet"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["upper"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert out["witness_product"] == "AB"
    assert out["lower"] <= out["upper"] + 1e-9
    assert out["estimate_low"] <= math.sqrt(2) <= out["estimate_high"]


def test_lsr_prints_no_sampled_lower_in_d5(files, capsys):
    # in d >= 5 the lower certificate would be sampled on a simplex grid
    tmp, write = files
    rng = np.random.default_rng(5)
    mats = [np.diag(1.0 + rng.random(5)) + (rng.random((5, 5)) < 0.3) * rng.random((5, 5))
            for _ in range(2)]
    fam = write("fam5.json", family_to_dict(MatrixFamily(mats)))
    assert main(["lsr", "--family", fam, "--max-len", "4", "--iters", "4",
                 "--json", "--quiet"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower"] is None and out["upper"] > 0
    assert set(out) == _KEYS["lsr"]


def test_lyapunov_command_with_antinorm(files, capsys):
    tmp, write = files
    q = 0.8
    fam = write("fam.json", family_to_dict(MatrixFamily(
        [q * np.array([[1, 1], [0, 1.0]]), q * np.array([[1, 0], [1, 1.0]])],
        probabilities=[0.5, 0.5])))
    f = write("sum.json", expr_to_dict(catalog("sum", dim=2)))
    assert main(["lyapunov", "--family", fam, "--steps", "200", "--trials", "8",
                 "--antinorm", f, "--json", "--quiet", "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["antinorm_check"]["verdict"] == "anti_lyapunov"
    assert out["antinorm_check"]["min_ratio"] >= q * math.sqrt(2) - 1e-9


def test_ct_check_command(files, capsys):
    tmp, write = files
    fam = write("fam.json", {"dim": 2, "matrices": [[[-1.0, 0.0], [0.0, -2.0]]]})
    f = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    assert main(["ct-check", "--family", fam, "--antinorm", f, "--s", "1e-3",
                 "--json", "--quiet"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eps"] == pytest.approx(1.5e-3, rel=5e-3)


def test_trig_command_csv(files, capsys):
    tmp, write = files
    f = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    out = str(tmp / "trig.csv")
    assert main(["trig", "--antinorm", f, "--theta-range", "-2:2:9",
                 "--mode", "sector", "--output", out, "--quiet"]) == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "theta,cosh,sinh,identity_residual"
    for row in rows[1:]:
        t, c, s, r = map(float, row.split(","))
        assert c == pytest.approx(math.cosh(t), abs=1e-8)
        assert s == pytest.approx(math.sinh(t), abs=1e-8)
        assert r <= 1e-7


def test_trig_svg_draws_the_antisphere(files):
    tmp, write = files
    svg = str(tmp / "h.svg")
    assert main(["trig", "--antinorm", write("h.json", expr_to_dict(catalog("sqrt2xy"))),
                 "--theta-range", "-1:1:3", "--svg", svg, "--output", str(tmp / "h.csv"),
                 "--quiet"]) == 0
    assert "<polyline" in open(svg).read()


def test_trig_svg_draws_a_pl_antisphere_through_its_vertices(files):
    tmp, write = files
    f = PLAntinorm([[1.0, 0.2], [0.3, 1.0]])
    curve = np.array(antisphere_points(f))
    a, d = curve[:-1], np.diff(curve, axis=0)
    for v in f.body.vertices():
        t = np.clip(np.einsum("ij,ij->i", v - a, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
        assert np.min(np.linalg.norm(a + t[:, None] * d - v, axis=1)) <= 1e-12
    svg = str(tmp / "pl.svg")
    assert main(["trig", "--antinorm", write("pl.json", expr_to_dict(f)), "--theta-range",
                 "-1:1:3", "--svg", svg, "--output", str(tmp / "pl.csv"), "--quiet"]) == 0
    assert "<polyline" in open(svg).read()


def test_trig_without_dual_context_keeps_values(files):
    tmp, write = files
    for name, spec, finite in [("min_eps", "-1.5:1.5:7", [True] * 7),
                               ("circle_arc", "-3:3:7", [False, False, True, True, True, False, False])]:
        f = catalog(name)
        angle = TrigContext.build(f).frame_angle
        out = str(tmp / f"{name}.csv")
        assert main(["trig", "--antinorm", write(f"{name}.json", expr_to_dict(f)),
                     "--theta-range", spec, "--output", out, "--quiet"]) == 0
        rows = open(out).read().strip().splitlines()[1:]
        assert len(rows) == len(finite)
        for row, ok in zip(rows, finite):
            t, c, s, r = map(float, row.split(","))
            assert math.isnan(r)
            if not ok:
                assert math.isnan(c) and math.isnan(s)
                continue
            P = [c * math.cos(angle) - s * math.sin(angle), c * math.sin(angle) + s * math.cos(angle)]
            assert f.value(P) == pytest.approx(1.0, abs=1e-9)


def test_trig_on_pl_that_is_not_selfdual(files):
    # the identity is checked against the antisphere of the exact PL dual
    tmp, write = files
    f = PLAntinorm([[1.0, 2.0], [3.0, 1.0]])
    angle = TrigContext.build(f).frame_angle
    out = str(tmp / "pl.csv")
    assert main(["trig", "--antinorm", write("pl.json", expr_to_dict(f)),
                 "--theta-range", "-0.5:0.3:17", "--output", out, "--quiet"]) == 0
    rows = open(out).read().strip().splitlines()[1:]
    assert len(rows) == 17
    finite = 0
    for row in rows:
        t, c, s, r = map(float, row.split(","))
        if math.isnan(c):
            continue
        finite += 1
        P = [c * math.cos(angle) - s * math.sin(angle), c * math.sin(angle) + s * math.cos(angle)]
        assert f.value(np.maximum(P, 0.0)) == pytest.approx(1.0, abs=1e-9)   # an end is on an axis
        assert math.isnan(r) or r <= 1e-7
    assert finite >= 12   # theta in [-0.4, 0.2]


def test_missing_input_file_exit_2(files, capsys):
    tmp, _ = files
    missing = str(tmp / "nosuch.json")
    for argv in (["dual", "--input", missing], ["lsr", "--family", missing]):
        assert main(argv + ["--quiet"]) == 2
        assert "input file not found" in capsys.readouterr().err


def test_demo_discontinuity(files, capsys):
    assert main(["demo-discontinuity", "--eps", "0.1,0.4,0.9", "--json", "--quiet"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert max(out["dual_at_e1"]) <= 1e-6
    assert out["limit_dual_at_e1"] == 1.0


def test_determinism_same_seed_same_output(files, capsys):
    args = ["demo-discontinuity", "--eps", "0.3", "--json", "--quiet", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_env_seed_default(files, capsys, monkeypatch):
    tmp, write = files
    monkeypatch.setenv("ANTINORMS_SEED", "123")
    fam = write("fam.json", family_to_dict(
        MatrixFamily([[[2.0]]], probabilities=[1.0])))
    assert main(["lyapunov", "--family", fam, "--steps", "10", "--trials", "2",
                 "--json", "--quiet"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 123
    assert out["estimate"] == pytest.approx(math.log(2), abs=1e-12)


def test_autopolar_svg_clips_segments_to_the_box(files):
    # k = 2, seed 3 has the vertex (0, 11.19) far above the box [0, 3.6]^2;
    # its segment is clipped at the top edge instead of being dropped
    tmp, _ = files
    out, svg = tmp / "p2.json", tmp / "p2.svg"
    assert main(["autopolar", "--k", "2", "--seed", "3", "--output", str(out),
                 "--svg", str(svg), "--quiet"]) == 0
    V = np.array(json.loads(out.read_text())["vertices"])
    assert V[0][0] == 0.0 and V[0][1] > 11
    lines = [ln for ln in svg.read_text().splitlines() if 'stroke="#1f77b4"' in ln]
    assert len(lines) == 1
    pts = [tuple(map(float, p.split(","))) for p in lines[0].split('"')[1].split()]
    # the top edge y = 3.6 maps to -96 px; the clipped point lies on the
    # segment from V[1] towards V[0]
    x_top = V[1][0] * (V[0][1] - 3.6) / (V[0][1] - V[1][1])
    assert pts[0] == pytest.approx((x_top / 3.0 * 480, -96.0), abs=0.01)
    assert len(pts) == len(V) + 1          # V[1:], plus both ends on the box edge
    assert pts[-1][0] == pytest.approx(3.6 / 3.0 * 480)


def test_schema_invalid_input_exit_2(files, capsys):
    tmp, write = files
    empty = write("empty.json", {})
    fam = write("fam.json", {"dim": 2, "matrices": [[["x", 0.0], [0.0, 1.0]]]})
    for argv in (["dual", "--input", empty], ["lsr", "--family", fam]):
        assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("setting", ["n_coarse", "resolution", "n_starts", "maxiter"])
def test_removed_numeric_dual_setting_exit_2(files, capsys, setting):
    _, write = files
    inner = expr_to_dict(catalog("sqrt2xy"))
    f = write("nd.json", {"type": "numeric_dual", "inner": inner,
                          "settings": {"tol": 1e-9, setting: 257}})
    assert main(["dual", "--input", f, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert setting in err and "Traceback" not in err


def test_manifest_records_parsed_argv_and_svg_digest(files):
    import hashlib

    tmp, _ = files
    out, svg, man = (str(tmp / n) for n in ("p1.json", "p1.svg", "m.json"))
    argv = ["autopolar", "--k", "1", "--a0", "0.6,0.8", "--output", out, "--svg", svg,
            "--manifest", man, "--quiet"]
    assert main(argv) == 0
    m = json.load(open(man))
    assert m["command"] == argv
    for path in (out, svg):
        assert m["outputs"][path] == hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert not list(tmp.glob("*.tmp"))


def test_selfdual_check_honours_explicit_tol(files, monkeypatch):
    import antinorms.cli as cli

    tmp, write = files
    inp = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    seen = []

    def spy(f, tol):
        seen.append(tol)
        return True, 0.0

    monkeypatch.setattr(cli, "is_selfdual", spy)
    assert main(["selfdual-check", "--input", inp, "--tol", "1e-8", "--quiet"]) == 0
    assert main(["selfdual-check", "--input", inp, "--quiet"]) == 0
    assert seen == [1e-8, 1e-7]


# Every command that prints JSON (with --json, or always) or writes a file, with
# the keys of its result; "csv" names the header of the trig CSV.
_KEYS = {
    "selfdual-check": {"selfdual", "max_deviation", "tol"},
    "extension": {"f", "extension"},
    "lsr": {"lower", "upper", "witness_product", "iterations", "estimate_low",
            "estimate_high", "certificate_functionals"},
    "lyapunov": {"estimate", "stderr", "steps", "trials", "seed", "antinorm_check"},
    "ct-check": {"eps", "s", "samples", "seed"},
    "demo-discontinuity": {"eps", "dual_at_e1", "limit_dual_at_e1", "max_bound_excess"},
    "dual": {"dual", "report"},
    "autopolar": {"k", "vertices", "contact", "a0_angle", "step_params"},
    "trig": {"csv"},
}
_NESTED = {
    ("lyapunov", "antinorm_check"): {"min_ratio", "max_ratio", "verdict", "samples", "seed"},
    ("dual", "report"): {"max_young_violation", "max_reflexivity_gap", "samples", "seed"},
    ("dual", "dual"): {"type", "dim", "functionals"},
}


@pytest.mark.parametrize("cmd", sorted(_KEYS))
def test_output_keys_are_pinned(cmd, files, capsys):
    tmp, write = files
    h = write("h.json", expr_to_dict(catalog("sqrt2xy")))
    s = write("s.json", expr_to_dict(catalog("sum", dim=2)))
    fam = write("fam.json", family_to_dict(MatrixFamily(
        [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])], probabilities=[0.5, 0.5])))
    out = str(tmp / "out")
    argv = {
        "selfdual-check": ["--input", h],
        "extension": ["--input", write("d.json", expr_to_dict(catalog("rootsum3_drop"))),
                      "--point", "1,1,0"],
        "lsr": ["--family", fam, "--max-len", "4", "--iters", "4"],
        "lyapunov": ["--family", fam, "--steps", "20", "--trials", "4", "--antinorm", s],
        "ct-check": ["--family", write("ct.json", {"dim": 2, "matrices": [[[-1.0, 0.0], [0.0, -2.0]]]}),
                     "--antinorm", h],
        "demo-discontinuity": ["--eps", "0.5"],
        "dual": ["--input", s],
        "autopolar": ["--k", "1", "--a0", "0.6,0.8"],
        "trig": ["--antinorm", h, "--theta-range", "-1:1:3"],
    }[cmd]
    writes = cmd in ("dual", "autopolar", "lsr", "trig")
    assert main([cmd, *argv, "--quiet"] + (["--output", out] if writes else ["--json"])) == 0
    if cmd == "trig":
        assert open(out).readline() == "theta,cosh,sinh,identity_residual\n"
        return
    d = json.load(open(out)) if writes else json.loads(capsys.readouterr().out)
    assert set(d) == _KEYS[cmd]
    for (c, key), keys in _NESTED.items():
        if c == cmd:
            assert set(d[key]) == keys
    if cmd not in ("dual", "autopolar"):       # these two always print JSON
        capsys.readouterr()
        assert main([cmd, *argv, "--quiet"]) == 0
        keys = {line.split()[0].split(".")[0] for line in capsys.readouterr().out.splitlines()}
        assert keys == _KEYS[cmd]


def test_env_seed_read_on_every_call(files, capsys, monkeypatch):
    _, write = files
    fam = write("fam.json", family_to_dict(MatrixFamily([[[2.0]]], probabilities=[1.0])))
    seeds = []
    for env in ("5", "77"):
        monkeypatch.setenv("ANTINORMS_SEED", env)
        assert main(["lyapunov", "--family", fam, "--steps", "3", "--trials", "2",
                     "--json", "--quiet"]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["seed"])
    assert seeds == [5, 77]


@pytest.mark.parametrize("obj, message", [
    ({"dim": 2, "matrices": [[["x", 0.0], [0.0, 1.0]]]},
     "not a valid family (matrices/0/0/0): 'x' is not of type 'number'"),
    ({"dim": 0, "matrices": "a"}, "not a valid family (matrices): 'a' is not of type 'array'"),
    ([1, 2], "not a valid family (top level): [1, 2] is not of type 'object'"),
])
def test_invalid_family_error_text(files, capsys, obj, message):
    _, write = files
    path = write("bad.json", obj)
    assert main(["lsr", "--family", path, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


_NO_JSONSCHEMA = """
import json, sys
from antinorms.cli import main

for name, obj in [("fam.json", {"dim": 2, "matrices": [[[1.0, 0.5], [0.2, 0.8]]]}),
                  ("pl.json", {"type": "pl", "dim": 2, "functionals": [[1.0, 0.2], [0.3, 1.0]]}),
                  ("bad.json", {"dim": 0, "matrices": "a"})]:
    with open(name, "w") as fh:
        json.dump(obj, fh)
codes = [main(["lsr", "--family", "fam.json", "--max-len", "4", "--quiet"]),
         main(["dual", "--input", "pl.json", "--output", "dual.json", "--quiet"]),
         main(["lsr", "--family", "bad.json", "--quiet"])]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")}))
"""


def test_validated_runs_load_no_jsonschema(tmp_path):
    src = str(pathlib.Path(antinorms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run([sys.executable, "-c", _NO_JSONSCHEMA], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"codes": [0, 0, 2], "loaded": []}



def test_one_vertex_enumeration_per_pl_body(files, monkeypatch):
    # autopolar verifies its polygon and finds the contact on one body; the
    # polygon's own vertex rows are one body for selfdual-check, dual and trig
    from antinorms import geometry

    tmp, write = files
    calls = []
    enumerate_vertices = geometry._enumerate_vertices
    monkeypatch.setattr(geometry, "_enumerate_vertices",
                        lambda H: calls.append(len(H)) or enumerate_vertices(H))
    poly = str(tmp / "poly.json")
    svg = str(tmp / "poly.svg")
    assert main(["autopolar", "--k", "6", "--seed", "4", "--output", poly, "--svg", svg,
                 "--quiet"]) == 0
    counts = [len(calls)]
    V = json.load(open(poly))["vertices"]
    pl = write("pl.json", {"type": "pl", "dim": 2, "functionals": V})
    for argv in (["selfdual-check", "--input", pl, "--json"],
                 ["dual", "--input", pl, "--output", str(tmp / "dual.json")],
                 ["trig", "--antinorm", pl, "--theta-range", "-1:0.5:5",
                  "--output", str(tmp / "trig.csv")]):
        assert main([*argv, "--quiet"]) == 0
        counts.append(len(calls) - sum(counts))
    assert counts == [1, 1, 1, 1]


def test_builtin_min_has_one_pl_form_for_trig(files, monkeypatch):
    # as_pl keeps the form on the instance, so trig's context and its
    # self-duality test share one body: that body and its dual's enumerate
    from antinorms import geometry
    from antinorms.exprs import as_pl, symmetrize

    for f in (catalog("min", dim=2), catalog("sum", dim=3),
              symmetrize(PLAntinorm([[1.0, 0.3], [0.2, 2.0]]), -math.inf)):
        assert as_pl(f) is as_pl(f)
    tmp, write = files
    calls = []
    enumerate_vertices = geometry._enumerate_vertices
    monkeypatch.setattr(geometry, "_enumerate_vertices",
                        lambda H: calls.append(len(H)) or enumerate_vertices(H))
    inp = write("min.json", {"type": "builtin", "name": "min", "dim": 2})
    assert main(["trig", "--antinorm", inp, "--theta-range", "-1:1:5",
                 "--output", str(tmp / "trig.csv"), "--quiet"]) == 0
    assert len(calls) == 2


def test_one_antisphere_table_per_smooth_input(files, monkeypatch):
    # dual, selfdual-check and trig read at most one _Arc, of their input: on
    # a cone split, which has no closed-form dual, the dual's support
    # queries, the contact search and the self-duality probe all query the
    # table the antinorm keeps, and its piece circle_arc answers K2 in
    # closed form, so the K1 table is never built; a self-dual product and
    # min_eps take their closed-form duals, so only trig's quadrature builds
    # their table
    from antinorms import ConeSplitAntinorm, ProductAntinorm
    from antinorms.exprs import _Arc

    tmp, write = files
    built = []
    init = _Arc.__init__
    monkeypatch.setattr(_Arc, "__init__",
                        lambda self, f, u: built.append(type(f).__name__) or init(self, f, u))
    split = ConeSplitAntinorm(catalog("circle_arc"), np.array([1.0, 1.0]) / math.sqrt(2.0),
                              grid_n=4096)
    # (input, tables built per command, exit codes: min_eps is not self-dual)
    for f, expect, codes in ((ProductAntinorm.selfdual([0.3, 0.7]), [0, 0, 1], [0, 0, 0]),
                             (catalog("min_eps"), [0, 0, 1], [0, 1, 0]),
                             (split, [1, 1, 1], [0, 0, 0])):
        inp = write("f.json", expr_to_dict(f))
        counts, exits = [], []
        for argv in (["dual", "--input", inp, "--output", str(tmp / "dual.json")],
                     ["selfdual-check", "--input", inp, "--json"],
                     ["trig", "--antinorm", inp, "--theta-range", "-1:1:5",
                      "--output", str(tmp / "trig.csv")]):
            exits.append(main([*argv, "--quiet"]))
            counts.append(len(built))
            assert built == [type(f).__name__] * len(built), (f, argv[0])
            built.clear()
        assert (counts, exits) == (expect, codes), f
