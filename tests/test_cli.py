import json
import math
import os

import numpy as np
import pytest

from antinorms import catalog
from antinorms.cli import main
from antinorms.serialize import expr_to_dict, family_to_dict
from antinorms import MatrixFamily, TrigContext


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
