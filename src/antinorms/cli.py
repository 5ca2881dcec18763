"""Command-line interface.

Subcommands: dual, autopolar, selfdual-check, extension, lsr, lyapunov,
ct-check, trig, demo-discontinuity.  Exit codes: 0 success, 1 verification
failure, 2 input error.  ``ANTINORMS_SEED`` supplies the default seed;
floating output in tables uses 12 significant digits; files are written
atomically (temp + rename) and each file-producing run records a manifest
with input/output digests for reproducibility audits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from ._search import logit_points
from .duality import dual_numeric, dual_pl, duality_discontinuity_demo, young_check
from .dynamics import (
    LSRBoundReport,
    MatrixFamily,
    ct_switching_check,
    invariant_body_iterate,
    lsr_lower_certificate,
    lsr_upper,
    lyapunov_antinorm_check,
    lyapunov_exponent_mc,
    perron_certificate,
)
from .errors import AntinormError
from .exprs import as_pl, catalog, continuous_extension_eval
from .geometry import ConicPolytope, antipolar
from .selfdual import (
    AutopolarSeed,
    construct2,
    contact_point,
    is_selfdual,
    random_autopolar_seed,
)
from .serialize import (
    expr_from_dict,
    expr_to_dict,
    family_from_dict,
    polygon_to_dict,
    validate,
)
from .svgplot import antisphere_points, polygon_chain, render
from .trig import TrigContext, identity_check

_g = lambda v: f"{v:.12g}"  # noqa: E731  (12 significant digits everywhere)


# ---------------------------------------------------------------------------
# manifest and IO helpers
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    command: list
    seed: int | None
    version: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit2(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise SystemExit2(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}")


class SystemExit2(Exception):
    """Input error; mapped to exit code 2."""


class VerificationFailure(Exception):
    """Verification failure; mapped to exit code 1."""


def _load_expr(path):
    d = _load_json(path)
    validate(d, "expr")
    try:
        return expr_from_dict(d)
    except (KeyError, ValueError, TypeError) as e:
        raise SystemExit2(f"{path}: bad antinorm description: {e}")


def _load_family(path):
    d = _load_json(path)
    validate(d, "family")
    try:
        return family_from_dict(d)
    except (ValueError, TypeError) as e:
        raise SystemExit2(f"{path}: bad matrix family: {e}")


def _parse_vec(text):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise SystemExit2(f"cannot parse vector {text!r}")


class Runner:
    """Collects inputs/outputs for the manifest and handles verbosity."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.manifest = RunManifest(command=sys.argv[1:] or [args.cmd],
                                    seed=getattr(args, "seed", None),
                                    version=__version__)

    def read_expr(self, path):
        f = _load_expr(path)
        self.manifest.inputs[path] = _digest(path)
        return f

    def read_family(self, path):
        fam = _load_family(path)
        self.manifest.inputs[path] = _digest(path)
        return fam

    def write(self, path, text):
        _write_atomic(path, text)
        self.manifest.outputs[path] = _digest(path)
        self.say(f"wrote {path}")

    def say(self, msg):
        if not self.args.quiet:
            print(msg)

    def emit(self, obj, table_text):
        if self.args.json:
            print(json.dumps(obj, indent=2))
        else:
            print(table_text)

    def finish(self):
        self.manifest.wall_time_s = round(time.monotonic() - self.t0, 6)
        target = getattr(self.args, "manifest", None)
        if target is None and self.manifest.outputs:
            target = next(iter(self.manifest.outputs)) + ".manifest.json"
        if target:
            _write_atomic(target, json.dumps(asdict(self.manifest), indent=2))
            if not self.args.quiet:
                print(f"manifest: {target}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dual(run):
    args = run.args
    f = run.read_expr(args.input)
    pl = as_pl(f)
    report = young_check(f, samples=2000, seed=args.seed or 0)
    if pl is not None and pl.dim <= 4:
        g = dual_pl(pl)
        payload = expr_to_dict(g)
    else:
        if f.dim == 2:
            pts = logit_points(np.linspace(-10, 10, args.samples))
        else:
            rng = np.random.default_rng(args.seed or 0)
            pts = rng.dirichlet(np.ones(f.dim), size=args.samples)
        vals = [dual_numeric(f, p, tol=args.tol) for p in pts]
        payload = {"type": "sampled_dual", "dim": f.dim,
                   "points": pts.tolist(), "values": vals}
    out = {"dual": payload, "report": report.to_dict()}
    if args.output:
        run.write(args.output, json.dumps(out, indent=2))
    else:
        print(json.dumps(out, indent=2))
    if report.max_young_violation > max(args.tol, 1e-8):
        raise VerificationFailure(
            f"Young violation {_g(report.max_young_violation)} exceeds tolerance")


def cmd_autopolar(run):
    args = run.args
    if args.a0:
        a0 = _parse_vec(args.a0)
        if len(a0) != 2:
            raise SystemExit2("--a0 needs two coordinates")
        angle = math.atan2(a0[1], a0[0])
        params = tuple(_parse_vec(args.params)) if args.params else ()
        seed = AutopolarSeed(args.k, angle, params)
    else:
        rng = np.random.default_rng(args.seed or 0)
        seed = random_autopolar_seed(args.k, rng)
    try:
        poly = construct2(seed)
    except AntinormError as e:
        raise VerificationFailure(str(e))
    a = contact_point(poly.antinorm())
    run.say(f"contact point: ({_g(a[0])}, {_g(a[1])}), |a| = {_g(np.linalg.norm(a))}")
    out = polygon_to_dict(poly)
    out["contact"] = a.tolist()
    out["a0_angle"] = seed.a0_angle
    out["step_params"] = list(seed.step_params)
    if args.output:
        run.write(args.output, json.dumps(out, indent=2))
    else:
        print(json.dumps(out, indent=2))
    if args.svg:
        dual_chain = polygon_chain(antipolar(poly.to_polytope()).vertices())
        render(args.svg,
               curves=[(polygon_chain(poly.vertices), "#1f77b4", None),
                       (dual_chain, "#d62728", "6 4")],
               points=[(a, "#2ca02c")])
        run.manifest.outputs[args.svg] = _digest(args.svg)
        run.say(f"wrote {args.svg}")


def cmd_selfdual_check(run):
    args = run.args
    f = run.read_expr(args.input)
    ok, dev = is_selfdual(f, tol=args.tol)
    run.emit({"selfdual": bool(ok), "max_deviation": dev, "tol": args.tol},
             f"selfdual      {ok}\nmax deviation {_g(dev)}\ntolerance     {_g(args.tol)}")
    if not ok:
        raise VerificationFailure(f"not self-dual: deviation {_g(dev)}")


def cmd_extension(run):
    args = run.args
    f = run.read_expr(args.input)
    x = _parse_vec(args.point)
    w = _parse_vec(args.witness) if args.witness else [1.0] * f.dim
    fx = f.value(x)
    Fx = continuous_extension_eval(f, x, w)
    run.emit({"f": fx, "extension": Fx},
             f"f(x)  = {_g(fx)}\nF(x)  = {_g(Fx)}")


def cmd_lsr(run):
    args = run.args
    fam = run.read_family(args.family)
    upper, word = lsr_upper(fam, max_len=args.max_len)
    P0 = ConicPolytope.from_halfspaces([np.ones(fam.dim)])
    res = invariant_body_iterate(fam, P0, iters=args.iters)
    if fam.size == 1:
        cert = perron_certificate(fam.matrices[0])
    else:
        cert = res.antinorm
    lower = lsr_lower_certificate(fam, cert)
    report = LSRBoundReport(lower=lower, upper=upper, certificate=as_pl(cert),
                            witness_product=word, iterations=res.iterations,
                            estimate_low=res.gamma_low, estimate_high=res.gamma_high)
    run.emit(report.to_dict(), report.table())
    if args.output:
        run.write(args.output, json.dumps(report.to_dict(), indent=2))
    if lower > upper + 1e-9:
        raise VerificationFailure("lower bound exceeded upper bound")


def cmd_lyapunov(run):
    args = run.args
    fam = run.read_family(args.family)
    mc = lyapunov_exponent_mc(fam, steps=args.steps, trials=args.trials,
                              seed=args.seed or 0, force=args.force)
    obj = {"estimate": mc.estimate, "stderr": mc.stderr,
           "steps": mc.steps, "trials": mc.trials, "seed": mc.seed}
    text = (f"lyapunov exponent  {_g(mc.estimate)}\n"
            f"stderr             {_g(mc.stderr)}\n"
            f"steps x trials     {mc.steps} x {mc.trials}")
    if args.antinorm:
        f = run.read_expr(args.antinorm)
        rep = lyapunov_antinorm_check(fam, f, samples=args.samples, seed=args.seed or 0)
        obj["antinorm_check"] = {"min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio,
                                 "verdict": rep.verdict}
        text += (f"\nantinorm ratios    [{_g(rep.min_ratio)}, {_g(rep.max_ratio)}]"
                 f"\nverdict            {rep.verdict}")
    run.emit(obj, text)


def cmd_ct_check(run):
    args = run.args
    d = _load_json(args.family)
    run.manifest.inputs[args.family] = _digest(args.family)
    validate(d, "family")
    fam = MatrixFamily(d["matrices"], probabilities=d.get("probabilities"),
                       allow_negative=True)
    f = run.read_expr(args.antinorm)
    rep = ct_switching_check(fam, f, s=args.s, samples=args.samples, seed=args.seed or 0)
    run.emit({"eps": rep.eps, "eps_dual": rep.eps_dual, "s": rep.s},
             f"eps(s)       {_g(rep.eps)}\neps_dual(s)  {_g(rep.eps_dual)}\ns            {_g(rep.s)}")
    if not rep.lyapunov:
        raise VerificationFailure("antinorm does not decrease along the sampled steps")


def cmd_trig(run):
    args = run.args
    f = run.read_expr(args.antinorm)
    try:
        a, b, n = args.theta_range.split(":")
        thetas = np.linspace(float(a), float(b), int(n))
    except ValueError:
        raise SystemExit2(f"bad --theta-range {args.theta_range!r}, expected a:b:n")
    ctx = TrigContext.build(f, mode=args.mode)
    ok, _dev = is_selfdual(f, tol=1e-6, n_grid=200)
    pl = as_pl(f)
    # the identity needs the dual's own antisphere: f itself when self-dual,
    # the exact dual for PL input; other antinorms have none to check against
    if ok:
        ctx_dual = ctx
    elif pl is not None:
        ctx_dual = TrigContext.build(dual_pl(pl), mode=args.mode)
    else:
        ctx_dual = None
    rows = ["theta,cosh,sinh,identity_residual"]
    for t in thetas:
        try:
            c, s = ctx.cosh_sinh(float(t))
            res = math.nan
            if ctx_dual is not None:
                rep = identity_check(ctx, thetas=[float(t)], ctx_dual=ctx_dual)
                res = rep.max_residual if rep.checked else math.nan
            rows.append(f"{_g(t)},{_g(c)},{_g(s)},{_g(res)}")
        except AntinormError:
            rows.append(f"{_g(t)},nan,nan,nan")
    csv = "\n".join(rows)
    if args.output:
        run.write(args.output, csv + "\n")
    else:
        print(csv)
    if args.svg:
        pts = antisphere_points(f)
        render(args.svg, curves=[(pts, "#1f77b4", None)],
               points=[(ctx.contact, "#2ca02c")])
        run.manifest.outputs[args.svg] = _digest(args.svg)


def cmd_demo_discontinuity(run):
    args = run.args
    eps = _parse_vec(args.eps)
    tab = duality_discontinuity_demo(eps, seed=run.args.seed or 0)
    run.emit({"eps": list(tab.eps_values), "dual_at_e1": list(tab.dual_at_e1),
              "limit_dual_at_e1": tab.limit_dual_at_e1,
              "max_bound_excess": tab.max_bound_excess},
             tab.table())
    if max(tab.dual_at_e1) > 1e-6 or abs(tab.limit_dual_at_e1 - 1.0) > 1e-9 \
            or tab.max_bound_excess > 1e-8:
        raise VerificationFailure("discontinuity pattern not reproduced")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="antinorms",
                                description="antinorms on the nonnegative orthant")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, output=False):
        sp.add_argument("--seed", type=int,
                        default=int(os.environ.get("ANTINORMS_SEED", "0")))
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--json", action="store_true", help="emit JSON instead of tables")
        sp.add_argument("--quiet", action="store_true")
        sp.add_argument("--verbose", action="store_true")
        sp.add_argument("--manifest", help="write the run manifest to this path")
        if output:
            sp.add_argument("--output", help="output file (default: stdout)")

    sp = sub.add_parser("dual", help="dual antinorm (exact PL or sampled)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--samples", type=int, default=101)
    common(sp, output=True)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("autopolar", help="build and verify an autopolar polygon")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--a0", help="contact vertex as x,y (unit length)")
    sp.add_argument("--params", help="comma-separated extension lengths")
    sp.add_argument("--svg")
    common(sp, output=True)
    sp.set_defaults(fn=cmd_autopolar)

    sp = sub.add_parser("selfdual-check", help="decide f* = f")
    sp.add_argument("--input", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_selfdual_check, tol_default=1e-7)

    sp = sub.add_parser("extension", help="continuous boundary extension value")
    sp.add_argument("--input", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--witness")
    common(sp)
    sp.set_defaults(fn=cmd_extension)

    sp = sub.add_parser("lsr", help="lower spectral radius bounds")
    sp.add_argument("--family", required=True)
    sp.add_argument("--max-len", type=int, default=8, dest="max_len")
    sp.add_argument("--iters", type=int, default=12)
    common(sp, output=True)
    sp.set_defaults(fn=cmd_lsr)

    sp = sub.add_parser("lyapunov", help="Monte-Carlo Lyapunov exponent")
    sp.add_argument("--family", required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=32)
    sp.add_argument("--antinorm", help="also run the Lyapunov antinorm check")
    sp.add_argument("--samples", type=int, default=512)
    sp.add_argument("--force", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_lyapunov)

    sp = sub.add_parser("ct-check", help="continuous-time switching check")
    sp.add_argument("--family", required=True)
    sp.add_argument("--antinorm", required=True)
    sp.add_argument("--s", type=float, default=1e-3)
    sp.add_argument("--samples", type=int, default=256)
    common(sp)
    sp.set_defaults(fn=cmd_ct_check)

    sp = sub.add_parser("trig", help="generalized cosh/sinh along an antisphere")
    sp.add_argument("--antinorm", required=True)
    sp.add_argument("--theta-range", required=True, dest="theta_range",
                    help="a:b:n, n angles from a to b; a may be negative")
    sp.add_argument("--mode", choices=("sector", "literal"), default="sector")
    sp.add_argument("--svg")
    common(sp, output=True)
    sp.set_defaults(fn=cmd_trig)

    sp = sub.add_parser("demo-discontinuity", help="discontinuity of the duality map")
    sp.add_argument("--eps", default="0.1,0.4,0.9")
    common(sp)
    sp.set_defaults(fn=cmd_demo_discontinuity)

    return p


def _join_theta_range(argv):
    """Fuse ``--theta-range VALUE`` into ``--theta-range=VALUE``.

    argparse takes a value such as ``-2:2:9`` for an option flag, and the
    hyperbolic angle ranges over the whole real line.
    """
    argv = list(argv)
    if "--theta-range" in argv[:-1]:
        i = argv.index("--theta-range")
        argv[i:i + 2] = [f"--theta-range={argv[i + 1]}"]
    return argv


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_join_theta_range(sys.argv[1:] if argv is None else argv))
    if args.cmd == "selfdual-check" and args.tol == 1e-8:
        args.tol = 1e-7
    run = Runner(args)
    try:
        args.fn(run)
        run.finish()
        return 0
    except VerificationFailure as e:
        run.finish()
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AntinormError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
