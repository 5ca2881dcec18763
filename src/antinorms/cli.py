"""Command-line interface.

Subcommands and the options each one takes, besides ``--quiet`` (no
progress lines) and ``--manifest PATH`` (write the run manifest there),
which all take:

* ``dual --input F [--samples N] [--tol T] [--seed S] [--output O]``
* ``autopolar --k K [--a0 X,Y] [--params L1,...] [--svg P] [--seed S] [--output O]``
* ``selfdual-check --input F [--tol T] [--json]`` (default tolerance 1e-7)
* ``extension --input F --point X [--witness W] [--json]``
* ``lsr --family F [--max-len L] [--iters N] [--json] [--output O]``
* ``lyapunov --family F [--steps N] [--trials N] [--antinorm G] [--samples N]
  [--force] [--seed S] [--json]``
* ``ct-check --family F --antinorm G [--s S] [--samples N] [--seed S] [--json]``
* ``trig --antinorm F --theta-range A:B:N [--mode sector|literal] [--svg P] [--output O]``
* ``demo-discontinuity [--eps E1,...] [--seed S] [--json]``

``dual`` and ``autopolar`` always print JSON and ``trig`` CSV; the others
print a ``key  value`` table, or JSON with ``--json``, under the same keys.
Exit codes: 0 success, 1 verification failure, 2 input error; an input
file that is missing, unparsable, fails its JSON schema or is rejected by
the constructor is an input error.  ``ANTINORMS_SEED`` supplies the default
seed; floats in tables and CSV have 12 significant digits.  Every file,
SVGs included, is written atomically (temp + rename), and each
file-producing run records a manifest with the argv and the input/output
digests for reproducibility audits.
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
from ._report import fmt, table
from ._search import logit_points
from .duality import dual_pl, dual_values, duality_discontinuity_demo, young_check
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
from .exprs import as_pl, continuous_extension_eval
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


def _write_atomic(path, text):
    """Write ``text`` to ``path`` by temp + rename; return its sha256."""
    data = text.encode()
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return hashlib.sha256(data).hexdigest()


class SystemExit2(Exception):
    """Input error; mapped to exit code 2."""


class VerificationFailure(Exception):
    """Verification failure; mapped to exit code 1."""


def _parse_vec(text):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise SystemExit2(f"cannot parse vector {text!r}")


class Runner:
    """The one way in (``read``) and out (``emit``, ``output``, ``write``) of a
    command; collects input and output digests for the manifest."""

    def __init__(self, args, argv):
        self.args = args
        self.t0 = time.monotonic()
        self.manifest = RunManifest(command=list(argv), seed=getattr(args, "seed", None),
                                    version=__version__)

    def read(self, path, schema, build):
        """``build`` of the JSON in ``path`` after checking it against ``schema``;
        every fault in the file is an input error."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise SystemExit2(f"input file not found: {path}")
        try:
            obj = build(validate(json.loads(data), schema))
        except json.JSONDecodeError as e:
            raise SystemExit2(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}")
        except (KeyError, ValueError, TypeError) as e:
            raise SystemExit2(f"{path}: {e}")
        self.manifest.inputs[path] = hashlib.sha256(data).hexdigest()
        return obj

    def write(self, path, text):
        self.manifest.outputs[path] = _write_atomic(path, text)
        self.say(f"wrote {path}")

    def output(self, text):
        """Write ``text`` to ``--output``, or print it ending in one newline."""
        if self.args.output:
            self.write(self.args.output, text)
        else:
            print(text.rstrip("\n"))

    def say(self, msg):
        if not self.args.quiet:
            print(msg)

    def emit(self, d):
        """Print the result dict ``d`` as JSON with ``--json``, else as a table."""
        print(json.dumps(d, indent=2) if self.args.json else table(d))

    def finish(self):
        self.manifest.wall_time_s = round(time.monotonic() - self.t0, 6)
        target = self.args.manifest
        if target is None and self.manifest.outputs:
            target = next(iter(self.manifest.outputs)) + ".manifest.json"
        if target:
            _write_atomic(target, json.dumps(asdict(self.manifest), indent=2))
            self.say(f"manifest: {target}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dual(run):
    args = run.args
    f = run.read(args.input, "expr", expr_from_dict)
    pl = as_pl(f)
    g = dual_pl(pl) if pl is not None and pl.dim <= 4 else None
    report = young_check(f, samples=2000, seed=args.seed, dual=g)
    if g is not None:
        payload = expr_to_dict(g)
    else:
        if f.dim == 2:
            pts = logit_points(np.linspace(-10, 10, args.samples))
        else:
            pts = np.random.default_rng(args.seed).dirichlet(np.ones(f.dim), size=args.samples)
        payload = {"type": "sampled_dual", "dim": f.dim,
                   "points": pts.tolist(), "values": dual_values(f, pts).tolist()}
    run.output(json.dumps({"dual": payload, "report": report.to_dict()}, indent=2))
    if report.max_young_violation > max(args.tol, 1e-8):
        raise VerificationFailure(
            f"Young violation {fmt(report.max_young_violation)} exceeds tolerance")


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
        rng = np.random.default_rng(args.seed)
        seed = random_autopolar_seed(args.k, rng)
    try:
        poly = construct2(seed)
    except AntinormError as e:
        raise VerificationFailure(str(e))
    a = contact_point(poly.antinorm())
    run.say(f"contact point: ({fmt(a[0])}, {fmt(a[1])}), |a| = {fmt(np.linalg.norm(a))}")
    out = polygon_to_dict(poly)
    out["contact"] = a.tolist()
    out["a0_angle"] = seed.a0_angle
    out["step_params"] = list(seed.step_params)
    run.output(json.dumps(out, indent=2))
    if args.svg:
        dual_chain = polygon_chain(antipolar(poly.to_polytope()).vertices())
        run.write(args.svg, render(curves=[(polygon_chain(poly.vertices), "#1f77b4", None),
                                           (dual_chain, "#d62728", "6 4")],
                                   points=[(a, "#2ca02c")]))


def cmd_selfdual_check(run):
    args = run.args
    f = run.read(args.input, "expr", expr_from_dict)
    ok, dev = is_selfdual(f, tol=args.tol)
    run.emit({"selfdual": bool(ok), "max_deviation": dev, "tol": args.tol})
    if not ok:
        raise VerificationFailure(f"not self-dual: deviation {fmt(dev)}")


def cmd_extension(run):
    args = run.args
    f = run.read(args.input, "expr", expr_from_dict)
    x = _parse_vec(args.point)
    w = _parse_vec(args.witness) if args.witness else [1.0] * f.dim
    run.emit({"f": f.value(x), "extension": continuous_extension_eval(f, x, w)})


def cmd_lsr(run):
    args = run.args
    fam = run.read(args.family, "family", family_from_dict)
    upper, word = lsr_upper(fam, max_len=args.max_len)
    P0 = ConicPolytope.from_halfspaces([np.ones(fam.dim)])
    res = invariant_body_iterate(fam, P0, iters=args.iters)
    if fam.size == 1:
        cert = perron_certificate(fam.matrices[0])
    else:
        cert = res.antinorm
    lower = lsr_lower_certificate(fam, cert)
    d = LSRBoundReport(lower=lower, upper=upper, witness_product=word,
                       iterations=res.iterations, estimate_low=res.gamma_low,
                       estimate_high=res.gamma_high,
                       certificate_functionals=cert.functionals).to_dict()
    run.emit(d)
    if args.output:
        run.write(args.output, json.dumps(d, indent=2))
    if lower > upper + 1e-9:
        raise VerificationFailure("lower bound exceeded upper bound")


def cmd_lyapunov(run):
    args = run.args
    fam = run.read(args.family, "family", family_from_dict)
    d = lyapunov_exponent_mc(fam, steps=args.steps, trials=args.trials,
                             seed=args.seed, force=args.force).to_dict()
    if args.antinorm:
        f = run.read(args.antinorm, "expr", expr_from_dict)
        d["antinorm_check"] = lyapunov_antinorm_check(
            fam, f, samples=args.samples, seed=args.seed).to_dict()
    run.emit(d)


def cmd_ct_check(run):
    args = run.args
    fam = run.read(args.family, "family", lambda d: MatrixFamily(
        d["matrices"], probabilities=d.get("probabilities"), allow_negative=True))
    f = run.read(args.antinorm, "expr", expr_from_dict)
    rep = ct_switching_check(fam, f, s=args.s, samples=args.samples, seed=args.seed)
    run.emit(rep.to_dict())
    if not rep.lyapunov:
        raise VerificationFailure("antinorm does not decrease along the sampled steps")


def cmd_trig(run):
    args = run.args
    f = run.read(args.antinorm, "expr", expr_from_dict)
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
            rows.append(f"{fmt(t)},{fmt(c)},{fmt(s)},{fmt(res)}")
        except AntinormError:
            rows.append(f"{fmt(t)},nan,nan,nan")
    run.output("\n".join(rows) + "\n")
    if args.svg:
        run.write(args.svg, render(curves=[(antisphere_points(f), "#1f77b4", None)],
                                   points=[(ctx.contact, "#2ca02c")]))


def cmd_demo_discontinuity(run):
    args = run.args
    eps = _parse_vec(args.eps)
    tab = duality_discontinuity_demo(eps, seed=args.seed)
    run.emit(tab.to_dict())
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

    def command(name, fn, help, *shared):
        """A subparser with --quiet, --manifest and the ``shared`` options named."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        sp.add_argument("--quiet", action="store_true")
        sp.add_argument("--manifest", help="write the run manifest to this path")
        if "seed" in shared:
            sp.add_argument("--seed", type=int,
                            default=int(os.environ.get("ANTINORMS_SEED", "0")))
        if "json" in shared:
            sp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        if "output" in shared:
            sp.add_argument("--output", help="output file (default: stdout)")
        return sp

    sp = command("dual", cmd_dual, "dual antinorm (exact PL or sampled)", "seed", "output")
    sp.add_argument("--input", required=True)
    sp.add_argument("--samples", type=int, default=101)
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = command("autopolar", cmd_autopolar, "build and verify an autopolar polygon",
                 "seed", "output")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--a0", help="contact vertex as x,y (unit length)")
    sp.add_argument("--params", help="comma-separated extension lengths")
    sp.add_argument("--svg")

    sp = command("selfdual-check", cmd_selfdual_check, "decide f* = f", "json")
    sp.add_argument("--input", required=True)
    sp.add_argument("--tol", type=float, default=1e-7)

    sp = command("extension", cmd_extension, "continuous boundary extension value", "json")
    sp.add_argument("--input", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--witness")

    sp = command("lsr", cmd_lsr, "lower spectral radius bounds", "json", "output")
    sp.add_argument("--family", required=True)
    sp.add_argument("--max-len", type=int, default=8, dest="max_len")
    sp.add_argument("--iters", type=int, default=12)

    sp = command("lyapunov", cmd_lyapunov, "Monte-Carlo Lyapunov exponent", "seed", "json")
    sp.add_argument("--family", required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=32)
    sp.add_argument("--antinorm", help="also run the Lyapunov antinorm check")
    sp.add_argument("--samples", type=int, default=512)
    sp.add_argument("--force", action="store_true")

    sp = command("ct-check", cmd_ct_check, "continuous-time switching check", "seed", "json")
    sp.add_argument("--family", required=True)
    sp.add_argument("--antinorm", required=True)
    sp.add_argument("--s", type=float, default=1e-3)
    sp.add_argument("--samples", type=int, default=256)

    sp = command("trig", cmd_trig, "generalized cosh/sinh along an antisphere", "output")
    sp.add_argument("--antinorm", required=True)
    sp.add_argument("--theta-range", required=True, dest="theta_range",
                    help="a:b:n, n angles from a to b; a may be negative")
    sp.add_argument("--mode", choices=("sector", "literal"), default="sector")
    sp.add_argument("--svg")

    sp = command("demo-discontinuity", cmd_demo_discontinuity,
                 "discontinuity of the duality map", "seed", "json")
    sp.add_argument("--eps", default="0.1,0.4,0.9")

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
    argv = _join_theta_range(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    run = Runner(args, argv)
    try:
        args.fn(run)
        run.finish()
        return 0
    except VerificationFailure as e:
        run.finish()
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (SystemExit2, AntinormError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
