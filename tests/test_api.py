"""The library's settable values, pinned.

Every parameter with a default, as ``inspect.signature`` reports it, of
every function, method and dataclass constructor defined in
``src/antinorms/``, is listed below; a new knob or a removed one needs an
edit here.
"""

import importlib
import inspect
import pkgutil

import antinorms

DEFAULTED = [
    "_report._rows(prefix)",
    "_search.bracket_root(ftol)",
    "cli.RunManifest.__init__(inputs)",
    "cli.RunManifest.__init__(outputs)",
    "cli.RunManifest.__init__(wall_time_s)",
    "cli.main(argv)",
    "config.Tolerances.__init__(contact_unique)",
    "config.Tolerances.__init__(dual)",
    "config.Tolerances.__init__(geometry)",
    "config.Tolerances.__init__(redundancy)",
    "config.Tolerances.__init__(vertex_dedupe)",
    "duality.double_dual_check(samples)",
    "duality.double_dual_check(seed)",
    "duality.dual_numeric(tol)",
    "duality.duality_discontinuity_demo(seed)",
    "duality.young_check(dual)",
    "duality.young_check(samples)",
    "duality.young_check(seed)",
    "dynamics.BodyIterationResult.__init__(stalled)",
    "dynamics.BodyIterationResult.__init__(support_ratios)",
    "dynamics.MatrixFamily.__init__(allow_negative)",
    "dynamics.MatrixFamily.__init__(probabilities)",
    "dynamics.ct_switching_check(s)",
    "dynamics.ct_switching_check(samples)",
    "dynamics.ct_switching_check(seed)",
    "dynamics.invariant_body_iterate(iters)",
    "dynamics.lsr_upper(max_len)",
    "dynamics.lyapunov_antinorm_check(samples)",
    "dynamics.lyapunov_antinorm_check(seed)",
    "dynamics.lyapunov_exponent_mc(force)",
    "dynamics.lyapunov_exponent_mc(seed)",
    "dynamics.lyapunov_exponent_mc(steps)",
    "dynamics.lyapunov_exponent_mc(trials)",
    "exprs.AxiomsReport.ok(tol)",
    "exprs.BuiltinAntinorm.__init__(dim)",
    "exprs.CallableAntinorm.__init__(name)",
    "exprs.ConeSplitAntinorm.__init__(grid_n)",
    "exprs.ConeSplitAntinorm.__init__(side)",
    "exprs.NumericDualAntinorm.__init__(tol)",
    "exprs.PLAntinorm.__init__(dim)",
    "exprs.ProductAntinorm.__init__(scale)",
    "exprs.antinorm_axioms_check(samples)",
    "exprs.antinorm_axioms_check(seed)",
    "exprs.as_point(dim)",
    "exprs.catalog(dim)",
    "geometry.ConicPolytope.__init__(halfspaces)",
    "geometry.ConicPolytope.__init__(vertices)",
    "selfdual.AutopolarSeed.__init__(a0_angle)",
    "selfdual.AutopolarSeed.__init__(step_params)",
    "selfdual.construct1(grid_n)",
    "selfdual.construct1(side)",
    "selfdual.construct1(verify)",
    "selfdual.is_selfdual(n_grid)",
    "selfdual.is_selfdual(tol)",
    "svgplot._polyline(dash)",
    "svgplot._polyline(width)",
    "svgplot.render(curves)",
    "svgplot.render(points)",
    "trig.TrigContext.__init__(mode)",
    "trig.TrigContext.build(mode)",
    "trig.TrigContext.theta_of_point(tol)",
    "trig.identity_check(ctx_dual)",
    "trig.identity_check(n_samples)",
    "trig.identity_check(thetas)",
]


def _defaulted():
    found = []

    def visit(obj, qual, module):
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member) or (
                        inspect.isclass(member) and member.__module__ == module):
                    visit(member, f"{qual}.{name}", module)
            return
        found.extend(f"{qual}({p.name})" for p in inspect.signature(obj).parameters.values()
                     if p.default is not p.empty)

    for info in pkgutil.iter_modules(antinorms.__path__):
        module = importlib.import_module(f"antinorms.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ == module.__name__:
                    visit(obj, f"{info.name}.{name}", module.__name__)
    return sorted(found)


def test_defaulted_parameters_are_pinned():
    assert _defaulted() == DEFAULTED
