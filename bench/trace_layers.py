"""Per-layer trace taken from outside the program.

``Tracer.install`` replaces the public functions of each module of
``antinorms`` (and the few private boundaries named below) by wrappers that
record a span: name, start, end, parent span and job id.  A function is
replaced under every name a module binds it to, so calls through
``from .geometry import prune_positive_hull`` are traced too; third-party
functions (``linprog``, ``minimize``, ``brentq``) are wrapped only in the
module that binds them, which gives them that module's layer.
``uninstall`` puts every original back, so untraced rounds run the
unmodified program.

Spans are kept in memory (flat arrays) and written out at the end.  A
span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans.  Counts
with no boundary to wrap are computed from the inputs of the call that does
the work and are marked "computed" in README.md.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "exprs", "geometry", "duality", "selfdual", "dynamics", "trig")

# cheap validators and accessors that would only add overhead
_SKIP = {"as_point", "as_pl", "catalog", "symmetrize", "vertices_of", "theta_of_point",
         "cosh_sinh", "to_json", "from_json"}

# private boundaries that carry a layer metric
_PRIVATE = {"geometry": ["_enumerate_vertices"], "duality": ["_dual2_batch"]}

# third-party functions, wrapped where each module binds them
_FOREIGN = {"exprs": ["linprog"], "geometry": ["linprog"], "duality": ["minimize"],
            "trig": ["brentq"]}


def _necklaces(n, m):
    """Number of necklaces of length n over m letters."""
    return sum(_phi(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class Tracer:
    def __init__(self, antinorms):
        import importlib

        self.modules = {name: importlib.import_module(f"antinorms.{name}") for name in LAYERS}
        self.package = antinorms
        self.names, self.ids = [], {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.stack = []
        self.job_id = -1
        self.counts = {}
        self.patches = []
        self._plan = self._targets()

    # -- spans --------------------------------------------------------------

    def _nid(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def begin_job(self):
        self.job_id += 1
        self._job_span = self._open(self._nid("job"))

    def end_job(self):
        self._close(self._job_span)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, hook=None):
        nid = self._nid(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- what to wrap ---------------------------------------------------------

    def _hooks(self):
        c = self.count
        body = self._nid("dynamics.invariant_body_iterate")

        def rows(x):
            return len(np.atleast_2d(x))

        def prune(a, k, out):
            c("geometry.prune_points_in", rows(a[0]))
            c("geometry.prune_points_kept", len(out))
            if self.stack and self.name[self.stack[-1]] == body:
                self.counts["dynamics.body_vertices_max"] = max(
                    self.counts.get("dynamics.body_vertices_max", 0), len(out))

        def vertices(a, k, out):
            m, d = np.atleast_2d(a[0]).shape
            c("geometry.bases_tried", math.comb(m + d, d))   # computed
            c("geometry.vertices_found", len(out))

        def canonical(a, k, out):
            c("exprs.canonicalize_rows_in", len(a[0].functionals))
            c("exprs.canonicalize_rows_kept", len(out.functionals))

        def lsr_upper(a, k, out):
            m = a[0].size
            L = k.get("max_len", a[1] if len(a) > 1 else 8)
            c("dynamics.words_evaluated", sum(_necklaces(n, m) for n in range(1, L + 1)))
            c("dynamics.matrix_products", sum(m ** math.gcd(i, n) for n in range(1, L + 1)
                                              for i in range(1, n + 1)))

        return {
            "exprs._values": lambda a, k, out: c("exprs.eval_points", rows(a[1])),
            "exprs.canonicalize_pl": canonical,
            "geometry.prune_positive_hull": prune,
            "geometry._enumerate_vertices": vertices,
            "duality._dual2_batch": lambda a, k, out: c("duality.golden_points", rows(a[1])),
            "duality.minimize": lambda a, k, out: c("duality.nm_fevals", out.nfev),
            "selfdual.is_selfdual": lambda a, k, out: c(
                "selfdual.probe_points", k.get("n_grid", a[2] if len(a) > 2 else 1000)),
            "dynamics.lsr_upper": lsr_upper,
            "dynamics.invariant_body_iterate": lambda a, k, out: c(
                "dynamics.body_iterations", out.iterations),
            "dynamics.lyapunov_exponent_mc": lambda a, k, out: c(
                "dynamics.mc_steps", out.steps * out.trials),
        }

    def _targets(self):
        """(owner, attribute, replacement) for every patch, computed once."""
        hooks = self._hooks()
        targets = []
        functions = {}   # original function -> span name
        for layer, mod in self.modules.items():
            names = list(getattr(mod, "__all__", [])) + _PRIVATE.get(layer, [])
            for attr in names:
                obj = mod.__dict__.get(attr)
                if attr in _SKIP or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    functions[obj] = f"{layer}.{attr}"
            for attr in _FOREIGN.get(layer, []):
                name = f"{layer}.{attr}"
                targets.append((mod, attr, self.wrap(getattr(mod, attr), name, hooks.get(name))))
        functions[self.modules["cli"].main] = "cli.main"
        for fn, name in functions.items():
            wrapped = self.wrap(fn, name, hooks.get(name))
            for owner in [self.package, *self.modules.values()]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        targets.append((owner, attr, wrapped))
        exprs = self.modules["exprs"]
        for cls in vars(exprs).values():
            if isinstance(cls, type) and issubclass(cls, exprs.Antinorm) and "_values" in vars(cls):
                targets.append((cls, "_values", self.wrap(vars(cls)["_values"], "exprs._values",
                                                          hooks["exprs._values"])))
        trig = self.modules["trig"].TrigContext
        targets.append((trig, "build", classmethod(
            self.wrap(vars(trig)["build"].__func__, "trig.TrigContext.build"))))
        targets.append((trig, "point_at", self.wrap(vars(trig)["point_at"], "trig.TrigContext.point_at")))
        return targets

    def install(self):
        for owner, attr, replacement in self._plan:
            self.patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def calls(self):
        """Span count per span name."""
        _, _, name, _ = self._arrays()
        counts = np.bincount(name, minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def metrics(self, rounds):
        """Per-layer metrics, each a total over the traced rounds divided by
        ``rounds`` (``dynamics.body_vertices_max`` is a maximum)."""
        start, end, name, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        total = np.bincount(name, weights=dur, minlength=n)
        self_total = np.bincount(name, weights=own, minlength=n)
        calls = np.bincount(name, minlength=n)

        def span(key, what=total):
            return float(what[self.ids[key]]) if key in self.ids else 0.0

        def ncalls(key):
            return float(calls[self.ids[key]]) if key in self.ids else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(float(self_total[i]) for i, nm in enumerate(self.names)
                                         if nm.split(".")[0] == layer)
        out.pop("serialize.self_s")
        out.update({
            "serialize.validate_calls": ncalls("serialize.validate"),
            "serialize.validate_s": span("serialize.validate"),
            "exprs.canonicalize_s": span("exprs.canonicalize_pl"),
            "exprs.lp_solves": ncalls("exprs.linprog"),
            "exprs.lp_s": span("exprs.linprog"),
            "geometry.vertex_enumerations": ncalls("geometry._enumerate_vertices"),
            "geometry.vertices_s": span("geometry._enumerate_vertices"),
            "geometry.prune_calls": ncalls("geometry.prune_positive_hull"),
            "geometry.prune_s": span("geometry.prune_positive_hull"),
            "geometry.lp_solves": ncalls("geometry.linprog"),
            "geometry.lp_s": span("geometry.linprog"),
            "duality.young_s": span("duality.young_check"),
            "duality.dual_pl_calls": ncalls("duality.dual_pl"),
            "duality.dual_pl_s": span("duality.dual_pl"),
            "duality.dual_numeric_calls": ncalls("duality.dual_numeric"),
            "duality.dual_numeric_s": span("duality.dual_numeric"),
            "duality.golden_batches": ncalls("duality._dual2_batch"),
            "duality.nm_runs": ncalls("duality.minimize"),
            "duality.nm_s": span("duality.minimize"),
            "selfdual.construct2_s": span("selfdual.construct2"),
            "selfdual.seed_s": span("selfdual.random_autopolar_seed"),
            "selfdual.contact_s": span("selfdual.contact_point"),
            "selfdual.is_selfdual_s": span("selfdual.is_selfdual"),
            "selfdual.construct1_s": span("selfdual.construct1"),
            "dynamics.lsr_upper_s": span("dynamics.lsr_upper"),
            "dynamics.lower_cert_s": span("dynamics.lsr_lower_certificate"),
            "dynamics.mc_s": span("dynamics.lyapunov_exponent_mc"),
            "dynamics.body_s": span("dynamics.invariant_body_iterate"),
            "trig.build_s": span("trig.TrigContext.build"),
            "trig.identity_s": span("trig.identity_check"),
            "trig.point_at_calls": ncalls("trig.TrigContext.point_at"),
            "trig.point_at_s": span("trig.TrigContext.point_at"),
            "trig.root_solves": ncalls("trig.brentq"),
        })
        for key in ("exprs.canonicalize_rows_in", "exprs.canonicalize_rows_kept",
                    "exprs.eval_points", "geometry.bases_tried", "geometry.vertices_found",
                    "geometry.prune_points_in", "geometry.prune_points_kept",
                    "duality.golden_points", "duality.nm_fevals", "selfdual.probe_points",
                    "dynamics.words_evaluated", "dynamics.matrix_products",
                    "dynamics.body_iterations", "dynamics.mc_steps"):
            out[key] = float(self.counts.get(key, 0))
        rounds = max(rounds, 1)
        out = {k: v / rounds for k, v in out.items()}
        out["dynamics.body_vertices_max"] = float(self.counts.get("dynamics.body_vertices_max", 0))
        return out

    def save(self, path):
        """Write every span: name id, parent index, job id, start, end."""
        start, end, name, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            job=np.frombuffer(self.job, dtype=np.int32), start=start, end=end)
