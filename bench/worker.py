"""Run a plan's jobs in one process, one job at a time (a closed loop with
one client), the way a user runs the program.

CLI jobs go through ``antinorms.cli.main(argv)`` in-process; library jobs
call the public functions.  Each job is timed from the call to its return;
reading its output back and the hand-over between jobs (``glue``) are not
timed.

    python3 bench/worker.py --plan PLAN --setup
        import the program in this fresh interpreter, run the plan's first
        job and exit (the benchmark times this as set-up);
    python3 bench/worker.py --plan PLAN --seconds S --trace 0|1 --out OUT
        warm up (the first job of each command, untimed), then whole rounds,
        in pool order, until S seconds have passed and at least MIN_JOBS
        jobs have run (so the 90th percentile has ten samples beyond it).  With --trace 1 every round
        runs twice, untraced and then traced, and the traced pass records
        spans (``--spans`` names the file they are written to).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

MIN_JOBS = 100


def _load_program(plan):
    sys.path.insert(0, plan["src"])
    import antinorms.cli  # noqa: F401  (the import is part of set-up)
    import antinorms
    return antinorms


class Runner:
    def __init__(self, plan):
        self.plan = plan
        self.an = _load_program(plan)
        self.texts = {}

    def _call_lib(self, call):
        from antinorms.serialize import expr_from_dict

        an = self.an
        if call["fn"] == "dual_numeric":
            return {"value": an.dual_numeric(expr_from_dict(call["expr"]), call["p"])}
        if call["fn"] == "is_selfdual":
            ok, dev = an.is_selfdual(expr_from_dict(call["expr"]), n_grid=call["n_grid"])
            return {"selfdual": bool(ok), "max_deviation": float(dev)}
        if call["fn"] == "construct1":
            f = an.construct1(expr_from_dict(call["inner"]), call["apex"],
                              side=call["side"], grid_n=call["grid_n"])
            return {"values": f.value(call["points"]).tolist()}
        raise ValueError(f"unknown library call {call['fn']!r}")

    def run_job(self, job, argv):
        """(seconds, exit code or error text, output text)."""
        if job["output"] not in ("stdout", "value") and os.path.exists(job["output"]):
            os.unlink(job["output"])
        out, err = io.StringIO(), io.StringIO()
        result = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if job["kind"] == "cli":
                    rc = self.an.cli.main(argv)
                else:
                    result = self._call_lib(job["call"])
                    rc = 0
            except (Exception, SystemExit) as e:  # a crash or an argparse exit fails the job
                rc = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        if job["output"] == "stdout":
            text = out.getvalue()
        elif job["output"] == "value":
            text = json.dumps(result)
        elif os.path.exists(job["output"]):
            with open(job["output"]) as fh:
                text = fh.read()
        else:
            text = ""
        if rc not in (0, 1):   # keep the error message for the failure report
            text += "\n" + err.getvalue()
        return dt, rc, text

    def run_round(self, pool_index, tracer=None, warm_up=False):
        """Run one round; a warm-up round runs only the first job of each
        command.  Records are [seconds, exit code, output digest, job index]."""
        jobs = self.plan["rounds"][pool_index]
        derived = {}
        records = []
        seen = set()
        for index, job in enumerate(jobs):
            command = job["argv"][0] if job["kind"] == "cli" else job["call"]["fn"]
            if warm_up and command in seen:
                continue
            seen.add(command)
            argv = job.get("argv")
            if "theta_from" in job:
                argv = [derived.get(job["theta_from"], "0:0:1") if a == "{theta_range}" else a
                        for a in argv]
            if tracer is not None:
                tracer.begin_job()
            dt, rc, text = self.run_job(job, argv)
            if tracer is not None:
                tracer.end_job()
            digest = hashlib.sha256(text.encode()).hexdigest()[:20]
            self.texts[digest] = text
            records.append([dt, rc, digest, index])
            if "glue" in job and rc == 0:
                derived[job["id"]] = _polygon_to_pl(text, job["glue"]["polygon_to_pl"])
        return {"pool": pool_index, "jobs": records}


def _polygon_to_pl(text, path):
    """Write an autopolar polygon as the PL antinorm whose rows are its
    vertices (autopolar: its facets are its vertices) and return a theta
    range inside its sector range."""
    import workloads

    poly = json.loads(text)
    with open(path, "w") as fh:
        json.dump({"type": "pl", "dim": 2, "functionals": poly["vertices"]}, fh)
    return workloads.polygon_theta_range(poly["vertices"], poly["k"])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    runner = Runner(plan)
    if args.setup:
        _, rc, _ = runner.run_job(plan["rounds"][0][0], plan["rounds"][0][0].get("argv"))
        return 0 if rc == 0 else 1

    tracer = None
    if args.trace:
        import trace_layers

        tracer = trace_layers.Tracer(runner.an)
    pool = len(plan["rounds"])
    warm = runner.run_round(0, warm_up=True)
    timed, traced = [], []
    t0 = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        timed.append(runner.run_round(r % pool))
        timed[-1]["seconds"] = time.perf_counter() - t_round
        if tracer is not None:
            tracer.install()
            try:
                t_round = time.perf_counter()
                traced.append(runner.run_round(r % pool, tracer))
                traced[-1]["seconds"] = time.perf_counter() - t_round
            finally:
                tracer.uninstall()
        r += 1
        jobs = sum(len(rnd["jobs"]) for rnd in timed)
        if time.perf_counter() - t0 >= args.seconds and jobs >= MIN_JOBS:
            break
    result = {
        "warm": warm,
        "timed": timed,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "texts": runner.texts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(traced))
        result["span_calls"] = tracer.calls()
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
