"""Benchmark of the antinorms CLI: seeded job mixes with checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lsr-families, pl-exact, smooth-numeric (see README.md).  The
inputs come from the seed and are written to a fresh directory under
``.bench_work/``.  With ``--trace 0`` the run times set-up (fresh
interpreters, median of three) and a closed loop of whole rounds, and
prints the end-to-end metrics; with ``--trace 1`` it runs each round
untraced and then traced, and prints the per-layer metrics.  Every job's
output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of it
(and, with --trace 1, the spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: one client, one job at a time, on a 2-core machine.  A
# fixed mmap threshold returns large temporaries to the OS when freed, so
# peak RSS does not depend on glibc's adaptive threshold (which otherwise
# keeps a ~14 MB heap region in some runs and not in others).
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "MALLOC_MMAP_THRESHOLD_": "131072"}
os.environ.update(ENV)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 3
DEADLINE_S = 160   # the workers' share of the 180 s a run may take

# layers each workload must reach (nonzero) and must bypass (no calls)
COVERAGE = {
    "lsr-families": (
        ["cli.self_s", "serialize.validate_calls", "exprs.eval_points", "geometry.prune_calls",
         "geometry.lp_solves", "geometry.vertex_enumerations", "dynamics.lsr_upper_s",
         "dynamics.body_iterations", "dynamics.lower_cert_s", "dynamics.mc_steps"],
        ["duality."]),
    "pl-exact": (
        ["cli.self_s", "serialize.validate_calls", "exprs.canonicalize_rows_in",
         "exprs.lp_solves", "geometry.vertex_enumerations", "duality.dual_pl_calls",
         "duality.young_s", "selfdual.construct2_s", "selfdual.seed_s", "selfdual.contact_s",
         "selfdual.is_selfdual_s", "trig.build_s", "trig.identity_s", "trig.point_at_calls"],
        ["duality._dual2_batch", "duality.minimize", "dynamics.", "trig.brentq"]),
    "smooth-numeric": (
        ["cli.self_s", "serialize.validate_calls", "exprs.eval_points", "duality.golden_batches",
         "duality.nm_runs", "duality.dual_numeric_calls", "duality.young_s",
         "selfdual.is_selfdual_s", "selfdual.construct1_s", "trig.build_s", "trig.root_solves",
         "trig.point_at_calls", "trig.identity_s"],
        ["geometry.", "dynamics."]),
}


class BenchError(Exception):
    pass


def _child(argv, deadline):
    """Run the worker with ``argv``; kill it (and wait) at ``deadline``."""
    timeout = deadline - time.monotonic()
    try:
        p = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, timeout=timeout,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} timed out after {timeout} s")
    if p.returncode != 0:
        raise BenchError(f"worker {argv} exited {p.returncode}: {p.stderr[-2000:]}")


def _time_setup(setup_path, deadline):
    t0 = time.perf_counter()
    _child(["--plan", setup_path, "--setup"], deadline)
    return time.perf_counter() - t0


def _accepted(job):
    return (0, 1) if job["check"]["type"] == "selfdual" else (0,)


def _check(plan, result):
    """(wrong answers, failed jobs, jobs attempted, digits of each job run).

    Digits count each job once, from its first timed run, so a round that
    runs twice (a program fast enough to wrap around the pool) does not
    weigh twice."""
    problems, failures, attempted = [], [], 0
    seen = {}
    pool_digits = {}
    phases = [("warm", [result["warm"]]), ("timed", result["timed"]), ("traced", result["traced"])]
    for phase, rounds in phases:
        for rnd in rounds:
            jobs = [plan["rounds"][rnd["pool"]][i] for *_, i in rnd["jobs"]]
            key = (rnd["pool"], tuple(rec[2] for rec in rnd["jobs"]))
            if key not in seen:
                polygons, found = {}, []
                for job, (_, rc, digest, _) in zip(jobs, rnd["jobs"]):
                    if rc not in _accepted(job):
                        found.append(None)
                        continue
                    try:
                        bad, dig = checks.check_job(job, rc, result["texts"][digest], polygons)
                    except (KeyError, ValueError, TypeError, IndexError) as e:
                        bad, dig = [f"unreadable output: {type(e).__name__}: {e}"], None
                    problems += [f"{job['id']}: {b}" for b in bad]
                    found.append(dig)
                seen[key] = found
            for job, (_, rc, digest, _), dig in zip(jobs, rnd["jobs"], seen[key]):
                attempted += 1
                if rc not in _accepted(job):
                    said = result["texts"][digest].strip()[-300:]
                    failures.append(f"{job['id']}: failed: {str(rc)[:300]} {said}")
                elif phase == "timed" and dig is not None:
                    pool_digits.setdefault(job["id"], dig)
    return problems, failures, attempted, list(pool_digits.values())


def _end_to_end(plan, result, setup, pool_digits):
    lat = [rec[0] for rnd in result["timed"] for rec in rnd["jobs"]]
    elapsed = sum(rnd["seconds"] for rnd in result["timed"])
    done = sum(1 for rnd in result["timed"] for rec in rnd["jobs"]
               if rec[1] in _accepted(plan["rounds"][rnd["pool"]][rec[3]]))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (done / elapsed, "1/s"),
        "job_ms_p50": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "job_ms_p90": (1e3 * float(np.percentile(lat, 90)), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "answer_digits": (statistics.fmean(pool_digits) if pool_digits else 0.0, "digits"),
    }


def _per_layer(result):
    out = {}
    for name, value in result["layers"].items():
        if name == "dynamics.body_vertices_max":
            unit = "count"
        else:
            unit = "s/round" if name.endswith("_s") else "count/round"
        out[name] = (value, unit)
    untraced = sum(rnd["seconds"] for rnd in result["timed"])
    traced = sum(rnd["seconds"] for rnd in result["traced"])
    out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return out


def _job_medians(plan, result):
    """Median latency of each job of a round across the timed rounds."""
    times = {}
    for rnd in result["timed"]:
        for dt, _, _, index in rnd["jobs"]:
            job = plan["rounds"][rnd["pool"]][index]
            times.setdefault(job["id"].split(".", 1)[1], []).append(1e3 * dt)
    return {name: round(statistics.median(v), 3) for name, v in times.items()}


def _coverage(workload, result):
    need, bypass = COVERAGE[workload]
    layers, calls = result["layers"], result["span_calls"]
    problems = [f"coverage: {name} is 0" for name in need if not layers.get(name)]
    problems += [f"coverage: {span} ran {n} times" for span, n in calls.items()
                 if n and any(span.startswith(b) for b in bypass)]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "antinorms", "cli.py")):
        print(f"error: no program to benchmark at {SRC}/antinorms", file=sys.stderr)
        return 2
    reference.self_test()
    # byte-compile now, so that the first set-up run does not pay for it
    compileall.compile_dir(os.path.join(SRC, "antinorms"), quiet=1)

    work_root = os.path.join(ROOT, ".bench_work")
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    stem = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        plan = workloads.make_plan(args.workload, args.seed, work)
        plan["src"] = SRC
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        # set-up reads a plan of the first job alone, so that the size of
        # the pool does not count in setup_s
        setup_path = os.path.join(work, "setup-plan.json")
        with open(setup_path, "w") as fh:
            json.dump({"src": SRC, "rounds": [plan["rounds"][0][:1]]}, fh)
        setup = [] if args.trace else [_time_setup(setup_path, deadline)
                                       for _ in range(SETUP_RUNS)]
        result_path = os.path.join(work, "result.json")
        _child(["--plan", plan_path, "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", result_path, "--spans", stem + ".spans.npz"], deadline)
        with open(result_path) as fh:
            result = json.load(fh)
        problems, failures, attempted, pool_digits = _check(plan, result)
        if args.trace:
            metrics = _per_layer(result)
            problems += _coverage(args.workload, result)
        else:
            metrics = _end_to_end(plan, result, setup, pool_digits)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in (problems + failures)[:40]:
        print(p, file=sys.stderr)
    line = {"correct": not problems, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump({**line, "problems": problems, "failures": failures,
                   "job_ms_median": _job_medians(plan, result)}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
