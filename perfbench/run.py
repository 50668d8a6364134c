"""trajrot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {repro,verify,sweep} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout (``src/trajrot`` must exist).
Set-up time is measured on fresh interpreters; the workload then runs in
its own single-threaded child process (``child.py``) in a closed loop.
Every job's output is checked here against closed forms (``oracles.py``).
Times are reported at reference machine speed (``speed.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The lines
before it name every metric with its unit, the failed fraction, the
tail percentile used and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repro", "verify", "sweep")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them (in order)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def child_cmd(args, workdir, setup_only):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    return cmd + (["--setup-only"] if setup_only else [])


def run_child(cmd, env):
    """Start the child, wait for it to end; return its seconds to READY."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    return ready


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it; the
    median when there are too few samples for any of them."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return 50.0, float(np.percentile(samples, 50))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, specs, cpu):
    inputs = json.dumps(specs, sort_keys=True).encode()
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "workload": args.workload, "seed": args.seed,
        "inputs_sha256": hashlib.sha256(inputs).hexdigest(),
        "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, 1 client, one job after another",
        "note": ("paper-repro ignores --seed, so the repro workload's "
                 "inputs do not depend on the seed"),
    }


def check_jobs(args, result):
    """Count attempted and failed jobs.  A job fails on an exception, a
    wrong exit code, an oracle failure or output that differs from the
    first pass."""
    from oracles import CHECKS

    check = CHECKS[args.workload]
    wrong = {}
    for label, spec, payload in zip(result["labels"], result["specs"],
                                    result["payloads"]):
        if payload is not None:
            wrong[label] = check(payload, spec)
    failed = 0
    for label, _, status in result["jobs"]:
        problems = ([] if status == "ok" else [status]) + wrong.get(label, [])
        if problems:
            failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    return len(result["jobs"]), failed


def end_to_end(result, setup):
    passes = result["pass_s"]
    jobs = [dt for _, dt, _ in result["jobs"]]
    pct, tail_s = tail(jobs)
    metrics = {
        "wall_s": statistics.median(passes),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {"wall_s": (f"median of {len(passes)} passes; raw median "
                        f"{statistics.median(result['raw_pass_s']):.4g} s"),
             "job_p50_s": f"median of {len(jobs)} jobs",
             "job_tail_s": f"p{pct:g} of {len(jobs)} jobs",
             "setup_s": (f"median of {len(setup)} fresh interpreters, at "
                         f"reference speed"),
             "peak_rss_mb": "max resident set of the workload process"}
    units = declared_units("end_to_end")
    return {k: metrics[k] for k in units}, units, notes


def per_layer(result):
    metrics = dict(result["layers"])
    metrics["cli.bytes_out"] = result["cli_bytes"]
    traced = statistics.median(result["traced_pass_s"])
    untraced = statistics.median(result["pass_s"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    units = declared_units("per_layer")
    notes = {"trace.overhead_frac": (
        f"median traced pass {traced:.4g} s vs untraced {untraced:.4g} s, "
        f"at reference speed")}
    return {k: metrics[k] for k in units}, units, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "trajrot" / "__init__.py").is_file():
        print(f"error: no trajrot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The workload is single-threaded; run it, and every interpreter this
    # process starts, on one fixed CPU (the last one this process may use,
    # which on Linux is usually the one with the fewest system tasks).
    # Migrating between CPUs of different speed otherwise adds noise.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        # the first interpreter fills the bytecode and file caches; set-up
        # is an end-to-end metric, so traced runs do not time it
        run_child(child_cmd(args, workdir, True), env)
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            cal = speed.calibrate()
            ready = run_child(child_cmd(args, workdir, True), env)
            setup.append(speed.at_ref(ready, cal, speed.calibrate()))
        run_child(child_cmd(args, workdir, False), env)
        with open(workdir / "result.json") as fh:
            result = json.load(fh)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = check_jobs(args, result)
    if args.trace:
        metrics, units, notes = per_layer(result)
    else:
        metrics, units, notes = end_to_end(result, setup)
    print("env " + json.dumps(environment(args, result["specs"], cpu),
                              sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
