"""The workload process: one fresh single-threaded interpreter per run.

    python3 perfbench/child.py --workload W --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Set-up is the import of ``trajrot.cli`` and the generation of the
workload's inputs; the process then prints ``READY``.  With
``--setup-only`` it exits there.  Otherwise it runs passes over the
workload's jobs in a closed loop, one job after another, for ``S``
seconds.  With ``--trace 1`` the
first half of the time runs untraced and the second half with the span
recorder installed.  The process works inside ``DIR`` and writes its
result to ``DIR/result.json``; outputs are checked by the parent process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import speed


def _passes(workload, seconds, reference, log):
    """Run passes for ``seconds``; returns (seconds per pass, the same at
    reference speed, cli bytes per pass).

    A pass starts only if a pass of median length still fits in the time
    left, so a run ends close to ``seconds``; there is always one pass.
    The machine's speed is calibrated (``speed.py``) before every job and
    after the last job of each pass, outside the timed intervals, for
    ``CAL_SHARE`` of the previous job's seconds; each job's seconds are
    scaled to reference speed by the calibrations on either side of it.  A pass's seconds are the sum of its jobs'.  Each
    job is logged as ``[label, seconds at reference speed, status]``.

    ``reference`` holds each job's first output digest and payload; a later
    output that differs is recorded as a failure of that job.
    """
    raw, ref, elapsed = [], [], []
    budget = 0.1                    # calibration seconds, until a job is timed
    cli_bytes = 0
    begin = perf_counter()
    while not elapsed or (perf_counter() - begin
                          + statistics.median(elapsed) <= seconds):
        t_pass = perf_counter()
        timed = []                      # (label, seconds, status, calibration)
        for i, label in enumerate(workload.labels):
            workload.prepare(i)
            cal = speed.calibrate(budget)
            t0 = perf_counter()
            try:
                payload, output, nbytes = workload.run(i)
                status = "ok"
            except Exception as exc:  # a failed job must not stop the run
                dt = perf_counter() - t0
                budget = speed.CAL_SHARE * dt
                traceback.print_exc(file=sys.stderr)
                timed.append((label, dt, f"{type(exc).__name__}: {exc}", cal))
                continue
            dt = perf_counter() - t0
            budget = speed.CAL_SHARE * dt
            digest = hashlib.sha256(output).hexdigest()
            if i not in reference:
                reference[i] = (digest, payload)
            elif reference[i][0] != digest:
                status = "output differs from the first pass"
            cli_bytes += nbytes
            timed.append((label, dt, status, cal))
        cals = [c for *_, c in timed] + [speed.calibrate(budget)]
        at_ref = [speed.at_ref(dt, cals[k], cals[k + 1])
                  for k, (_, dt, _, _) in enumerate(timed)]
        log.extend([label, t, status]
                   for (label, _, status, _), t in zip(timed, at_ref))
        raw.append(sum(dt for _, dt, _, _ in timed))
        ref.append(sum(at_ref))
        elapsed.append(perf_counter() - t_pass)
    return raw, ref, cli_bytes / len(raw)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    spans = os.path.abspath(os.path.join(args.workdir, os.pardir,
                                         f"spans-{args.workload}.npz"))
    os.chdir(args.workdir)

    import workloads  # imports numpy, trajrot and trajrot.cli

    workload = workloads.Workload(args.workload, args.seed)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    reference, log = {}, []
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    raw, ref, cli_bytes = _passes(workload, untraced_s, reference, log)
    result = {"raw_pass_s": raw, "pass_s": ref, "jobs": log,
              "cli_bytes": cli_bytes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "labels": workload.labels, "specs": workload.specs,
              "payloads": [reference[i][1] if i in reference else None
                           for i in range(len(workload.labels))]}
    if args.trace:
        from tracer import Recorder

        rec = Recorder()
        rec.install()
        traced_raw, traced, _ = _passes(workload, args.seconds / 2,
                                        reference, log)
        result["traced_pass_s"] = traced
        result["layers"] = rec.summary(len(traced_raw),
                                       sum(traced_raw) / len(traced_raw))
        rec.dump(spans)
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
