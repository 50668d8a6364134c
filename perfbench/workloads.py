"""Workload inputs and jobs, run inside the workload process.

Inputs are generated from the workload seed with numpy alone; the
program under test sees only those inputs.  Every library call goes
through a module attribute looked up at call time (``tr.x``,
``trajrot.cli.main``) so that the traced run's wrappers see it.

A job returns ``(payload, output, cli_bytes)``: ``payload`` is a
JSON-able record of what the program returned, checked by the parent
process (``oracles.py``); ``output`` is the bytes compared across
passes (what the CLI wrote, or the payload's repr for library jobs);
``cli_bytes`` is how many bytes the CLI emitted.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil

import numpy as np

import trajrot as tr
import trajrot.cli

VERIFY_SCENARIOS = (
    ("spiral-point", ("prop3_1", "thm3_4")),
    ("sink-line", ("prop3_2",)),
    ("twist-line", ("prop3_2",)),
    ("sink-pair", ("thm3_8", "cor3_10")),
    ("sink-log", ("thm3_10_log",)),
)

# Sweep sizes.  Each kind gets SWEEP_PER_KIND jobs whose durations,
# turning angles and radii are a fixed grid over their ranges, dealt out
# in a seeded order; the seed draws the geometry (orientations, starting
# points, decay rates, matrices).  So every seed gives a pass of the same
# size, and its time does not depend on which sizes the seed happened to
# draw.
SWEEP_PER_KIND = 8
CROFTON_M = 2000
LINEAR_NORM = 1.5
WITNESS_THETA = 4.5

# Integrator settings of the tests whose closed forms the oracles reuse:
# the expm endpoint test for sinks, the universal point bound suite for
# random linear fields, and the spiral unit-rate test.
SINK_CFG = dict(rel_tol=1e-11, abs_tol=1e-13, chord_tol=1e-4)
LINEAR_CFG = dict(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4)
SPIRAL_CFG = dict(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)


def _cli(argv):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = trajrot.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# input generation (numpy only)


def _grid(rng, lo, hi, k):
    """The midpoints of k equal slices of [lo, hi], in a seeded order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(k) + 0.5) / k)


def _rotation(rng):
    """Haar-random matrix in SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sweep_inputs(seed):
    """Job specs for one sweep pass: rotating sinks, random linear fields
    and spirals, SWEEP_PER_KIND of each, interleaved."""
    rng = np.random.default_rng(seed)
    k = SWEEP_PER_KIND
    sinks = []
    # The work of a sink job grows with its total turning angle beta * T,
    # so that product is on the grid rather than beta.  Half the sinks turn
    # well past the witness threshold 2 pi 4.5 ~ 28.3 and half stay well
    # below it, so every pass runs the same number of witness searches.
    turns = np.concatenate([_grid(rng, 12.0, 22.0, k // 2),
                            _grid(rng, 38.0, 44.0, k - k // 2)])
    for T, turn in zip(_grid(rng, 6.0, 10.0, k), rng.permutation(turns)):
        beta = turn / T
        # the rotating plane decays slowest, so the blow-up around the sink
        # keeps circling and its length grows like beta * T
        alpha = -rng.uniform(0.3, 0.5)
        l1 = rng.uniform(0.8, 1.6)
        block = np.array([[-l1, 0.0, 0.0],
                          [0.0, alpha, -beta],
                          [0.0, beta, alpha]])
        q = _rotation(rng)
        # start at least 60 degrees from the fast-decaying axis, so the
        # blow-up turns through nearly all of beta * T and the witness
        # threshold splits the sinks as planned
        c = rng.uniform(-0.5, 0.5)
        phi = rng.uniform(0.0, 2 * math.pi)
        s = math.sqrt(1.0 - c * c)
        y0 = np.array([c, s * math.cos(phi), s * math.sin(phi)])
        sinks.append({"kind": "sink", "M": (q @ block @ q.T).tolist(),
                      "x0": (q @ y0).tolist(),
                      "T": float(T)})
    linears = []
    for T in _grid(rng, 0.5, 3.0, k):
        # a fixed operator norm bounds the growth, and with it the work,
        # of every random field alike
        g = rng.standard_normal((3, 3))
        linears.append({"kind": "linear",
                        "M": (LINEAR_NORM * g / np.linalg.norm(g, 2)).tolist(),
                        "x0": rng.standard_normal(3).tolist(),
                        "point": (rng.standard_normal(3) * 1.5).tolist(),
                        "T": float(T)})
    spirals = []
    for T, r0 in zip(_grid(rng, 4.0, 10.0, k), _grid(rng, 0.3, 0.9, k)):
        phi = rng.uniform(0.0, 2 * math.pi)
        spirals.append({"kind": "spiral",
                        "x0": [float(r0 * math.cos(phi)),
                               float(r0 * math.sin(phi))],
                        "T": float(T)})
    specs = [s for trio in zip(sinks, linears, spirals) for s in trio]
    for i, s in enumerate(specs):
        s["seed"] = int(seed) * 1000 + i
    return specs


def verify_inputs(seed):
    specs = []
    for name, theorems in VERIFY_SCENARIOS:
        argv = ["verify", "--scenario", name, "--seed", str(int(seed))]
        for th in theorems:
            argv += ["--theorem", th]
        specs.append({"scenario": name, "theorems": list(theorems),
                      "argv": argv})
    return specs


# ---------------------------------------------------------------------------
# jobs


def _rotation_record(rr):
    return {"value": rr.value, "error_estimate": rr.error_estimate}


def _report_record(rep):
    return {"theorem_id": rep.theorem_id, "measured": rep.measured,
            "bound": rep.bound, "satisfied": bool(rep.satisfied),
            "error_estimates": dict(rep.error_estimates)}


def _blowup_length_and_crofton(traj, center, seed, out):
    sph = tr.spherical_blowup(traj, center)
    est = tr.crofton_length_estimate(sph, m=CROFTON_M, seed=seed)
    out["crofton"] = {"value": est.value, "stderr": est.stderr,
                      "draws": est.draws}
    return sph


def _sink_job(spec):
    f = tr.linear(np.array(spec["M"]))
    origin = np.zeros(3)
    traj = tr.integrate_trajectory(f, np.array(spec["x0"]), 0.0, spec["T"],
                                   tr.IntegratorConfig(**SINK_CFG),
                                   obs_centers=[origin])
    rep = tr.check_stationary_point_bound(f, origin, traj, seed=spec["seed"])
    out = {"endpoint": traj.x[-1].tolist(), "prop3_1": _report_record(rep)}
    sph = _blowup_length_and_crofton(traj, origin, spec["seed"], out)
    length = tr.curve_length(sph.curve)
    out["blowup_length"] = length
    if length > 2 * math.pi * WITNESS_THETA:
        w = tr.find_equator_witness(sph, WITNESS_THETA, seed=spec["seed"])
        out["witness"] = {"v_proj_1": w.v_proj_1, "v_proj_2": w.v_proj_2,
                          "threshold": w.threshold, "achieved": w.achieved}
    return out


def _linear_job(spec):
    m = np.array(spec["M"])
    point = np.array(spec["point"])
    k = tr.fields.operator_norm(m)
    traj = tr.integrate_trajectory(tr.linear(m), np.array(spec["x0"]), 0.0,
                                   spec["T"], tr.IntegratorConfig(**LINEAR_CFG),
                                   obs_centers=[point])
    rep = tr.check_any_point_bound(traj, point, K=k)
    return {"K": k, "thm3_4": _report_record(rep)}


def _spiral_job(spec):
    f = tr.spiral2d()
    origin = np.zeros(2)
    traj = tr.integrate_trajectory(f, np.array(spec["x0"]), 0.0, spec["T"],
                                   tr.IntegratorConfig(**SPIRAL_CFG),
                                   obs_centers=[origin])
    rep = tr.check_stationary_point_bound(f, origin, traj, seed=spec["seed"])
    wind = tr.signed_winding_plane(traj, origin)
    out = {"prop3_1": _report_record(rep), "winding": _rotation_record(wind)}
    _blowup_length_and_crofton(traj, origin, spec["seed"], out)
    return out


_SWEEP_JOBS = {"sink": _sink_job, "linear": _linear_job,
               "spiral": _spiral_job}


def _read_dir(path):
    if not os.path.isdir(path):
        return {}
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Workload:
    """The jobs of one pass of a named workload.

    ``specs`` and ``labels`` describe the jobs; ``run(i)`` executes job
    ``i`` once and returns ``(payload, output, cli_bytes)``.
    """

    def __init__(self, name, seed):
        self.name = name
        if name == "repro":
            # relative to the workload process's working folder, so the
            # CLI's stdout is the same in every run
            self.specs = [{"argv": ["paper-repro", "--out", "repro-out"]}]
            self.labels = ["paper-repro"]
        elif name == "verify":
            self.specs = verify_inputs(seed)
            self.labels = [s["scenario"] for s in self.specs]
        elif name == "sweep":
            self.specs = sweep_inputs(seed)
            self.labels = [f"{s['kind']}-{i}" for i, s in enumerate(self.specs)]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def prepare(self, i):
        """Untimed work before job ``i``: clear the repro output folder so
        every pass writes its artifacts afresh."""
        if self.name == "repro":
            shutil.rmtree(self.specs[i]["argv"][2], ignore_errors=True)

    def run(self, i):
        spec = self.specs[i]
        if self.name == "sweep":
            payload = _SWEEP_JOBS[spec["kind"]](spec)
            return payload, repr(payload).encode(), 0
        code, out, err = _cli(spec["argv"])
        emitted = [out.encode(), err.encode()]
        if self.name == "repro":
            files = _read_dir(spec["argv"][2])
            summary = files.get("summary.json")
            payload = {"exit": code, "stderr": err, "files": list(files),
                       "summary": summary.decode() if summary else None}
            emitted += files.values()
            output = b"\0".join(emitted + [n.encode() for n in files])
        else:
            payload = {"scenario": spec["scenario"], "exit": code,
                       "stdout": out, "stderr": err}
            output = b"\0".join(emitted)
        return payload, output, sum(map(len, emitted))
