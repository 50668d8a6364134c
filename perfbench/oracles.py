"""Correctness checks on job payloads, run in the parent process.

Closed forms and tolerances are those of the test suite
(``tests/test_acceptance.py``, ``test_cli.py``, ``test_flow.py``,
``test_bounds.py``); none is looser.  Where a result carries its own
error estimate, the check also requires the estimate to cover the
distance to the closed form.  Each check returns a list of failure
messages, empty when the job's output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

CIRCLE_LINE_EXACT = 100.0 / math.sqrt(10001.0)   # truncated line, M = 100
VERIFY_EXIT = {"spiral-point": 0, "sink-line": 0, "twist-line": 2,
               "sink-pair": 0, "sink-log": 0}
REPRO_FILES = ["circle_line_linking_turns.json", "sink_log_growth_rows.json",
               "spiral_unit_rate_rows.json", "summary.json",
               "twist_blowup_rows.json", "twist_pair_mutual_turns.json"]


class Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def near(self, what, value, exact, tol, error_estimate=None):
        """|value - exact| <= tol, and <= error_estimate when given."""
        dist = abs(value - exact)
        self.expect(dist <= tol,
                    f"{what}: {value!r} is {dist:.3g} from {exact!r} (tol {tol:.3g})")
        if error_estimate is not None:
            self.expect(dist <= error_estimate,
                        f"{what}: distance {dist:.3g} to the closed form exceeds "
                        f"its error estimate {error_estimate:.3g}")

    def satisfied(self, report):
        self.expect(report["satisfied"] is True,
                    f"{report['theorem_id']} not satisfied: measured "
                    f"{report['measured']!r} vs bound {report['bound']!r}")

    def crofton(self, est, rotation):
        """Crofton length of the blow-up against the absolute rotation
        (test_acceptance 11: within 4 standard errors), widened by the
        rotation's own error estimate."""
        tol = 4.0 * est["stderr"] + rotation["error_estimates"]["rotation"]
        dist = abs(est["value"] - rotation["measured"])
        self.expect(dist <= tol, f"Crofton length {est['value']!r} is {dist:.3g} "
                                 f"from the absolute rotation (tol {tol:.3g})")


def check_repro(payload, spec):
    c = Checker()
    c.expect(payload["exit"] == 0, f"exit code {payload['exit']}, want 0")
    c.expect(payload["stderr"] == "", f"stderr: {payload['stderr']!r}")
    c.expect(payload["files"] == REPRO_FILES, f"artifacts {payload['files']}")
    if payload["summary"] is None:
        return c.failures + ["no summary.json"]
    s = json.loads(payload["summary"])
    cl = s["circle_line_linking_turns"]
    c.near("circle/line", cl["value"], CIRCLE_LINE_EXACT, 1e-3,
           cl["error_estimate"])
    for row in s["spiral_unit_rate_rows"]:
        c.near(f"spiral T={row['T']}", row["rotation_rad"], row["T"],
               1e-3 * row["T"], row["error_estimate"])
    for row in s["twist_blowup_rows"]:
        want = 1.0 / row["a"] - 1.0 / row["b"] if row["a"] < row["b"] else 0.0
        c.near(f"twist a={row['a']}", row["rotation_rad"], want, 0.01 * want)
        c.expect(row["elapsed_time"] < 0.2, f"twist a={row['a']}: elapsed "
                                            f"{row['elapsed_time']} >= 0.2")
    pair = s["twist_pair_mutual_turns"]
    for mode in ("signed", "absolute"):
        c.near(f"twist pair {mode}", pair[mode]["value"], 0.0, 1e-4,
               pair[mode]["error_estimate"])
    rows = s["sink_log_growth_rows"]
    for row in rows:
        c.expect(row["satisfied"] is True, f"sink log k={row['k']} not satisfied")
    growth = [row["measured_turns"] for row in rows]
    c.expect(growth == sorted(growth), f"sink log growth not monotone: {growth}")
    return c.failures


def check_verify(payload, spec):
    c = Checker()
    name = payload["scenario"]
    want = VERIFY_EXIT[name]
    c.expect(payload["exit"] == want, f"{name}: exit {payload['exit']}, want {want}")
    if want != 0:
        c.expect(payload["stderr"].startswith("NotInvariant:"),
                 f"{name}: stderr {payload['stderr']!r}")
        return c.failures
    if payload["exit"] != 0:
        return c.failures
    reports = json.loads(payload["stdout"])
    reports = reports if isinstance(reports, list) else [reports]
    c.expect([r["theorem_id"] for r in reports] == spec["theorems"],
             f"{name}: theorems {[r['theorem_id'] for r in reports]}")
    for r in reports:
        c.satisfied(r)
        err = r["error_estimates"]["rotation"]
        if name == "spiral-point":
            c.near(f"{name} {r['theorem_id']}", r["measured"], 10.0, 1e-2, err)
        elif name == "sink-line":
            c.near(f"{name} {r['theorem_id']}", r["measured"], 6.0, 1e-3, err)
    return c.failures


def check_sweep(payload, spec):
    c = Checker()
    kind = spec["kind"]
    if kind == "sink":
        m = np.array(spec["M"])
        want = scipy.linalg.expm(spec["T"] * m) @ np.array(spec["x0"])
        dist = float(np.linalg.norm(np.array(payload["endpoint"]) - want))
        c.expect(dist < 1e-9, f"sink endpoint {dist:.3g} from expm")
        rep = payload["prop3_1"]
        c.satisfied(rep)
        c.crofton(payload["crofton"], rep)
        w = payload.get("witness")
        if w is not None:
            c.expect(w["v_proj_1"] * w["v_proj_2"] < 0, "witness velocities "
                                                        "not opposite")
            c.expect(w["achieved"] >= w["threshold"] - 1e-9,
                     f"witness {w['achieved']!r} below {w['threshold']!r}")
    elif kind == "linear":
        rep = payload["thm3_4"]
        c.satisfied(rep)
        k, T = payload["K"], spec["T"]
        err = rep["error_estimates"]["rotation"]
        c.expect(rep["measured"] <= 4.0 + k * T + 3.0 * err,
                 f"thm3_4 measured {rep['measured']!r} > 4 + K T + 3 err")
    else:
        T = spec["T"]
        rep = payload["prop3_1"]
        c.satisfied(rep)
        c.near(f"spiral T={T}", rep["measured"], T, 1e-3 * T,
               rep["error_estimates"]["rotation"])
        # the winding's estimate covers quadrature only, not the integrator
        c.near(f"spiral winding T={T}", payload["winding"]["value"],
               T / (2 * math.pi), 1e-3 * T / (2 * math.pi))
        c.crofton(payload["crofton"], rep)
    return c.failures


CHECKS = {"repro": check_repro, "verify": check_verify, "sweep": check_sweep}
