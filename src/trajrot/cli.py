"""Command-line front end.

Commands: integrate, rotate, link, crofton, witness, verify, paper-repro.
Exit codes: 0 success, 2 input/precondition error, 3 numerical failure.
Curves travel as CSV (header ``t,x1,...,xn``), reports as JSON with fixed
17-significant-digit float formatting so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .crofton import (crofton_constants, crofton_length_estimate,
                      find_circle_witness, find_equator_witness,
                      find_euclidean_witness)
from .curves import (AffineSubspace, Curve, SphericalCurve, curve_from_csv,
                     curve_to_csv)
from .errors import NumericalError, PreconditionError
from .fields import (linear, parse_field_spec, spiral2d, twist3d,
                     twist_invariant_curve)
from .flow import IntegratorConfig, integrate_trajectory
from .gausslink import (gauss_rotation_pair, linking_coefficient,
                        truncated_line_curve)
from .rotation import (absolute_rotation_point, rotation_around_subspace,
                       signed_winding_plane)

# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError("cannot serialize non-finite float")
    return format(v, ".17g")


def to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj, out_path=None):
    text = to_json(obj) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rotation_dict(rr):
    return {"value": rr.value, "error_estimate": rr.error_estimate,
            "convention": rr.convention}


# ---------------------------------------------------------------------------
# shared flag parsing


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _load_config(path: str | None) -> dict:
    """Flat key=value defaults file; flags override these values."""
    if not path:
        return {}
    conf = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not _:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            conf[key.strip()] = value.strip()
    return conf


# The keys a config file may set, each also an ``integrate`` flag of the
# same name; unset ones keep the IntegratorConfig defaults.
_CONFIG_KEYS = {"rel_tol": float, "abs_tol": float, "max_step": float,
                "max_samples": int, "chord_tol": float}


def _cfg_from(args, conf) -> IntegratorConfig:
    for key in conf:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}; known keys: "
                             f"{', '.join(_CONFIG_KEYS)}")
    kw = {}
    for key, cast in _CONFIG_KEYS.items():
        v = getattr(args, key)
        if v is None and key in conf:
            v = cast(conf[key])
        if v is not None:
            kw[key] = v
    return IntegratorConfig(**kw)


def _parse_subspace(args) -> AffineSubspace:
    if args.line is not None:
        vals = _floats(args.line)
        if len(vals) % 2 or len(vals) < 4:
            raise ValueError("--line needs base and direction: b1,..,bn,d1,..,dn")
        n = len(vals) // 2
        base = np.array(vals[:n])
        d = np.array(vals[n:])
        nrm = np.linalg.norm(d)
        if nrm == 0:
            raise ValueError("line direction must be nonzero")
        return AffineSubspace(base, [d / nrm])
    vals_groups = [_floats(g) for g in args.subspace.split(";")]
    base = np.array(vals_groups[0])
    dirs = [np.array(g) for g in vals_groups[1:]]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    return AffineSubspace(base, dirs)


# ---------------------------------------------------------------------------
# commands


def _cmd_integrate(args) -> int:
    conf = _load_config(args.config)
    f = parse_field_spec(args.field)
    x0 = np.array(_floats(args.x0))
    cfg = _cfg_from(args, conf)
    centers = [np.array(_floats(c)) for c in (args.obs_center or [])]
    curve = integrate_trajectory(f, x0, args.t0, args.t1, cfg,
                                 obs_centers=centers)
    curve_to_csv(curve, args.out or sys.stdout)
    return 0


def _cmd_rotate(args) -> int:
    curve = curve_from_csv(args.curve)
    guard = args.guard
    if args.point is not None:
        x0 = np.array(_floats(args.point))
        if args.mode == "signed":
            rr = signed_winding_plane(curve, x0, guard=guard)
        else:
            rr = absolute_rotation_point(curve, x0, guard=guard)
    else:
        sub = _parse_subspace(args)
        mode = "signed" if args.mode == "signed" else "absolute"
        rr = rotation_around_subspace(curve, sub, mode, guard=guard)
    _emit(_rotation_dict(rr), args.out)
    return 0


def _cmd_link(args) -> int:
    c1 = curve_from_csv(args.curve1)
    c2 = curve_from_csv(args.curve2)
    if args.mode == "coefficient":
        res = linking_coefficient(c1, c2, guard=args.guard)
        _emit({"raw": res.raw, "nearest_integer": res.nearest_integer,
               "residual": res.residual,
               "error_estimate": res.error_estimate}, args.out)
    else:
        rr = gauss_rotation_pair(c1, c2, args.mode, guard=args.guard)
        _emit(_rotation_dict(rr), args.out)
    return 0


def _cmd_crofton(args) -> int:
    if args.n is not None:
        c = crofton_constants(args.n)
        _emit({"n": c.n, "c_n": c.c_n, "V_n": c.V_n, "C_n": c.C_n}, args.out)
        return 0
    curve = curve_from_csv(args.curve)
    est = crofton_length_estimate(SphericalCurve(curve), m=args.m,
                                  seed=args.seed)
    _emit({"estimate": est.value, "stderr": est.stderr, "draws": est.draws},
          args.out)
    return 0


def _witness_dict(w):
    return {"plane": w.plane, "tau1": w.tau1, "tau2": w.tau2,
            "relation": w.relation, "v_proj_1": w.v_proj_1,
            "v_proj_2": w.v_proj_2, "theta": w.theta,
            "threshold": w.threshold, "curve_length": w.curve_length,
            "window": list(w.window), "match_tol": w.match_tol}


def _cmd_witness(args) -> int:
    curve = curve_from_csv(args.curve)
    if args.kind == "circle":
        w = find_circle_witness(curve, args.theta)
    elif args.kind == "equator":
        w = find_equator_witness(SphericalCurve(curve), args.theta,
                                 trials=args.trials, seed=args.seed)
    else:
        w = find_euclidean_witness(curve, args.theta, trials=args.trials,
                                   seed=args.seed)
    _emit(_witness_dict(w), args.out)
    return 0


# verification scenarios ----------------------------------------------------

SINK_MATRIX = np.array([[-1.0, 0.0, 0.0],
                        [0.0, -1.0, -2.0],
                        [0.0, 2.0, -1.0]])
# the two start points of every sink-pair scenario and artifact
SINK_START_PAIR = ((1.0, 1.0, 0.0), (1.0, -1.0, 0.0))

# the theorems each verify scenario covers
SCENARIO_THEOREMS = {
    "spiral-point": ("prop3_1", "thm3_4"),
    "sink-line": ("prop3_2",),
    "twist-line": ("prop3_2",),
    "sink-pair": ("thm3_8", "cor3_10"),
    "sink-log": ("thm3_10_log",),
}


def _sink_pair_curves(T=3.0):
    f = linear(SINK_MATRIX)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.01,
                           chord_tol=1e-5)
    t1, t2 = (integrate_trajectory(f, x0, 0.0, T, cfg)
              for x0 in SINK_START_PAIR)
    return f, t1, t2


def _scenario_reports(name, theorems, seed):
    """The reports of ``theorems``, all covered by scenario ``name``."""
    x_axis = AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])
    reports = []
    if name == "spiral-point":
        f = spiral2d()
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
        traj = integrate_trajectory(f, np.array([0.5, 0.0]), 0.0, 10.0, cfg,
                                    obs_centers=[np.zeros(2)])
        for th in theorems:
            if th == "prop3_1":
                reports.append(bounds_mod.check_stationary_point_bound(
                    f, np.zeros(2), traj, seed=seed))
            else:
                k, _ = bounds_mod.lipschitz_for(f, traj.x, [np.zeros(2)],
                                                seed=seed)
                reports.append(bounds_mod.check_any_point_bound(
                    traj, np.zeros(2), K=k))
    elif name == "sink-line":
        f, t1, _ = _sink_pair_curves()
        reports = [bounds_mod.check_invariant_subspace_bound(
            f, x_axis, t1, seed=seed) for _ in theorems]
    elif name == "twist-line":
        f = twist3d()
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6)
        traj = integrate_trajectory(f, np.array([0.1, 0.5, 0.0]), 0.0, 0.4,
                                    cfg)
        reports = [bounds_mod.check_invariant_subspace_bound(
            f, x_axis, traj, seed=seed) for _ in theorems]
    elif name == "sink-pair":
        f, t1, t2 = _sink_pair_curves()
        k, _ = bounds_mod.lipschitz_for(f, t1.x, seed=seed)
        check = {"thm3_8": bounds_mod.check_pair_bound,
                 "cor3_10": bounds_mod.check_pair_bound_refined}
        reports = [check[th](t1, t2, K=k) for th in theorems]
    elif name == "sink-log":
        reports = [bounds_mod.check_log_sink_bound(
            SINK_MATRIX, SINK_START_PAIR, R=1.0, r=1.0 / math.e)
            for _ in theorems]
    return reports


def _cmd_verify(args) -> int:
    theorems = args.theorem
    for th in theorems:
        if th not in bounds_mod.THEOREM_IDS:
            raise ValueError(f"unknown theorem id {th!r}")
    for th in theorems:
        if th not in SCENARIO_THEOREMS[args.scenario]:
            raise ValueError(f"scenario {args.scenario} does not cover {th}")
    reports = _scenario_reports(args.scenario, theorems, args.seed)
    payload = [r.to_dict() for r in reports]
    _emit(payload if len(payload) != 1 else payload[0], args.out)
    return 0


def _cmd_paper_repro(args) -> int:
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    summary = {}

    # 1. circle/line linking value
    th = np.linspace(0.0, 2 * math.pi, 1501)
    circle = Curve(th, np.stack([np.cos(th), np.sin(th), np.zeros_like(th)],
                                axis=1), closed=True)
    zaxis = AffineSubspace(np.zeros(3), [np.array([0.0, 0.0, 1.0])])
    line_curve = truncated_line_curve(zaxis, 100.0, -3.0, 3.0, 0.05)
    rr = gauss_rotation_pair(circle, line_curve, "signed")
    summary["circle_line_linking_turns"] = {
        "value": rr.value, "error_estimate": rr.error_estimate}

    # 2. planar spiral: rotation grows at unit rate around the sink
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    rows = []
    for T in (2.0, 5.0, 10.0):
        traj = integrate_trajectory(spiral2d(), np.array([0.5, 0.0]), 0.0, T,
                                    cfg, obs_centers=[np.zeros(2)])
        rot = absolute_rotation_point(traj, np.zeros(2))
        rows.append({"T": T, "rotation_rad": rot.value,
                     "error_estimate": rot.error_estimate})
    summary["spiral_unit_rate_rows"] = rows

    # 3. unbounded winding around a non-invariant axis in bounded time
    axis = AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])
    rows = []
    for a in (0.2, 0.1, 0.05, 0.025):
        b = 0.2
        if a >= b:
            rows.append({"a": a, "b": b, "rotation_rad": 0.0,
                         "expected_rad": 0.0, "elapsed_time": 0.0})
            continue
        curve = twist_invariant_curve(a, b)
        rot = rotation_around_subspace(curve, axis, "absolute", guard=0.0)
        rows.append({"a": a, "b": b, "rotation_rad": rot.value,
                     "expected_rad": 1.0 / a - 1.0 / b,
                     "elapsed_time": b - a})
    summary["twist_blowup_rows"] = rows

    # 4. zero mutual rotation of two off-axis trajectories of the same field
    cfg2 = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, chord_tol=1e-6)
    w1 = integrate_trajectory(twist3d(), np.array([0.05, 0.5, 0.0]), 0.0,
                              0.15, cfg2)
    w2 = integrate_trajectory(twist3d(), np.array([0.05, 0.0, 0.7]), 0.0,
                              0.15, cfg2)
    summary["twist_pair_mutual_turns"] = {
        "signed": _rotation_dict(gauss_rotation_pair(w1, w2, "signed")),
        "absolute": _rotation_dict(gauss_rotation_pair(w1, w2, "absolute")),
    }

    # 5. log^2 growth of mutual rotation across shrinking shells
    ks = (1, 2, 3, 4)
    reps = bounds_mod.check_log_sink_shells(
        SINK_MATRIX, SINK_START_PAIR, R=1.0, radii=[math.exp(-k) for k in ks])
    summary["sink_log_growth_rows"] = [
        {"k": k, "measured_turns": rep.measured, "bound": rep.bound,
         "implied_C": rep.inputs["implied_C"], "satisfied": rep.satisfied}
        for k, rep in zip(ks, reps)]

    for name, payload in summary.items():
        _emit(payload, os.path.join(outdir, f"{name}.json"))
    _emit(summary, os.path.join(outdir, "summary.json"))
    sys.stdout.write(f"wrote {len(summary) + 1} artifacts to {outdir}\n")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trajrot",
        description="Trajectory rotation and linking toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def seeded(sp):
        sp.add_argument("--seed", type=int, default=42)
        common(sp)

    sp = sub.add_parser("integrate", help="integrate a trajectory to CSV")
    sp.add_argument("--field", required=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, required=True)
    sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    sp.add_argument("--max-step", dest="max_step", type=float, default=None)
    sp.add_argument("--max-samples", dest="max_samples", type=int, default=None)
    sp.add_argument("--chord-tol", dest="chord_tol", type=float, default=None)
    sp.add_argument("--obs-center", dest="obs_center", action="append")
    sp.add_argument("--config", default=None,
                    help="flat key=value defaults file")
    common(sp)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("rotate", help="rotation of a curve around a point/subspace")
    sp.add_argument("--curve", required=True)
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--point", default=None)
    grp.add_argument("--line", default=None,
                     help="base and direction: b1,..,bn,d1,..,dn")
    grp.add_argument("--subspace", default=None,
                     help="semicolon-separated base;dir1;dir2;...")
    sp.add_argument("--mode", choices=["abs", "signed"], default="abs")
    sp.add_argument("--guard", type=float, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_rotate)

    sp = sub.add_parser("link", help="Gauss integral of two curves")
    sp.add_argument("--curve1", required=True)
    sp.add_argument("--curve2", required=True)
    sp.add_argument("--mode", choices=["coefficient", "signed", "absolute"],
                    default="coefficient")
    sp.add_argument("--guard", type=float, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_link)

    sp = sub.add_parser("crofton", help="Crofton constants / length estimate")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--curve", default=None, help="spherical curve CSV")
    grp.add_argument("--n", type=int, default=None,
                     help="emit the dimensional constants for this n")
    sp.add_argument("-m", type=int, default=10_000)
    seeded(sp)
    sp.set_defaults(func=_cmd_crofton)

    sp = sub.add_parser("witness", help="oscillation witness search")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--kind", choices=["circle", "equator", "euclidean"],
                    default="equator")
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--trials", type=int, default=200)
    seeded(sp)
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("verify", help="run a bound-verification scenario")
    sp.add_argument("--scenario", required=True,
                    choices=list(SCENARIO_THEOREMS))
    sp.add_argument("--theorem", action="append", required=True)
    seeded(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("paper-repro",
                        help="emit the canonical example artifacts")
    sp.add_argument("--out", default="repro-out")
    sp.set_defaults(func=_cmd_paper_repro)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, ValueError, OSError, NumericalError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
