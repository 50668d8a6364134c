"""Command-line front end.

Commands: integrate, rotate, link, crofton, witness, verify, paper-repro.
Exit codes: 0 success, 2 input/precondition error, 3 numerical failure.
Curves travel as CSV (header ``t,x1,...,xn``), reports as JSON with fixed
17-significant-digit float formatting so reruns are byte-identical.  A
result record (a dataclass) prints as its fields, in declaration order.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import typing

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
from .gausslink import gauss_rotation_pair, linking_coefficient
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
    if dataclasses.is_dataclass(obj):
        return to_json(dataclasses.asdict(obj), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj, out_path=None):
    text = to_json(obj) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared flag parsing


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _cfg_from(args) -> IntegratorConfig:
    """The config of the ``integrate`` flags named after its fields;
    unset flags keep the field defaults."""
    kw = {f.name: getattr(args, f.name)
          for f in dataclasses.fields(IntegratorConfig)}
    return IntegratorConfig(**{k: v for k, v in kw.items() if v is not None})


def _unit(d) -> np.ndarray:
    nrm = np.linalg.norm(d)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    return d / nrm


def _parse_subspace(text: str) -> AffineSubspace:
    groups = [_floats(g) for g in text.split(";")]
    dirs = [_unit(np.array(g)) for g in groups[1:]]
    return AffineSubspace(np.array(groups[0]), dirs)


# ---------------------------------------------------------------------------
# commands


def _cmd_integrate(args) -> int:
    f = parse_field_spec(args.field)
    x0 = np.array(_floats(args.x0))
    cfg = _cfg_from(args)
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
        sub = _parse_subspace(args.subspace)
        mode = "signed" if args.mode == "signed" else "absolute"
        rr = rotation_around_subspace(curve, sub, mode, guard=guard)
    _emit(rr, args.out)
    return 0


def _cmd_link(args) -> int:
    c1 = curve_from_csv(args.curve1)
    c2 = curve_from_csv(args.curve2)
    if args.mode == "coefficient":
        res = linking_coefficient(c1, c2, guard=args.guard)
    else:
        res = gauss_rotation_pair(c1, c2, args.mode, guard=args.guard)
    _emit(res, args.out)
    return 0


def _cmd_crofton(args) -> int:
    if args.n is not None:
        _emit(crofton_constants(args.n), args.out)
        return 0
    curve = curve_from_csv(args.curve)
    est = crofton_length_estimate(SphericalCurve(curve), m=args.m,
                                  seed=args.seed)
    _emit({"estimate": est.value, "stderr": est.stderr, "draws": est.draws},
          args.out)
    return 0


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
    _emit(w, args.out)
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


def _sink_curves(starts):
    """The sink field and its trajectories over [0, 3] from ``starts``."""
    f = linear(SINK_MATRIX)
    cfg = IntegratorConfig(max_step=0.01, chord_tol=1e-5)
    return f, [integrate_trajectory(f, x0, 0.0, 3.0, cfg) for x0 in starts]


def _scenario_reports(name, theorems, seed):
    """The reports of ``theorems``, all covered by scenario ``name``."""
    x_axis = AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])
    reports = []
    if name == "spiral-point":
        f = spiral2d()
        cfg = IntegratorConfig(chord_tol=1e-5)
        traj = integrate_trajectory(f, np.array([0.5, 0.0]), 0.0, 10.0, cfg,
                                    obs_centers=[np.zeros(2)])
        for th in theorems:
            if th == "prop3_1":
                reports.append(bounds_mod.check_stationary_point_bound(
                    f, np.zeros(2), traj))
            else:
                k, _ = bounds_mod.lipschitz_for(f, traj.x, [np.zeros(2)])
                reports.append(bounds_mod.check_any_point_bound(
                    traj, np.zeros(2), K=k))
    elif name == "sink-line":
        f, (t1,) = _sink_curves(SINK_START_PAIR[:1])
        reports = [bounds_mod.check_invariant_subspace_bound(
            f, x_axis, t1, seed=seed) for _ in theorems]
    elif name == "twist-line":
        f = twist3d()
        cfg = IntegratorConfig(chord_tol=1e-6)
        traj = integrate_trajectory(f, np.array([0.1, 0.5, 0.0]), 0.0, 0.4,
                                    cfg)
        reports = [bounds_mod.check_invariant_subspace_bound(
            f, x_axis, traj, seed=seed) for _ in theorems]
    elif name == "sink-pair":
        f, (t1, t2) = _sink_curves(SINK_START_PAIR)
        k, _ = bounds_mod.lipschitz_for(f, t1.x)
        reports = bounds_mod._pair_reports(t1, t2, theorems, K=k)
    elif name == "sink-log":
        reports = [bounds_mod.check_log_sink_shells(
            SINK_MATRIX, SINK_START_PAIR, 1.0, (1.0 / math.e,))[0]
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
    _emit(reports if len(reports) != 1 else reports[0], args.out)
    return 0


def _cmd_paper_repro(args) -> int:
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    summary = {}

    # 1. a circle threaded by the z-axis segment |z| <= 100: 100/sqrt(10001)
    th = np.linspace(0.0, 2 * math.pi, 1501)
    circle = Curve(th, np.stack([np.cos(th), np.sin(th), np.zeros_like(th)],
                                axis=1), closed=True)
    segment = Curve([-100.0, 100.0], [[0.0, 0.0, -100.0], [0.0, 0.0, 100.0]])
    summary["circle_line_linking_turns"] = gauss_rotation_pair(
        circle, segment, "signed")

    # 2. planar spiral: rotation grows at unit rate around the sink
    cfg = IntegratorConfig(chord_tol=1e-5)
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
                         "error_estimate": 0.0, "expected_rad": 0.0,
                         "elapsed_time": 0.0})
            continue
        curve = twist_invariant_curve(a, b)
        rot = rotation_around_subspace(curve, axis, "absolute", guard=0.0)
        rows.append({"a": a, "b": b, "rotation_rad": rot.value,
                     "error_estimate": rot.error_estimate,
                     "expected_rad": 1.0 / a - 1.0 / b,
                     "elapsed_time": b - a})
    summary["twist_blowup_rows"] = rows

    # 4. zero mutual rotation of two off-axis trajectories of the same field
    cfg2 = IntegratorConfig(chord_tol=1e-6)
    w1 = integrate_trajectory(twist3d(), np.array([0.05, 0.5, 0.0]), 0.0,
                              0.15, cfg2)
    w2 = integrate_trajectory(twist3d(), np.array([0.05, 0.0, 0.7]), 0.0,
                              0.15, cfg2)
    summary["twist_pair_mutual_turns"] = {
        "signed": gauss_rotation_pair(w1, w2, "signed"),
        "absolute": gauss_rotation_pair(w1, w2, "absolute"),
    }

    # 5. log^2 growth of mutual rotation across shrinking shells
    ks = (1, 2, 3, 4)
    reps = bounds_mod.check_log_sink_shells(
        SINK_MATRIX, SINK_START_PAIR, R=1.0, radii=[math.exp(-k) for k in ks])
    summary["sink_log_growth_rows"] = [
        {"k": k, "measured_turns": rep.measured,
         "error_estimate": rep.error_estimates["rotation"], "bound": rep.bound,
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
    # one flag per IntegratorConfig field: --rel-tol sets rel_tol
    hints = typing.get_type_hints(IntegratorConfig)
    helps = {"rel_tol": "no effect: every field kind follows its exact "
                        "flow, with no step tolerance",
             "abs_tol": "the default --chord-tol; no other effect"}
    for fld in dataclasses.fields(IntegratorConfig):
        sp.add_argument("--" + fld.name.replace("_", "-"), dest=fld.name,
                        type=int if hints[fld.name] is int else float,
                        default=None, help=helps.get(fld.name))
    sp.add_argument("--obs-center", dest="obs_center", action="append")
    common(sp)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("rotate", help="rotation of a curve around a point/subspace")
    sp.add_argument("--curve", required=True)
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--point", default=None)
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
