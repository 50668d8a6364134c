"""Measured rotation quantities compared against their a-priori bounds.

Each check returns a :class:`BoundReport` recording the measured value,
the bound, the Lipschitz constant K that produced it (for every field
kind the exact constant over a ball enclosing the trajectory, from
:func:`~trajrot.fields.estimate_lipschitz`) and the verdict.
The verdict allows the combined quadrature error estimates as slack: a
violation beyond that slack indicates a real numerical problem, because
the underlying inequalities are theorems.  Each check measures the whole
trajectory it is given, over its own time span; restrict a trajectory to
a window with :func:`~trajrot.curves.slice_time` first.
:func:`check_log_sink_shells` returns a :class:`ShellReports` tuple of
one report per shell; one shell ``r`` is
``check_log_sink_shells(L, x0s, R, (r,))[0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import AffineSubspace, Curve, _check_clearance, slice_time
from .errors import (EigenvalueSignError, NotInvariant, NotStationary,
                     NumericalError)
from .fields import (FieldSpec, enclosing_ball, estimate_lipschitz,
                     eval_field, field_values, linear, operator_norm)
from .flow import IntegratorConfig, integrate_trajectory
from .gausslink import gauss_rotation_nested, gauss_rotation_pair
from .rotation import (_absolute_rotations, absolute_rotation_point,
                       rotation_around_subspace)

THEOREM_IDS = ("prop3_1", "prop3_2", "thm3_4", "thm3_8", "cor3_10",
               "thm3_10_log")

_STATIONARY_TOL = 1e-10
_INVARIANT_TOL = 1e-8
# invariance probes, cor3_10 grid points
_INVARIANCE_SAMPLES, _R_GRID = 100, 64
# times the sink shells double an uncertified end time (16x in all)
_FALLBACK_DOUBLINGS = 4

# Reference constant for the logarithmic sink bound, calibrated once on
# the diagonalizable reference field (eigenvalues -1 and -1 +- 2i,
# shells R/r = e^k for k = 1..4); the largest implied constant observed
# there is ~0.039, kept with a 2.5x cushion.
LOG_SINK_REFERENCE_C = 0.1


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    measured: float
    bound: float
    margin: float
    satisfied: bool
    inputs: dict = field(default_factory=dict)
    error_estimates: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem_id {self.theorem_id!r}")


def _report(theorem_id, measured, bound, inputs, errors) -> BoundReport:
    slack = math.fsum(errors.values())
    return BoundReport(
        theorem_id=theorem_id,
        measured=measured,
        bound=bound,
        margin=bound - measured,
        satisfied=measured <= bound + slack,
        inputs=inputs,
        error_estimates=errors,
    )


def lipschitz_for(f: FieldSpec, points, extra_points=()):
    """K: :func:`estimate_lipschitz` over a ball enclosing ``points`` and
    ``extra_points``, the exact Lipschitz constant there for every field
    kind.  Returns (K, inputs)."""
    ball = enclosing_ball(points, *[np.atleast_2d(p) for p in extra_points])
    est = estimate_lipschitz(f, ball)
    return est.K, {"K": est.K, "K_method": est.method}


def _span(c: Curve) -> dict:
    """The elapsed time ``T`` of the whole trajectory and its ends."""
    return {"T": c.duration, "t1": float(c.t[0]), "t2": float(c.t[-1])}


def check_stationary_point_bound(f: FieldSpec, x0, trajectory: Curve,
                                 seed: int = 0) -> BoundReport:
    """Rotation around a stationary point is at most K * elapsed time.

    ``seed`` has no effect: K is exact, not sampled.  It stays because
    the benchmark's ``sweep`` workload passes it."""
    x0 = np.asarray(x0, dtype=np.float64)
    speed = float(np.linalg.norm(eval_field(f, x0)))
    if not speed < _STATIONARY_TOL:  # a NaN speed is not stationary
        raise NotStationary(f"|v(x0)| = {speed:.3g} >= {_STATIONARY_TOL}")
    k, inputs = lipschitz_for(f, trajectory.x, [x0])
    rr = absolute_rotation_point(trajectory, x0)
    inputs.update(_span(trajectory))
    return _report("prop3_1", rr.value, k * inputs["T"], inputs,
                   {"rotation": rr.error_estimate})


def check_invariant_subspace_bound(f: FieldSpec, sub: AffineSubspace,
                                   trajectory: Curve,
                                   seed: int = 0) -> BoundReport:
    """Rotation around an invariant subspace is at most K * elapsed time.

    Invariance is verified by sampling: at points of the subspace inside
    the trajectory's region, the field component orthogonal to the
    subspace must vanish (within 1e-8); otherwise :class:`NotInvariant`
    is raised -- which is exactly the signal produced by the twisting
    field against the x1-axis.  ``seed`` draws those probe points.
    """
    ball = enclosing_ball(trajectory.x)
    rng = np.random.default_rng(seed)
    # sample the patch of the subspace nearest the trajectory's region
    center_coords = (ball.center - sub.base_point) @ sub.basis.T
    coeffs = center_coords + rng.uniform(
        -ball.radius, ball.radius, (_INVARIANCE_SAMPLES, sub.dim))
    probe = sub.base_point + coeffs @ sub.basis
    vals = field_values(f, probe)
    ortho = vals - (vals @ sub.basis.T) @ sub.basis
    worst = float(np.max(np.linalg.norm(ortho, axis=1)))
    if not worst < _INVARIANT_TOL:  # a NaN residual (overflow) fails too
        raise NotInvariant(
            f"field has orthogonal component {worst:.3g} on the subspace "
            f"(tolerance {_INVARIANT_TOL})")
    k, inputs = lipschitz_for(f, trajectory.x, [probe])
    rr = rotation_around_subspace(trajectory, sub, "absolute")
    inputs.update(_span(trajectory))
    inputs["invariance_residual"] = worst
    return _report("prop3_2", rr.value, k * inputs["T"], inputs,
                   {"rotation": rr.error_estimate})


def check_any_point_bound(trajectory: Curve, x0, *, K: float,
                          guard=None) -> BoundReport:
    """Rotation around an arbitrary point is at most 4 + K * elapsed time."""
    x0 = np.asarray(x0, dtype=np.float64)
    rr = absolute_rotation_point(trajectory, x0, guard=guard)
    inputs = {"K": K, **_span(trajectory)}
    return _report("thm3_4", rr.value, 4.0 + K * inputs["T"], inputs,
                   {"rotation": rr.error_estimate})


def check_pair_bound(traj1: Curve, traj2: Curve, *, K: float) -> BoundReport:
    """Mutual absolute rotation of two trajectories of one K-Lipschitz
    field is at most (K/pi) min(T1,T2) + (1/4pi) K^2 T1 T2 (turns)."""
    return _pair_reports(traj1, traj2, ("thm3_8",), K=K)[0]


def _max_point_rotation(c: Curve, grid_points):
    """``(R, error)``: R is the largest absolute rotation of ``c`` around
    the grid points, all from one call of the stacked kernel; a grid point
    within the curve's default guard raises
    :class:`~trajrot.errors.DistanceTooSmall`.  R's error is that of the
    entry that sets R, widened to cover every measured ``value + error``,
    so a runner-up with a wider error bar stays covered; it does not
    depend on the order of the grid."""
    value, err, rmin = _absolute_rotations(c, grid_points)
    _check_clearance(np.min(rmin), c.default_guard())
    best = np.max(value)
    best_err = np.max(err[value == best])
    top = np.max(value + err)
    if top > best + best_err:
        best_err = top - best
    return float(best), float(best_err)


def check_pair_bound_refined(traj1: Curve, traj2: Curve, *,
                             K: float) -> BoundReport:
    """Refined mutual-rotation bound (K/4pi) min(R1 T2, R2 T1), where R_i
    is the largest rotation of trajectory i around ``_R_GRID`` evenly
    spaced samples of the other one, measured in one stacked-kernel call
    per side.  R_i's error is that of the entry that sets it, widened to
    reach every measured value + error.  R_i raises
    :class:`~trajrot.errors.DistanceTooSmall` when a grid point lies
    within trajectory i's default guard of it, but the pair measurement,
    which comes first, guards with the larger default guard of the two:
    curves that bring a grid point that close raise
    :class:`~trajrot.errors.CurvesTooClose` there."""
    return _pair_reports(traj1, traj2, ("cor3_10",), K=K)[0]


def _pair_reports(c1: Curve, c2: Curve, theorem_ids, *, K: float) -> list:
    """The thm3_8 and cor3_10 reports named in ``theorem_ids``, in order,
    all from one measurement of the pair's mutual absolute rotation."""
    t1, t2 = c1.duration, c2.duration
    rr = gauss_rotation_pair(c1, c2, "absolute")

    def direct():
        bound = (K / math.pi) * min(t1, t2) \
            + (K * K / (4 * math.pi)) * t1 * t2
        inputs = {"K": K, "T1": t1, "T2": t2}
        return _report("thm3_8", rr.value, bound, inputs,
                       {"rotation": rr.error_estimate})

    def refined():
        def grid_of(c):
            idx = np.linspace(0, c.n_samples - 1, _R_GRID).round().astype(int)
            return c.x.astype(np.float64, copy=False)[np.unique(idx)]

        r1, e1 = _max_point_rotation(c1, grid_of(c2))
        r2, e2 = _max_point_rotation(c2, grid_of(c1))
        bound = (K / (4 * math.pi)) * min(r1 * t2, r2 * t1)
        inputs = {"K": K, "T1": t1, "T2": t2, "R1": r1, "R2": r2,
                  "R_grid": _R_GRID}
        return _report("cor3_10", rr.value, bound, inputs,
                       {"rotation": rr.error_estimate,
                        "R1": e1 * (K / (4 * math.pi)) * t2,
                        "R2": e2 * (K / (4 * math.pi)) * t1})

    build = {"thm3_8": direct, "cor3_10": refined}
    return [build[th]() for th in theorem_ids]


def _clip_to_shell(c: Curve, r: float, R: float) -> Curve:
    """Restrict a decaying trajectory to the radial shell r <= |x| <= R."""
    rad = np.linalg.norm(c.x.astype(np.float64, copy=False), axis=1)
    t = c.t

    def crossing(level, s):
        # first segment from sample s on whose ends the radius meets or
        # straddles the level and moves; an overflowing product keeps
        # its sign and a NaN radius matches nothing, as in a scalar scan
        with np.errstate(over="ignore", invalid="ignore"):
            hits = np.flatnonzero(((rad[s:-1] - level) * (rad[s + 1:] - level)
                                   <= 0) & (rad[s:-1] != rad[s + 1:]))
        if not len(hits):
            return None
        i = s + int(hits[0])
        tau = (rad[i] - level) / (rad[i] - rad[i + 1])
        return i, float(t[i] + tau * (t[i + 1] - t[i]))

    if rad[0] <= R:
        t_in = float(t[0])
        i_in = 0
    else:
        hit = crossing(R, 0)
        if hit is None:
            raise NumericalError("trajectory never enters the outer sphere")
        i_in, t_in = hit
    hit = crossing(r, i_in)
    if hit is None:
        raise NumericalError("trajectory never exits the inner sphere; "
                             "integrate longer")
    _, t_out = hit
    return slice_time(c, t_in, t_out)


class ShellReports(tuple):
    """One :class:`BoundReport` per shell, ``satisfied`` when all are."""

    @property
    def satisfied(self) -> bool:
        return all(rep.satisfied for rep in self)


def check_log_sink_shells(L_matrix, x0_pair, R: float, radii) -> ShellReports:
    """Mutual rotation of two sink trajectories across each shell
    r <= |x| <= R, r in ``radii``, compared with
    LOG_SINK_REFERENCE_C * |L| * log^2(R/r) / |ell|; one report per radius,
    in the order given.  ``ell`` is the largest eigenvalue real part (must
    be negative).  Every start must lie outside the largest shell,
    |x0| > max(radii), or no trajectory could cross it: ValueError
    naming the start, before anything is integrated.

    Each start point is integrated once, to the time at which the
    smallest shell is certainly behind it.  With the logarithmic norm
    mu = lambda_max((L + L^T)/2), every solution of dx/dt = Lx has
    |x(t)| <= e^(mu t) |x0|, so when mu < 0 both trajectories lie inside
    r_min e^-0.1 by t_end = (log(start / r_min) + 0.1) / |mu|, where
    start is the larger |x0|.  A stable non-normal L can have mu >= 0
    (its norm grows before it decays); there t_end falls back to the
    estimate (log(start / r_min) + 4) / |ell|.  A start that has not
    crossed r_min by then is integrated again to twice the end time,
    with the same max_step, up to _FALLBACK_DOUBLINGS times; then
    NumericalError names the time reached.  When t_end >= 1 / |L|, the
    nodes lie on the fixed grid j * max_step, max_step = 0.02 / |L|, and
    each step's samples depend only on its first node and its length, so
    only the last step depends on t_end; the margin 0.1 / |mu| is at
    least five steps, so every sample up to the smallest shell's exit,
    and with it every shell, is what a longer integration would give.

    All shells enter at the same time, where the trajectory crosses
    |x| = R, so each shell's clipped curve is the largest shell's up to
    its own last sample plus one interpolated end point: one Gauss pass
    over the largest shell (and one over its decimated copy) measures
    every shell, with the largest shell's guard.  The reports carry the
    constant implied by each measurement so its stability can be
    regression-checked across shells.
    """
    radii = tuple(radii)
    if not (math.isfinite(R) and radii and all(R > r > 0 for r in radii)):
        raise ValueError("need a finite R and at least one radius, "
                         "each with R > r > 0")
    x0s = [np.asarray(x, dtype=np.float64) for x in x0_pair]
    norms = [float(np.linalg.norm(x0)) for x0 in x0s]
    for x0, norm in zip(x0s, norms):
        if not norm > max(radii):  # a NaN start fails too
            raise ValueError(f"start {x0.tolist()} does not lie outside the "
                             f"shell radius {float(max(radii))!r}; need "
                             "|x0| > max(radii)")
    f = linear(L_matrix)  # a non-finite or non-square L raises ValueError
    L = f.matrix
    eig = np.linalg.eigvals(L)
    ell = float(np.max(eig.real))
    if ell >= 0:
        raise EigenvalueSignError(
            f"all eigenvalues need negative real part, got max {ell:.3g}")
    norm_l = operator_norm(L)
    mu = float(np.linalg.eigvalsh(0.5 * (L + L.T))[-1])
    log_in = math.log(max(norms) / min(radii))
    t_end = (log_in + 0.1) / -mu if mu < 0 else (log_in + 4.0) / abs(ell)
    cfg = IntegratorConfig(max_step=min(0.02 / max(norm_l, 1e-6), t_end / 50),
                           chord_tol=1e-6)

    r_min = float(min(radii))

    def inside(traj):  # a NaN radius makes the minimum NaN: not inside
        return np.min(np.linalg.norm(traj.x, axis=1)) <= r_min

    def clipped(x0):
        traj = integrate_trajectory(f, x0, 0.0, t_end, cfg)
        doublings = 0
        while mu >= 0 and not inside(traj):
            if doublings == _FALLBACK_DOUBLINGS:
                raise NumericalError(
                    f"trajectory from {x0.tolist()} has not crossed r = "
                    f"{r_min!r} by t = {float(traj.t[-1])!r}")
            doublings += 1
            traj = integrate_trajectory(f, x0, 0.0,
                                        math.ldexp(t_end, doublings), cfg)
        return [_clip_to_shell(traj, r, R) for r in radii]

    # one (c1, c2) pair per radius; the whole trajectories are not kept
    shells = list(zip(*map(clipped, x0s)))
    reports = []
    for r, (c1, c2), rr in zip(radii, shells,
                               gauss_rotation_nested(shells, "absolute")):
        log_ratio = math.log(R / r)
        bound = LOG_SINK_REFERENCE_C * norm_l * log_ratio ** 2 / abs(ell)
        implied = rr.value * abs(ell) / (norm_l * log_ratio ** 2)
        inputs = {"norm_L": norm_l, "ell": ell, "R": R, "r": r,
                  "log_ratio": log_ratio,
                  "T1": c1.duration, "T2": c2.duration,
                  "implied_C": implied, "reference_C": LOG_SINK_REFERENCE_C}
        reports.append(_report("thm3_10_log", rr.value, bound, inputs,
                               {"rotation": rr.error_estimate}))
    return ShellReports(reports)
