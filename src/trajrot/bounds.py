"""Measured rotation quantities compared against their a-priori bounds.

Each check returns a :class:`BoundReport` recording the measured value,
the bound, the Lipschitz constant policy that produced it (analytic for
matrix-backed fields, otherwise 1.1x a sampled estimate) and the verdict.
The verdict allows the combined quadrature error estimates as slack: a
violation beyond that slack indicates a real numerical problem, because
the underlying inequalities are theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import AffineSubspace, Curve, slice_time
from .errors import (DistanceTooSmall, EigenvalueSignError, NotInvariant,
                     NotStationary, NumericalError)
from .fields import (FieldSpec, enclosing_ball, estimate_lipschitz,
                     eval_field, field_values, linear, operator_norm)
from .flow import IntegratorConfig, integrate_trajectory
from .gausslink import gauss_rotation_pair
from .rotation import absolute_rotation_point, rotation_around_subspace

THEOREM_IDS = ("prop3_1", "prop3_2", "thm3_4", "thm3_8", "cor3_10",
               "thm3_10_log")

# Sampled Lipschitz estimates are lower bounds; bound verification
# multiplies them by this documented safety factor.
SAMPLED_K_SAFETY = 1.1
_STATIONARY_TOL = 1e-10
_INVARIANT_TOL = 1e-8

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

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "inputs": dict(self.inputs),
            "error_estimates": dict(self.error_estimates),
        }


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


def lipschitz_for(f: FieldSpec, points, extra_points=(), seed: int = 0,
                  n: int = 4096):
    """The K policy: :func:`estimate_lipschitz` over a ball enclosing
    ``points``, times ``SAMPLED_K_SAFETY`` when it is a sampled estimate
    (analytic operator norms are exact).  Returns (K, inputs)."""
    ball = enclosing_ball(points, *[np.atleast_2d(p) for p in extra_points])
    est = estimate_lipschitz(f, ball, n=n, seed=seed)
    if est.method != "sampled":
        return est.K, {"K": est.K, "K_method": est.method, "K_safety": 1.0}
    k = SAMPLED_K_SAFETY * est.K
    return k, {"K": k, "K_method": "sampled", "K_safety": SAMPLED_K_SAFETY,
               "K_raw": est.K, "K_samples": est.sample_count,
               "K_region_radius": ball.radius}


def _window(c: Curve, window):
    if window is None:
        return c, float(c.t[0]), float(c.t[-1])
    ta, tb = float(window[0]), float(window[1])
    return slice_time(c, ta, tb), ta, tb


def check_stationary_point_bound(f: FieldSpec, x0, trajectory: Curve,
                                 window=None, seed: int = 0) -> BoundReport:
    """Rotation around a stationary point is at most K * elapsed time."""
    x0 = np.asarray(x0, dtype=np.float64)
    speed = float(np.linalg.norm(eval_field(f, x0)))
    if speed >= _STATIONARY_TOL:
        raise NotStationary(f"|v(x0)| = {speed:.3g} >= {_STATIONARY_TOL}")
    c, ta, tb = _window(trajectory, window)
    k, inputs = lipschitz_for(f, c.x, [x0], seed=seed)
    rr = absolute_rotation_point(c, x0)
    inputs.update({"T": tb - ta, "t1": ta, "t2": tb})
    return _report("prop3_1", rr.value, k * (tb - ta), inputs,
                   {"rotation": rr.error_estimate})


def check_invariant_subspace_bound(f: FieldSpec, sub: AffineSubspace,
                                   trajectory: Curve, window=None,
                                   seed: int = 0,
                                   invariance_samples: int = 100) -> BoundReport:
    """Rotation around an invariant subspace is at most K * elapsed time.

    Invariance is verified by sampling: at points of the subspace inside
    the trajectory's region, the field component orthogonal to the
    subspace must vanish (within 1e-8); otherwise :class:`NotInvariant`
    is raised -- which is exactly the signal produced by the twisting
    field against the x1-axis.
    """
    c, ta, tb = _window(trajectory, window)
    ball = enclosing_ball(c.x)
    rng = np.random.default_rng(seed)
    if sub.dim == 0:
        probe = np.repeat(sub.base_point[None, :], 2, axis=0)
    else:
        # sample the patch of the subspace nearest the trajectory's region
        center_coords = (ball.center - sub.base_point) @ sub.basis.T
        coeffs = center_coords + rng.uniform(
            -ball.radius, ball.radius, (invariance_samples, sub.dim))
        probe = sub.base_point + coeffs @ sub.basis
    vals = field_values(f, probe)
    ortho = vals - (vals @ sub.basis.T) @ sub.basis if sub.dim else vals
    worst = float(np.max(np.linalg.norm(ortho, axis=1)))
    if not worst < _INVARIANT_TOL:  # a NaN residual (overflow) fails too
        raise NotInvariant(
            f"field has orthogonal component {worst:.3g} on the subspace "
            f"(tolerance {_INVARIANT_TOL})")
    k, inputs = lipschitz_for(f, c.x, [probe], seed=seed)
    rr = rotation_around_subspace(c, sub, "absolute")
    inputs.update({"T": tb - ta, "t1": ta, "t2": tb,
                   "invariance_residual": worst})
    return _report("prop3_2", rr.value, k * (tb - ta), inputs,
                   {"rotation": rr.error_estimate})


def check_any_point_bound(trajectory: Curve, x0, window=None, *, K: float,
                          guard=None) -> BoundReport:
    """Rotation around an arbitrary point is at most 4 + K * elapsed time."""
    x0 = np.asarray(x0, dtype=np.float64)
    c, ta, tb = _window(trajectory, window)
    rr = absolute_rotation_point(c, x0, guard=guard)
    inputs = {"K": K, "T": tb - ta, "t1": ta, "t2": tb}
    return _report("thm3_4", rr.value, 4.0 + K * (tb - ta), inputs,
                   {"rotation": rr.error_estimate})


def check_pair_bound(traj1: Curve, traj2: Curve, windows=None, *, K: float,
                     guard=None) -> BoundReport:
    """Mutual absolute rotation of two trajectories of one K-Lipschitz
    field is at most (K/pi) min(T1,T2) + (1/4pi) K^2 T1 T2 (turns)."""
    w1, w2 = windows if windows is not None else (None, None)
    c1, a1, b1 = _window(traj1, w1)
    c2, a2, b2 = _window(traj2, w2)
    t1, t2 = b1 - a1, b2 - a2
    rr = gauss_rotation_pair(c1, c2, "absolute", guard=guard)
    bound = (K / math.pi) * min(t1, t2) + (K * K / (4 * math.pi)) * t1 * t2
    inputs = {"K": K, "T1": t1, "T2": t2}
    return _report("thm3_8", rr.value, bound, inputs,
                   {"rotation": rr.error_estimate})


def _max_point_rotation(c: Curve, grid_points, K, T, guard):
    """max over grid points of the absolute rotation of ``c`` around them;
    points too close to the curve fall back to the universal 4 + K*T."""
    best = 0.0
    err = 0.0
    fallbacks = 0
    for p in grid_points:
        try:
            rr = absolute_rotation_point(c, p, guard=guard)
        except DistanceTooSmall:
            best = max(best, 4.0 + K * T)
            fallbacks += 1
            continue
        if rr.value > best:
            best, err = rr.value, rr.error_estimate
    return best, err, fallbacks


def check_pair_bound_refined(traj1: Curve, traj2: Curve, windows=None, *,
                             K: float, grid: int = 64,
                             guard=None) -> BoundReport:
    """Refined mutual-rotation bound (K/4pi) min(R1 T2, R2 T1), where R_i
    is the largest rotation of trajectory i around sampled points of the
    other one (with the 4 + K*T_i fallback at too-close grid points)."""
    w1, w2 = windows if windows is not None else (None, None)
    c1, a1, b1 = _window(traj1, w1)
    c2, a2, b2 = _window(traj2, w2)
    t1, t2 = b1 - a1, b2 - a2
    rr = gauss_rotation_pair(c1, c2, "absolute", guard=guard)

    def grid_of(c):
        idx = np.linspace(0, c.n_samples - 1, grid).round().astype(int)
        return c.x.astype(np.float64, copy=False)[np.unique(idx)]

    r1, e1, f1 = _max_point_rotation(c1, grid_of(c2), K, t1, guard)
    r2, e2, f2 = _max_point_rotation(c2, grid_of(c1), K, t2, guard)
    bound = (K / (4 * math.pi)) * min(r1 * t2, r2 * t1)
    inputs = {"K": K, "T1": t1, "T2": t2, "R1": r1, "R2": r2,
              "R_grid": grid, "R_fallbacks": f1 + f2}
    return _report("cor3_10", rr.value, bound, inputs,
                   {"rotation": rr.error_estimate,
                    "R1": e1 * (K / (4 * math.pi)) * t2,
                    "R2": e2 * (K / (4 * math.pi)) * t1})


def _clip_to_shell(c: Curve, r: float, R: float) -> Curve:
    """Restrict a decaying trajectory to the radial shell r <= |x| <= R."""
    rad = np.linalg.norm(c.x.astype(np.float64, copy=False), axis=1)
    t = c.t

    def crossing(level, start_idx):
        for i in range(start_idx, len(rad) - 1):
            if (rad[i] - level) * (rad[i + 1] - level) <= 0 and rad[i] != rad[i + 1]:
                tau = (rad[i] - level) / (rad[i] - rad[i + 1])
                return i, float(t[i] + tau * (t[i + 1] - t[i]))
        return None

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
    be negative).  Each start point is integrated once, to the horizon of
    the smallest r.  The reports carry the constant implied by each
    measurement so its stability can be regression-checked across shells.
    """
    L = np.asarray(L_matrix, dtype=np.float64)
    radii = tuple(radii)
    if not radii or not all(R > r > 0 for r in radii):
        raise ValueError("need at least one radius, each with R > r > 0")
    eig = np.linalg.eigvals(L)
    ell = float(np.max(eig.real))
    if ell >= 0:
        raise EigenvalueSignError(
            f"all eigenvalues need negative real part, got max {ell:.3g}")
    f = linear(L)
    norm_l = operator_norm(L)
    start = max(np.linalg.norm(np.asarray(x, dtype=float)) for x in x0_pair)
    horizon = (math.log(start / min(radii)) + 4.0) / abs(ell)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                           max_step=min(0.02 / max(norm_l, 1e-6), horizon / 50),
                           chord_tol=1e-6)
    trajs = [integrate_trajectory(f, np.asarray(x0, dtype=np.float64),
                                  0.0, horizon, cfg) for x0 in x0_pair]
    reports = []
    for r in radii:
        c1, c2 = (_clip_to_shell(traj, r, R) for traj in trajs)
        rr = gauss_rotation_pair(c1, c2, "absolute")
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


def check_log_sink_bound(L_matrix, x0_pair, R: float, r: float) -> BoundReport:
    """:func:`check_log_sink_shells` for the one shell r <= |x| <= R."""
    return check_log_sink_shells(L_matrix, x0_pair, R, (r,))[0]


def pair_bound_fallback_identity(K: float, T1: float, T2: float) -> tuple[float, float]:
    """Both sides of the algebraic identity tying the refined bound with
    the 4 + K*T fallback to the direct pair bound:
    (K/4pi)(4 + K*T1)*T2 == (K/pi)*T2 + (K^2/4pi)*T1*T2."""
    lhs = (K / (4 * math.pi)) * (4.0 + K * T1) * T2
    rhs = (K / math.pi) * T2 + (K * K / (4 * math.pi)) * T1 * T2
    return lhs, rhs
