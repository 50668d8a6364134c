"""Trajectory integration: adaptive embedded Runge-Kutta 5(4).

Fixed Dormand-Prince coefficients so results are reproducible bit for bit
given the configuration.  The stepper records every accepted step; one
vectorized pass afterwards subdivides all steps together, level by level
on a dyadic grid, by cubic Hermite interpolation until (a) the estimated
chord deviation of each output segment is below the chord tolerance and
(b) no segment subtends more than ``MAX_SEGMENT_ANGLE`` at any declared
observation center -- downstream rotation quadrature is
sampling-limited, so the integrator is where angular resolution is
enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_SEGMENT_ANGLE, Curve, segment_angles
from .errors import SampleBudgetExceeded, StepUnderflow
from .fields import FieldSpec, field_evaluator

# Dormand-Prince 5(4) tableau (seven stages, FSAL): row i of _A holds the
# stage-i weights; the last row is also the fifth-order solution, so
# stage 7 is evaluated at the new point.
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0,
     0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_ROWS = [_A[i, :i] for i in range(7)]
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_MIN_STEP_FRACTION = 1e-14
_MAX_SPLIT_DEPTH = 24


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for :func:`integrate_trajectory`.

    ``chord_tol`` controls output granularity (estimated deviation of the
    true solution from each output chord); ``None`` reuses ``abs_tol``.
    Loosen it explicitly when only step-level accuracy matters and dense
    output would be wastefully large.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    max_step: float = math.inf
    max_samples: int = 500_000
    chord_tol: float | None = None

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.max_samples < 2:
            raise ValueError("max_samples must be >= 2")


def _budget(n, max_samples):
    if n > max_samples:
        raise SampleBudgetExceeded(f"output exceeds max_samples={max_samples}")


def integrate_trajectory(f: FieldSpec, x0, t0: float, t1: float,
                         cfg: IntegratorConfig | None = None,
                         obs_centers=()) -> Curve:
    """Integrate ``dx/dt = v(x)`` from ``x0`` over ``[t0, t1]``.

    Raises :class:`StepUnderflow` when the controller is pushed below
    ``1e-14 * (t1 - t0)`` (stiffness or a singularity on the path) and
    :class:`SampleBudgetExceeded` when dense output would exceed
    ``cfg.max_samples``.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    cfg = cfg or IntegratorConfig()
    y = np.asarray(x0, dtype=np.float64).copy()
    if y.ndim != 1 or y.shape[0] != f.dim:
        raise ValueError("x0 must be a vector matching the field dimension")
    centers = [np.asarray(c, dtype=np.float64) for c in obs_centers]
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else float(cfg.chord_tol)
    rel_tol, abs_tol, dim = cfg.rel_tol, cfg.abs_tol, f.dim
    v = field_evaluator(f)

    span = t1 - t0
    h_min = _MIN_STEP_FRACTION * span
    h = min(cfg.max_step, span / 100.0)
    t = t0
    k = np.empty((7, dim))
    k_rows = [k[:i] for i in range(7)]
    k[0] = v(y)

    # accepted step j runs from ts[j] over hs[j], from (ys[j], fs[j]) to
    # (ys[j+1], fs[j+1]); each one emits at least one sample
    ts, hs, ys, fs = [], [], [y], [k[0].copy()]
    while t < t1:
        h = min(h, cfg.max_step, t1 - t)
        if h < h_min:
            raise StepUnderflow(
                f"required step {h:.3g} below {h_min:.3g} at t={t:.6g}")
        for i in range(1, 7):
            # the last stage point is the fifth-order solution
            y_new = y + h * np.dot(_ROWS[i], k_rows[i])
            k[i] = v(y_new)
        err2 = 0.0
        for e, a, b in zip(np.dot(_E, k).tolist(), y.tolist(), y_new.tolist()):
            q = h * e / (abs_tol + rel_tol * max(abs(a), abs(b)))
            err2 += q * q  # float ** raises on overflow; * gives inf
        err = math.sqrt(err2 / dim)
        if err <= 1.0:
            _budget(len(ys) + 1, cfg.max_samples)
            ts.append(t)
            hs.append(h)
            ys.append(y_new)
            fs.append(k[6].copy())
            t, y = t + h, y_new
            k[0] = k[6]
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    times, points = _dense_output(np.array(ts), np.array(hs), np.array(ys),
                                  np.array(fs), centers, chord_tol,
                                  cfg.max_samples)
    return Curve(times, points, closed=False)


def _hermite(y0, f0, y1, f1, h, theta):
    """Cubic Hermite interpolant on accepted steps, row-wise: ``y0``..``f1``
    are (n, dim), ``h`` and ``theta`` in [0, 1] are (n,)."""
    t2 = theta * theta
    h00 = 2 * t2 * theta - 3 * t2 + 1
    h10 = t2 * theta - 2 * t2 + theta
    h01 = -2 * t2 * theta + 3 * t2
    h11 = t2 * theta - t2
    return (h00[:, None] * y0 + (h10 * h)[:, None] * f0 + h01[:, None] * y1
            + (h11 * h)[:, None] * f1)


def _dense_output(ts, hs, ys, fs, centers, chord_tol, max_samples):
    """Subdivide every accepted step until the chord and angle criteria
    hold, breadth first: each level halves, at once, all segments that
    fail a criterion, until ``_MAX_SPLIT_DEPTH`` levels.  A segment
    emits its right endpoint; samples come back in time order."""
    n = len(hs)
    # one row per pending segment: its step, the right end of its theta
    # range (of width 2**-depth) and its endpoints
    step, hi = np.arange(n), np.ones(n)
    ya, yb = ys[:-1], ys[1:]
    done_step, done_hi, done_y = [], [], []
    n_out = 1
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        split = np.zeros(len(step), dtype=bool)
        if depth < _MAX_SPLIT_DEPTH:
            mid = hi - 0.5 ** (depth + 1)
            ym = _hermite(ys[step], fs[step], ys[step + 1], fs[step + 1],
                          hs[step], mid)
            d = ym - 0.5 * (ya + yb)
            split |= np.sqrt(np.einsum("ij,ij->i", d, d)) > chord_tol
            # an endpoint exactly on a center has no direction (NaN angle)
            # and does not force a split
            with np.errstate(invalid="ignore", divide="ignore"):
                for c in centers:
                    split |= segment_angles(ya, yb, c) > MAX_SEGMENT_ANGLE
        keep = ~split
        done_step.append(step[keep])
        done_hi.append(hi[keep])
        done_y.append(yb[keep])
        n_split = int(np.count_nonzero(split))
        n_out += len(step) - n_split
        # each pending half emits at least its right endpoint
        _budget(n_out + 2 * n_split, max_samples)
        if not n_split:
            break
        # left halves, then right halves
        step = np.concatenate([step[split], step[split]])
        hi = np.concatenate([mid[split], hi[split]])
        ya, yb = (np.concatenate([ya[split], ym[split]]),
                  np.concatenate([ym[split], yb[split]]))
    step = np.concatenate(done_step)
    hi = np.concatenate(done_hi)
    # theta has at most 24 fractional bits and lies in (0, 1], so
    # step + theta is exact and orders the samples in time
    order = np.argsort(step + hi)
    times = np.concatenate([ts[:1], (ts[step] + hi * hs[step])[order]])
    points = np.concatenate([ys[:1], np.concatenate(done_y)[order]])
    return times, points
