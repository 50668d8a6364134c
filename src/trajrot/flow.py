"""Trajectory integration.

The matrix-backed kinds (``linear``, ``affine``, ``constant``) follow
the exact flow of ``y' = My + b``, sampled on the grid ``t0 + j h``,
``h = min(max_step, 1 / (2 |M|_inf))``, by a Taylor sum exact to half an
ulp (:func:`_matrix_grid`).  The closed-form kinds (``spiral2d``,
``twist3d``) take adaptive Dormand-Prince 5(4) steps with fixed
coefficients, reproducible bit for bit given the configuration, their
seven stages on Python floats (:func:`_stage_stepper`).  One vectorized
pass afterwards subdivides all steps together, level by level on a
dyadic grid, by the same Taylor sum or by cubic Hermite interpolation,
until (a) each output segment's midpoint lies within the chord
tolerance of its chord and (b) no segment subtends more than
``MAX_SEGMENT_ANGLE`` at any declared observation center -- downstream
rotation quadrature is sampling-limited, so the integrator is where
angular resolution is enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_SEGMENT_ANGLE, Curve, segment_angles
from .errors import NumericalError, SampleBudgetExceeded, StepUnderflow
from .fields import FieldSpec, _point_formula

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
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# the same weights as Python floats for the unrolled stages; _A[6, 1]
# and _E[1] are 0, so k1 is left out of the new point and of the error
((_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43),
 (_A50, _A51, _A52, _A53, _A54), (_A60, _, _A62, _A63, _A64, _A65)) = [
    row[:i] for i, row in enumerate(_A.tolist()) if i]
_E0, _, _E2, _E3, _E4, _E5, _E6 = _E.tolist()

# On the matrix grid |hM|_inf <= 1/2, so the terms (hM)^q h f / (q+1)!,
# q > Q, that a sum to degree Q leaves out of a step are at most sum_{q>Q}
# 2^-q / (q+1)! of |h f|_inf: 4.8e-17 for Q = 13, below eps/2 = 1.1e-16
# with room for the rounding of h and the h_min stretch; 1.4e-15 for 12.
_TAYLOR_DEGREE = 13
_MIN_STEP_FRACTION = 1e-14
_MAX_SPLIT_DEPTH = 24


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for :func:`integrate_trajectory`.

    ``rel_tol`` and ``abs_tol`` act only on the adaptive steps of the
    closed-form kinds.  ``chord_tol`` controls output granularity
    (estimated deviation of the true solution from each output chord);
    ``None`` reuses ``abs_tol``.  Loosen it explicitly when only
    step-level accuracy matters and dense output would be wastefully
    large.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    max_step: float = math.inf
    max_samples: int = 500_000
    chord_tol: float | None = None

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if not self.max_step > 0:  # NaN would never advance t
            raise ValueError("max_step must be positive")
        if self.chord_tol is not None and not self.chord_tol > 0:
            raise ValueError("chord_tol must be positive (or None)")
        if not self.max_samples >= 2:  # NaN would turn the budget off
            raise ValueError("max_samples must be >= 2")


def _budget(n, max_samples):
    if n > max_samples:
        raise SampleBudgetExceeded(f"output exceeds max_samples={max_samples}")


def _check_step(t, h, h_min):
    if h < h_min:
        raise StepUnderflow(
            f"required step {h:.3g} below {h_min:.3g} at t={t:.6g}")
    if t + h == t:  # h is below the float spacing at t
        raise StepUnderflow(f"step {h:.3g} does not advance t={t:.17g}")


def integrate_trajectory(f: FieldSpec, x0, t0: float, t1: float,
                         cfg: IntegratorConfig | None = None,
                         obs_centers=()) -> Curve:
    """Integrate ``dx/dt = v(x)`` from ``x0`` over ``[t0, t1]``.

    The last sample time is ``t1`` exactly: a step that would leave less
    than ``1e-14 * (t1 - t0)`` to go is stretched to ``t1``, so it may
    exceed ``cfg.max_step`` by less than that.

    Raises :class:`StepUnderflow` when a step must fall below
    ``1e-14 * (t1 - t0)`` (stiffness or a singularity on the path, or
    ``|M|_inf (t1 - t0) > 5e13``) or when a step or a sample falls below
    the float spacing of the times (``spiral2d`` over ``[1e15, 1e15 +
    1]``), :class:`NumericalError` when a matrix-backed flow overflows
    and :class:`SampleBudgetExceeded` when the output would exceed
    ``cfg.max_samples``.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    cfg = cfg or IntegratorConfig()
    y = np.asarray(x0, dtype=np.float64).copy()
    if y.ndim != 1 or y.shape[0] != f.dim or not np.all(np.isfinite(y)):
        raise ValueError("x0 must be a finite vector of the field's dimension")
    centers = [np.asarray(c, dtype=np.float64) for c in obs_centers]
    if any(c.shape != (f.dim,) or not np.all(np.isfinite(c)) for c in centers):
        # a NaN center would switch the angle refinement off and a
        # 1-entry one would broadcast as a point on the diagonal
        raise ValueError("obs_centers must be finite vectors of the field's "
                         "dimension")
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else float(cfg.chord_tol)
    h_min = _MIN_STEP_FRACTION * (t1 - t0)
    grid = f.kind in ("linear", "affine", "constant")
    ts, hs, ys, midpoint = (_matrix_grid if grid else _stepped)(
        f, y, t0, t1, h_min, cfg)
    times, points = _dense_output(ts, hs, ys, midpoint, centers, chord_tol,
                                  cfg.max_samples)
    # the last step's right end, t + h, may round off t1
    times[-1] = t1
    # at large |t| a sample can round onto its neighbour
    tied = np.diff(times) <= 0
    if tied.any():
        raise StepUnderflow("samples fall below the float spacing at "
                            f"t={times[np.argmax(tied)]:.17g}")
    return Curve(times, points, closed=False)


def _matrix_grid(f, y, t0, t1, h_min, cfg):
    """The steps, nodes and midpoint function of ``y' = My + b`` from
    ``y``, as :func:`_stepped` returns them.  A point a fraction ``s`` of
    ``h`` past a node ``y`` is ``y + sum_q s^(q+1) w_q / (q+1)!``, ``w_q =
    (hM)^q (hM y + hb)``.  All is in ``hM`` and ``hb``, so ``2^k M``,
    ``2^k b`` over ``2^-k`` times the window gives the same points."""
    dim = f.dim
    m = np.zeros((dim, dim)) if f.matrix is None else f.matrix
    b = np.zeros(dim) if f.offset is None else f.offset
    norm = float(np.max(np.sum(np.abs(m), axis=1)))  # may overflow to inf
    span = t1 - t0
    h = min(cfg.max_step, span, 0.5 / norm if norm else math.inf)
    _check_step(t0, h, h_min)
    # the stepping loop's landing rule: the first n with t1 - (t0 + n h)
    # < h_min, from its estimate
    n = max(1, math.floor((span - h_min) / h) + 1)
    while n > 1 and t1 - (t0 + (n - 1) * h) < h_min:
        n -= 1
    while t1 - (t0 + n * h) >= h_min:
        n += 1
    _budget(n + 1, cfg.max_samples)
    ts = t0 + np.arange(n) * h
    hs = np.full(n, h)
    hs[-1] = t1 - ts[-1]
    # y -> y + P (hM y + hb), P = sum_q (hM)^q / (q+1)! by Horner
    a = h * m
    p = eye = np.eye(dim)
    for q in range(_TAYLOR_DEGREE + 1, 1, -1):
        p = eye + np.dot(a, p) / q
    g, c = np.dot(p, a), np.dot(p, h * b)
    ys = np.empty((n + 1, dim))
    ys[0] = y
    ratio = hs / h  # 1 on every step but the last

    def midpoint(step, theta):
        s = (theta * ratio[step])[:, None]
        acc = w[-1][step]
        for q in range(_TAYLOR_DEGREE - 1, -1, -1):
            acc = w[q][step] + s / (q + 2) * acc
        return ys[step] + s * acc

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            y = ys[j] = y + (np.dot(g, y) + c)
        w = [np.dot(ys[:-1], a.T) + h * b]
        for _ in range(_TAYLOR_DEGREE):
            w.append(np.dot(w[-1], a.T))
        # the last step, of length hs[-1], as a midpoint at theta = 1
        ys[n] = midpoint(np.array([n - 1]), np.ones(1))[0]
    if not np.isfinite(ys).all():
        raise NumericalError(f"the flow overflows on [{t0:.6g}, {t1:.6g}]")
    return ts, hs, ys, midpoint


def _stepped(f, y, t0, t1, h_min, cfg):
    """Adaptive Dormand-Prince steps of a closed-form kind from ``y``: the
    steps, nodes and cubic Hermite midpoints for :func:`_dense_output`."""
    rel_tol, abs_tol, dim = cfg.rel_tol, cfg.abs_tol, f.dim
    max_step, max_samples = cfg.max_step, cfg.max_samples
    y = y.tolist()
    f_new, attempt, accept = _stage_stepper(_point_formula(f), y)
    h = min(max_step, (t1 - t0) / 100.0)
    t = t0
    # accepted step j runs from ts[j] over hs[j], from (ys[j], fs[j]) to
    # (ys[j+1], fs[j+1]); each one emits at least one sample
    ts, hs, ys, fs = [], [], [y], [f_new]
    while t < t1:
        h = min(h, max_step)
        # the last step lands on t1 exactly: t + (t1 - t) can round off
        # it, and a leftover below h_min could not be stepped
        last = t1 - (t + h) < h_min
        if last:
            h = t1 - t
        _check_step(t, h, h_min)
        y_new, errs = attempt(h)
        err2 = 0.0
        for e, a, b in zip(errs, y, y_new):
            q = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
            err2 += q * q  # float ** raises on overflow; * gives inf
        err = math.sqrt(err2 / dim)
        if err <= 1.0:
            _budget(len(ys) + 1, max_samples)
            ts.append(t)
            hs.append(h)
            ys.append(y_new)
            fs.append(accept())
            t, y = t1 if last else t + h, y_new
        if err > 0:
            factor = 0.9 * (err ** -0.2)
        elif err == 0:
            factor = 5.0
        else:  # NaN: the field overflowed on the step, which is rejected
            factor = 0.2
        h *= min(5.0, max(0.2, factor))
    hs, ys, fs = np.array(hs), np.array(ys), np.array(fs)
    return np.array(ts), hs, ys, lambda step, theta: _hermite(
        ys[step], fs[step], ys[step + 1], fs[step + 1], hs[step], theta)


def _stage_stepper(v, y):
    """Dormand-Prince steps by their seven stages, for a field with the
    point formula ``v`` (see :func:`~trajrot.fields._point_formula`),
    from the point ``y``, a list of floats.

    Returns the slope at ``y`` and two functions: ``attempt(h)`` gives
    the fifth-order point and the components of the error ``h (_E . k)``
    as lists of floats; ``accept()`` moves to the last attempted point
    and returns its slope.  Every stage point is ``y + sum_j (h A[i, j])
    k_j`` and every error component ``h (sum_j _E[j] k_j)``, each sum
    taken left to right with plain ``+`` (``sum()`` compensates float
    sums from Python 3.12 on), so the sums round the same way on every
    Python version, with no BLAS kernel to choose whether to fuse a
    multiply and an add.
    """
    k0 = v(*y)
    y_new = k6 = None

    def attempt(h):
        nonlocal y_new, k6
        a0 = h * _A10
        k1 = v(*[p + a0 * d0 for p, d0 in zip(y, k0)])
        a0, a1 = h * _A20, h * _A21
        k2 = v(*[p + a0 * d0 + a1 * d1 for p, d0, d1 in zip(y, k0, k1)])
        a0, a1, a2 = h * _A30, h * _A31, h * _A32
        k3 = v(*[p + a0 * d0 + a1 * d1 + a2 * d2
                 for p, d0, d1, d2 in zip(y, k0, k1, k2)])
        a0, a1, a2, a3 = h * _A40, h * _A41, h * _A42, h * _A43
        k4 = v(*[p + a0 * d0 + a1 * d1 + a2 * d2 + a3 * d3
                 for p, d0, d1, d2, d3 in zip(y, k0, k1, k2, k3)])
        a0, a1, a2, a3, a4 = (h * _A50, h * _A51, h * _A52, h * _A53,
                              h * _A54)
        k5 = v(*[p + a0 * d0 + a1 * d1 + a2 * d2 + a3 * d3 + a4 * d4
                 for p, d0, d1, d2, d3, d4 in zip(y, k0, k1, k2, k3, k4)])
        # the last stage point is the fifth-order solution
        a0, a2, a3, a4, a5 = (h * _A60, h * _A62, h * _A63, h * _A64,
                              h * _A65)
        y_new = [p + a0 * d0 + a2 * d2 + a3 * d3 + a4 * d4 + a5 * d5
                 for p, d0, d2, d3, d4, d5 in zip(y, k0, k2, k3, k4, k5)]
        k6 = v(*y_new)
        return y_new, [
            h * (_E0 * d0 + _E2 * d2 + _E3 * d3 + _E4 * d4 + _E5 * d5
                 + _E6 * d6)
            for d0, d2, d3, d4, d5, d6 in zip(k0, k2, k3, k4, k5, k6)]

    def accept():
        nonlocal y, k0
        y, k0 = y_new, k6
        return k6

    return k0, attempt, accept


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


def _dense_output(ts, hs, ys, midpoint, centers, chord_tol, max_samples):
    """Subdivide every step until the chord and angle criteria hold,
    breadth first: each level halves, at once, all segments that fail a
    criterion, until ``_MAX_SPLIT_DEPTH`` levels.  ``midpoint(step,
    theta)`` is the points at ``theta`` in the steps ``step``.  A segment
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
            ym = midpoint(step, mid)
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
