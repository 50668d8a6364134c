"""Trajectory integration: adaptive embedded Runge-Kutta 5(4).

Fixed Dormand-Prince coefficients so results are reproducible bit for bit
given the configuration.  A step takes one of two forms, chosen by the
field's kind:

* the matrix-backed kinds (``linear``, ``affine``, ``constant``) step
  ``y' = My + b`` as the method's polynomial in ``hM`` applied to the
  slope ``f(y)``: one product per attempt and one field evaluation per
  accepted step (:func:`_matrix_stepper`);
* the closed-form kinds (``spiral2d``, ``twist3d``) run the seven stages
  on Python floats, each stage point ``y + sum_j (h A[i, j]) k_j``
  summed left to right with plain ``+`` (:func:`_stage_stepper`).

Both are the same method with the same controller, initial step, landing
on ``t1`` and error norm; they differ only in rounding.  The stepper
records every accepted step; one vectorized pass afterwards subdivides
all steps together, level by level on a dyadic grid, by cubic Hermite
interpolation until (a) the estimated chord deviation of each output
segment is below the chord tolerance and (b) no segment subtends more
than ``MAX_SEGMENT_ANGLE`` at any declared observation center --
downstream rotation quadrature is sampling-limited, so the integrator is
where angular resolution is enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_SEGMENT_ANGLE, Curve, segment_angles
from .errors import SampleBudgetExceeded, StepUnderflow
from .fields import FieldSpec, _point_formula, field_evaluator

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
# For y' = My + b every stage is a polynomial in hM applied to f(y), so a
# step is one too (the tableau's stability polynomial): row 0 gives
# y_new - y and row 1 the error h * (_E . k) as the coefficients of
# h^(q+1) M^q f(y), q = 0..6, exact rationals derived from _A and _E.
_POLY = np.array([
    [1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0],
    [0.0, 0.0, 0.0, 0.0, -97 / 120000, 13 / 40000, -1 / 24000],
])

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
        if not self.max_step > 0:  # NaN would never advance t
            raise ValueError("max_step must be positive")
        if self.chord_tol is not None and not self.chord_tol > 0:
            raise ValueError("chord_tol must be positive (or None)")
        if not self.max_samples >= 2:  # NaN would turn the budget off
            raise ValueError("max_samples must be >= 2")


def _budget(n, max_samples):
    if n > max_samples:
        raise SampleBudgetExceeded(f"output exceeds max_samples={max_samples}")


def integrate_trajectory(f: FieldSpec, x0, t0: float, t1: float,
                         cfg: IntegratorConfig | None = None,
                         obs_centers=()) -> Curve:
    """Integrate ``dx/dt = v(x)`` from ``x0`` over ``[t0, t1]``.

    The last sample time is ``t1`` exactly: a step that would leave less
    than ``1e-14 * (t1 - t0)`` to go is stretched to ``t1``, so it may
    exceed ``cfg.max_step`` by less than that.

    Raises :class:`StepUnderflow` when the controller is pushed below
    ``1e-14 * (t1 - t0)`` (stiffness or a singularity on the path) or
    when a step or a dense-output sample falls below the float spacing
    of the times (a window far from 0, such as ``[1e15, 1e15 + 1]``), and
    :class:`SampleBudgetExceeded` when dense output would exceed
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
    rel_tol, abs_tol, dim = cfg.rel_tol, cfg.abs_tol, f.dim
    max_step, max_samples = cfg.max_step, cfg.max_samples

    if f.kind in ("linear", "affine", "constant"):
        f_new, attempt, accept = _matrix_stepper(f, field_evaluator(f), y)
    else:
        f_new, attempt, accept = _stage_stepper(_point_formula(f), y.tolist())
    y = y.tolist()

    span = t1 - t0
    h_min = _MIN_STEP_FRACTION * span
    h = min(max_step, span / 100.0)
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
        if h < h_min:
            raise StepUnderflow(
                f"required step {h:.3g} below {h_min:.3g} at t={t:.6g}")
        if t + h == t:  # h is below the float spacing at t
            raise StepUnderflow(f"step {h:.3g} does not advance t={t:.17g}")
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
    times, points = _dense_output(np.array(ts), np.array(hs), np.array(ys),
                                  np.array(fs), centers, chord_tol,
                                  max_samples)
    # the last step's right end, t + h, may round off t1
    times[-1] = t1
    # at large |t| a dense-output sample can round onto its neighbour
    tied = np.diff(times) <= 0
    if tied.any():
        raise StepUnderflow("dense output falls below the float spacing at "
                            f"t={times[np.argmax(tied)]:.17g}")
    return Curve(times, points, closed=False)


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


def _matrix_stepper(f, v, y):
    """Dormand-Prince steps of ``y' = My + b`` as one polynomial in
    ``hM``, for the matrix-backed kinds (``M = 0`` for ``constant``);
    the same functions as :func:`_stage_stepper`.

    Every stage is a polynomial in ``hM`` applied to ``f(y)``, so the
    increment ``y_new - y`` and the error ``h (_E . k)`` are
    ``sum_q _POLY[r, q] h^(q+1) M^q f(y)``.  With ``s`` a power of two
    and ``N = M / s``, that is ``sum_q h (hs)^q (_POLY[r, q] N^q f(y))``:
    each accepted step stores the bracket for q = 0..6 and both rows by
    one product of ``f(y_new)`` with the stacked ``_POLY[r, q] N^q``, and
    each attempt is one product of the powers ``h (hs)^q`` with that
    ``(7, 2 dim)`` block.  Scaling by a power of two is exact, so ``s``
    changes no bit; it keeps the powers of ``N`` and of ``hs`` inside
    the float range.  ``s`` is the largest power of two not above
    ``max |M_ij|``, so ``|N_ij| < 2``, and ``hs`` is of order 1 on an
    accepted step.  Scaling ``M`` by ``2^k`` and the window by ``2^-k``
    therefore gives the same points bit for bit.
    """
    dim = f.dim
    m = np.zeros((dim, dim)) if f.matrix is None else f.matrix
    big = float(np.max(np.abs(m)))
    s = math.ldexp(1.0, math.frexp(big)[1] - 1) if big > 0 else 1.0
    n = m / s
    powers = [np.eye(dim)]
    for _ in range(6):
        powers.append(np.dot(n, powers[-1]))
    # row (q, r, i) is _POLY[r, q] N^q[i], so k[q] = [inc_q | err_q]
    stacked = (_POLY.T[:, :, None, None]
               * np.array(powers)[:, None]).reshape(-1, dim)
    k = np.empty((7, 2 * dim))
    k_flat = k.reshape(-1)

    y_new = y

    def attempt(h):
        nonlocal y_new
        g = h * s
        h1 = h * g
        h2 = h1 * g
        h3 = h2 * g
        h4 = h3 * g
        h5 = h4 * g
        d = np.dot(np.array((h, h1, h2, h3, h4, h5, h5 * g)), k)
        y_new = y + d[:dim]
        return y_new.tolist(), d[dim:].tolist()

    def accept():
        nonlocal y
        y = y_new
        f_new = v(y)
        np.dot(stacked, f_new, out=k_flat)
        return f_new

    return accept(), attempt, accept


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
