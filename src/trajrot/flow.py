"""Trajectory integration.

Every field kind has a closed-form flow, so no step is adaptive.  The
matrix-backed kinds (``linear``, ``affine``, ``constant``) follow the
flow of ``y' = My + b`` on the grid ``t0 + j h``, ``h = min(max_step,
1 / (2 |M|_inf))``, by propagators ``y -> y + (G y + c)``: the step's is
a Taylor sum exact to half an ulp, each node comes from ``k`` steps back
by its doubling to ``k`` steps (the full ``y -> F y + c`` past ``k h
|M|_inf = 1``, capped where it stops being finite), and each level of
midpoints from its segments' left ends by one sub-step Taylor
propagator (:func:`_matrix_grid`).  ``spiral2d`` and ``twist3d``
evaluate their flows' formulas at the nodes of the grid ``h =
min(max_step, (t1 - t0) / 100)`` (:func:`_closed_form_grid`).  One
vectorized pass afterwards subdivides all steps together, level by level
on a dyadic grid, each new sample on the same flow, until (a) each output
segment's midpoint lies within the chord tolerance of its chord and (b)
no segment subtends more than ``MAX_SEGMENT_ANGLE`` at any declared
observation center, which keeps the polyline close to the curve for the
decimation estimate of the rotation's error there (the polyline's own
blow-up length is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_SEGMENT_ANGLE, Curve, segment_angles
from .errors import NumericalError, SampleBudgetExceeded, StepUnderflow
from .fields import TWIST_SMALL_X1, FieldSpec, twist_profile

# A matrix propagator spans at most one step of the grid, where |hM|_inf
# <= 1/2, so the terms (sM)^q s f / (q+1)!, q > Q, that a sum to degree Q
# leaves out of a length s <= h are at most sum_{q>Q} 2^-q / (q+1)! of
# |s f|_inf: 4.8e-17 for Q = 13, below eps/2 = 1.1e-16 with room for the
# rounding of h and the h_min stretch; 1.4e-15 for 12.
_TAYLOR_DEGREE = 13
_MIN_STEP_FRACTION = 1e-14
_MAX_SPLIT_DEPTH = 24
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class IntegratorConfig:
    """Output resolution and budgets for :func:`integrate_trajectory`.

    ``chord_tol`` bounds how far each output chord's midpoint lies from
    the flow's point halfway along it; ``None`` reuses ``abs_tol``.
    ``max_step`` caps the grid's steps and ``max_samples`` the output.
    Every kind follows its exact flow, so ``rel_tol`` acts on nothing and
    ``abs_tol`` only as the default ``chord_tol``; both are still
    validated.
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
    ``1e-14 * (t1 - t0)`` (``|M|_inf (t1 - t0) > 5e13``, or a tiny
    ``max_step``) or when a step or a sample falls below the float
    spacing of the times (``spiral2d`` over ``[1e15, 1e15 + 1]``),
    :class:`NumericalError` when the flow blows up or overflows on the
    window (a ``spiral2d`` start outside the unit circle, ``e^1000``)
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
    ts, hs, ys, midpoint = (_matrix_grid if grid else _closed_form_grid)(
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


def _grid(t0, t1, h, h_min, max_samples):
    """The start times and lengths of steps ``h`` from ``t0`` to ``t1``.
    Their count is the first ``n`` with ``t1 - (t0 + n h) < h_min``, found
    from its estimate, and the last step takes what is left to ``t1``."""
    _check_step(t0, h, h_min)
    n = max(1, math.floor((t1 - t0 - h_min) / h) + 1)
    while n > 1 and t1 - (t0 + (n - 1) * h) < h_min:
        n -= 1
    while t1 - (t0 + n * h) >= h_min:
        n += 1
    _budget(n + 1, max_samples)
    ts = t0 + np.arange(n) * h
    hs = np.full(n, h)
    hs[-1] = t1 - ts[-1]
    return ts, hs


def _advance(rows, g, c, full):
    """``G y + c`` for each row ``y`` if ``full``, else ``y + (G y + c)``.
    ``G y`` is summed column by column, so every row rounds alike whatever
    rows stand beside it (a BLAS product's rows need not)."""
    gy = rows[:, :1] * g[:, 0]
    for k in range(1, rows.shape[1]):
        gy += rows[:, k:k + 1] * g[:, k]
    return gy + c if full else rows + (gy + c)


def _matrix_grid(f, y, t0, t1, h_min, cfg):
    """The steps, nodes and midpoint function of ``y' = My + b`` from
    ``y``, for :func:`_dense_output`.  The flow over a length ``s`` is
    the propagator ``y -> y + (G y + c)``, ``(G, c) = (P sM, P sb)``, ``P
    = sum_q (sM)^q / (q+1)!`` to ``_TAYLOR_DEGREE``.  The nodes come by
    doubling, and each round fills ``k`` rows from the ``k`` before them.
    While ``2k h |M|_inf <= 1`` the propagator over ``2k`` steps is ``(2G
    + G^2, 2c + Gc)`` from the one over ``k``, in increment form, which
    keeps the low bits of a small ``G``.  Past that it is ``(F^2, Fc +
    c)``, ``F = I + G``, the full propagator ``y -> F y + c``: on a
    decaying flow ``G`` tends to ``-I`` and ``y + G y`` would cancel,
    while ``F y`` stays accurate relative to the node's own size.  A
    doubling that is not finite (a fast-growing mode the start lacks) or
    whose ``F`` has no normal entry is not taken, and the rows go on in
    blocks of the last ``k``.  The last node is the last step's
    propagator from the one before.  A midpoint of a segment spanning ``2
    half`` of a step is its left end advanced by ``half`` of the step, one
    propagator per level.  All is in ``sM`` and ``sb``, so ``2^k M``,
    ``2^k b`` over ``2^-k`` times the window gives the same points."""
    dim = f.dim
    m = np.zeros((dim, dim)) if f.matrix is None else f.matrix
    b = np.zeros(dim) if f.offset is None else f.offset
    norm = float(np.max(np.sum(np.abs(m), axis=1)))  # may overflow to inf
    h = min(cfg.max_step, t1 - t0, 0.5 / norm if norm else math.inf)
    ts, hs = _grid(t0, t1, h, h_min, cfg.max_samples)
    n = len(hs)
    eye = np.eye(dim)

    def propagator(length):
        # P (sM), P sb with P = I + sM/2 (I + sM/3 (...)) by Horner
        a = length * m
        p = eye
        for q in range(_TAYLOR_DEGREE + 1, 1, -1):
            p = eye + np.dot(a, p) / q
        return np.dot(p, a), np.dot(p, length * b)

    def midpoint(step, theta, ya, half):
        ym = _advance(ya, *propagator(half * h), False)
        last = step == n - 1
        if hs[-1] != h and last.any():
            ym[last] = _advance(ya[last], *propagator(half * hs[-1]), False)
        return ym

    ys = np.empty((n + 1, dim))
    ys[0] = y
    g, c = propagator(h)
    full = False  # whether g is G or the full propagator F = I + G
    j = k = 1  # rows [0, j) are filled; (g, c) spans k steps
    with np.errstate(over="ignore", invalid="ignore"):
        while j < n:
            if j == 2 * k:
                wide = j * h * norm > 1
                if wide:
                    p = g if full else g + eye
                    g2, c2 = np.dot(p, p), np.dot(p, c) + c
                else:
                    g2, c2 = 2 * g + np.dot(g, g), 2 * c + np.dot(g, c)
                # with a normal largest entry, F's subnormal entries round
                # by less than eps/2 of it
                if (np.isfinite(g2).all() and np.isfinite(c2).all() and not (
                        wide and np.abs(g2).max() < _SMALLEST_NORMAL)):
                    g, c, k, full = g2, c2, j, wide
            r = min(k, n - j)
            ys[j:j + r] = _advance(ys[j - k:j - k + r], g, c, full)
            j += r
        ys[n] = _advance(ys[n - 1:n], *propagator(hs[-1]), False)[0]
    if not np.isfinite(ys).all():
        raise NumericalError(f"the flow overflows on [{t0:.6g}, {t1:.6g}]")
    return ts, hs, ys, midpoint


def _closed_form_grid(f, y, t0, t1, h_min, cfg):
    """The steps, nodes and midpoint function of ``spiral2d`` or
    ``twist3d`` from ``y``, for :func:`_dense_output`: steps of
    ``min(max_step, (t1 - t0) / 100)``, and every point the flow's
    formula at its elapsed time ``s = ts[step] - t0 + theta hs[step]``."""
    flow = (_spiral_flow(y, t0, t1) if f.kind == "spiral2d"
            else _twist_flow(y))
    ts, hs = _grid(t0, t1, min(cfg.max_step, (t1 - t0) / 100.0), h_min,
                   cfg.max_samples)

    def midpoint(step, theta, ya, half):
        # each point comes from the formula, not from its left end ya
        return flow(ts[step] - t0 + theta * hs[step])

    ys = np.concatenate([y[None], flow(ts - t0 + hs)])
    if not np.isfinite(ys).all():
        raise NumericalError(f"the flow overflows on [{t0:.6g}, {t1:.6g}]")
    return ts, hs, ys, midpoint


def _spiral_flow(y, t0, t1):
    """The spiral's flow from ``y`` as a function of the elapsed times
    ``s``.  It turns at unit angular speed, and ``r' = (r^2 - 1) r`` gives
    ``r(s) / r0 = 1 / sqrt(1 + c expm1(2s))``, ``c = 1 - r0^2``, which
    holds at ``r0 = 0`` too.  For ``r0 > 1`` the radius blows up at ``s* =
    log1p(-1/c) / 2``; a window that reaches it raises
    :class:`NumericalError`."""
    a, b = float(y[0]), float(y[1])
    c = 1.0 - (a * a + b * b)
    if c < 0:
        s_star = 0.5 * math.log1p(-1.0 / c)
        if t1 - t0 >= s_star:
            raise NumericalError(
                f"the spiral from |x0| = {math.hypot(a, b):.6g} blows up "
                f"{s_star:.6g} after t0, inside [{t0:.6g}, {t1:.6g}]")

    def at(s):
        ratio = 1.0  # c = 0, the unit circle, where 0 * inf would be NaN
        if c:
            # for c > 0, expm1(2s) = inf past s = 354 sends the point to
            # 0; for c < 0, a node that rounds onto s* is not finite
            with np.errstate(all="ignore"):
                ratio = 1.0 / np.sqrt(1.0 + c * np.expm1(2.0 * s))
        cos, sin = np.cos(s), np.sin(s)
        return np.stack([ratio * (a * cos - b * sin),
                         ratio * (a * sin + b * cos)], axis=1)

    return at


def _twist_flow(y):
    """The twist's flow from ``y`` as a function of the elapsed times
    ``s``: ``x1`` grows at unit speed and ``(x2, x3)`` moves by ``w(x1) -
    w(x1(0))``, ``w`` the profile :func:`~trajrot.fields.twist_profile`.
    Below ``TWIST_SMALL_X1`` the profile's amplitude ``exp(-1/x1^2)`` is
    0 in any float format, and ``1/x1`` could overflow, so ``x1`` is
    taken as 0 there."""
    def profile(x1):
        return np.stack(twist_profile(np.where(x1 > TWIST_SMALL_X1, x1, 0.0)),
                        axis=-1)

    x1, rest = float(y[0]), y[1:]
    w0 = profile(np.float64(x1))

    def at(s):
        x = x1 + s
        return np.concatenate([x[:, None], rest + (profile(x) - w0)], axis=1)

    return at


def _dense_output(ts, hs, ys, midpoint, centers, chord_tol, max_samples):
    """Subdivide every step until the chord and angle criteria hold,
    breadth first: each level halves, at once, all segments that fail a
    criterion, until ``_MAX_SPLIT_DEPTH`` levels.  ``midpoint(step,
    theta, ya, half)`` is the points at ``theta`` in the steps ``step``,
    the middles of segments that start at ``ya`` and span ``2 half`` of
    their steps: at depth ``d``, ``half = 2^-(d+1)`` for every segment, so
    a matrix flow advances all left ends by one propagator.  A segment
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
            half = 0.5 ** (depth + 1)
            mid = hi - half
            ym = midpoint(step, mid, ya, half)
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
