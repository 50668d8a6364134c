import contextlib
import math

import numpy as np
import pytest

import trajrot as tr
from trajrot import gausslink
from trajrot.curves import segment_lengths

# Reference sink: eigenvalues -1 (along x1) and -1 +- 2i (rotating the
# x2/x3 plane at rate 2).  Operator norm sqrt(5).
SINK_MATRIX = np.array([[-1.0, 0.0, 0.0],
                        [0.0, -1.0, -2.0],
                        [0.0, 2.0, -1.0]])
SINK_ALPHA = -1.0
SINK_BETA = 2.0


def sink_closed_form(x0, t):
    """Exact solution of dx/dt = SINK_MATRIX x."""
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    ea = np.exp(SINK_ALPHA * t)
    cb, sb = np.cos(SINK_BETA * t), np.sin(SINK_BETA * t)
    x1 = x0[0] * np.exp(-t)
    x2 = ea * (cb * x0[1] - sb * x0[2])
    x3 = ea * (sb * x0[1] + cb * x0[2])
    return np.stack([x1, x2, x3], axis=-1)


def circle3d(n=801, radius=1.0, center=(0.0, 0.0, 0.0), plane="xy",
             phase=0.0, turns=1.0):
    th = np.linspace(0.0, 2 * math.pi * turns, n) + phase
    t = np.linspace(0.0, 1.0, n)
    z = np.zeros_like(th)
    basis = {
        "xy": (np.stack([np.cos(th), np.sin(th), z], axis=1)),
        "xz": (np.stack([np.cos(th), z, np.sin(th)], axis=1)),
    }[plane]
    return tr.Curve(t, np.asarray(center) + radius * basis)


def circle2d(n=1001, radius=1.0, center=(0.0, 0.0), turns=1.0, phase=0.0):
    th = np.linspace(0.0, 2 * math.pi * turns, n) + phase
    t = np.linspace(0.0, abs(turns), n)
    pts = np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    return tr.Curve(t, pts)


def helix_curve(turns=3.0, pitch=0.15, n=1200):
    t = np.linspace(0.0, 2 * math.pi * turns, n)
    return tr.Curve(t, np.stack([np.cos(t), np.sin(t), pitch * t], axis=1))


Z_AXIS = tr.AffineSubspace(np.zeros(3), [np.array([0.0, 0.0, 1.0])])
X_AXIS = tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])


def axis_segment(line, M):
    """The piece ``|s| <= M`` of a straight line as a 2-vertex curve."""
    return tr.Curve([-M, M], line.base_point + np.outer([-M, M], line.basis[0]))


def ray_shortfall(c, line, M):
    """Bound, in turns, on the Gauss integral of ``c`` against the two rays
    ``|s| > M`` of ``line``: what ``axis_segment(line, M)`` misses.

    A ray starting at height M takes, from a point at distance rho and
    height h, the share ``(1 - u / sqrt(1 + u^2)) / 2`` of the whole
    line's ``dtheta / 2pi``, with ``u = (M - h) / rho``.  The share falls
    with u, and u >= (M - max|h|) / max rho along every segment.
    """
    rel = c.x - line.base_point
    h = rel @ line.basis[0]
    rho = np.linalg.norm(rel - np.outer(h, line.basis[0]), axis=1)
    u = (M - np.max(np.abs(h))) / np.max(rho)
    w = math.hypot(1.0, u)
    spin = tr.rotation_around_subspace(c, line, "absolute")
    return (spin.value + spin.error_estimate) / (2 * math.pi) / (w * (w + u))


# ---------------------------------------------------------------------------
# curve and field operations that only the tests need


def concat(c1, c2):
    """Join two curves that share the junction sample (time and point)."""
    if c1.dim != c2.dim:
        raise tr.DimensionMismatch("cannot concatenate curves of different dimension")
    if abs(c1.t[-1] - c2.t[0]) > 0:
        raise ValueError("curves must share the junction time")
    if np.any(c1.x[-1] != c2.x[0]):
        raise ValueError("curves must share the junction point")
    t = np.concatenate([c1.t, c2.t[1:]])
    x = np.concatenate([c1.x, c2.x[1:]], axis=0)
    return tr.Curve(t, x, closed=None)


def translate(c, offset):
    return tr.Curve(c.t, c.x + np.asarray(offset), closed=c.closed)


def transform(c, matrix, offset=None):
    """Apply ``x -> matrix @ x + offset`` to every sample."""
    m = np.asarray(matrix, dtype=np.float64)
    y = c.x @ m.T
    if offset is not None:
        y = y + np.asarray(offset)
    return tr.Curve(c.t, y, closed=None)


def resample(c, n):
    """Arc-length-uniform resampling by linear interpolation, n >= 2.

    The result is a monotone reparametrization of the polyline, so all
    rotation quantities change by at most the quadrature error estimates.
    Points are interpolated in the curve's own dtype, so longdouble
    coordinates below the float64 range survive.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    seg = segment_lengths(c).astype(np.float64, copy=False)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0:
        raise ValueError("cannot arc-length resample a zero-length curve")
    targets = np.linspace(0.0, total, n)
    ts = np.interp(targets, s, c.t)
    i = np.minimum(np.searchsorted(s, targets, side="right") - 1, len(seg) - 1)
    ds = s[i + 1] - s[i]
    w = np.divide(targets - s[i], ds, out=np.zeros(n), where=ds > 0)
    xs = c.x[i] + w.astype(c.x.dtype)[:, None] * (c.x[i + 1] - c.x[i])
    # duplicate interior points (zero-length segments) can produce tied
    # times; nudge them apart monotonically
    for i in range(1, n):
        if ts[i] <= ts[i - 1]:
            ts[i] = np.nextafter(ts[i - 1], np.inf)
    xs[0] = c.x[0]
    xs[-1] = c.x[-1]
    return tr.Curve(ts, xs, closed=c.closed)


def negated(f):
    """-v for the matrix-backed kinds (used by time-reversal checks)."""
    if f.kind == "linear":
        return tr.linear(-f.matrix)
    if f.kind == "constant":
        return tr.constant(-f.offset)
    if f.kind == "affine":
        return tr.affine(-f.matrix, -f.offset)
    raise ValueError(f"cannot negate field kind {f.kind!r}")


def pair_bound_fallback_identity(K, T1, T2):
    """Both sides of the algebraic identity tying the refined bound with
    the 4 + K*T fallback to the direct pair bound:
    (K/4pi)(4 + K*T1)*T2 == (K/pi)*T2 + (K^2/4pi)*T1*T2."""
    lhs = (K / (4 * math.pi)) * (4.0 + K * T1) * T2
    rhs = (K / math.pi) * T2 + (K * K / (4 * math.pi)) * T1 * T2
    return lhs, rhs


def random_rotation(rng, n=3):
    """Haar rotation restricted to SO(n): signed quantities flip under
    reflections, so rigid-motion tests must stay orientation-preserving."""
    from trajrot.crofton import haar_orthogonal

    q = haar_orthogonal(rng, n)[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def sink_pair():
    f = tr.linear(SINK_MATRIX)
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.01,
                              chord_tol=1e-5)
    t1 = tr.integrate_trajectory(f, np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)
    t2 = tr.integrate_trajectory(f, np.array([1.0, -1.0, 0.0]), 0.0, 3.0, cfg)
    return f, t1, t2


@pytest.fixture(scope="session")
def spiral_traj():
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    return tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                   0.0, 10.0, cfg, obs_centers=[np.zeros(2)])


@pytest.fixture(scope="session")
def twist_pair():
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, chord_tol=1e-6)
    f = tr.twist3d()
    w1 = tr.integrate_trajectory(f, np.array([0.05, 0.5, 0.0]), 0.0, 0.15, cfg)
    w2 = tr.integrate_trajectory(f, np.array([0.05, 0.0, 0.7]), 0.0, 0.15, cfg)
    return w1, w2


@contextlib.contextmanager
def kernel_passes():
    """Record every pass of the Gauss pair kernel made inside the block:
    one list per pass, of (value, roundoff) per cut."""
    passes = []
    kernel = gausslink._pair_solid_angles

    def recording(*args):
        passes.append(kernel(*args))
        return passes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gausslink, "_pair_solid_angles", recording)
        yield passes
