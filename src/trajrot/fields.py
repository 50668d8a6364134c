"""Vector field catalog and Lipschitz constant estimation.

The catalog covers two hand-built fields with interesting rotation
behavior plus arbitrary constant/linear/affine fields:

* ``spiral2d`` -- planar field with a stationary point at the origin whose
  interior trajectories spiral into it at unit angular speed:
  ``v(x, y) = ((x^2+y^2-1)x - y, (x^2+y^2-1)y + x)``.
* ``twist3d`` -- smooth field ``v = (1, w1'(x1), w2'(x1))`` built from the
  flat profiles ``w1 = exp(-1/x1^2) cos(1/x1)``, ``w2 = exp(-1/x1^2)
  sin(1/x1)`` (identity branch ``(1, 0, 0)`` for ``x1 <= 0``).  Its
  trajectories cross the planes ``x1 = c`` at unit speed while the
  trajectory through the x1-axis profile winds around that axis without
  bound as ``x1 -> 0+``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import DimensionMismatch

# Below this x1 the twist profile amplitude exp(-1/x1^2) < 1e-300000...,
# i.e. far beyond any float underflow; the field is numerically (1, 0, 0).
TWIST_SMALL_X1 = 1e-3

_KINDS = ("spiral2d", "twist3d", "linear", "constant", "affine")


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class FieldSpec:
    """An evaluatable vector field.

    ``matrix``/``offset`` are only populated for the linear/affine/constant
    kinds; the two catalog fields are closed-form.
    """

    dim: int
    kind: str
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.shape != (self.dim, self.dim):
                raise ValueError("matrix shape must be (dim, dim)")
            object.__setattr__(self, "matrix", m)
        if self.offset is not None:
            o = np.asarray(self.offset, dtype=np.float64)
            if o.shape != (self.dim,):
                raise ValueError("offset shape must be (dim,)")
            object.__setattr__(self, "offset", o)


def spiral2d() -> FieldSpec:
    return FieldSpec(2, "spiral2d")


def twist3d() -> FieldSpec:
    return FieldSpec(3, "twist3d")


def linear(matrix) -> FieldSpec:
    m = np.asarray(matrix, dtype=np.float64)
    return FieldSpec(m.shape[0], "linear", matrix=m)


def constant(vector) -> FieldSpec:
    v = np.asarray(vector, dtype=np.float64)
    return FieldSpec(v.shape[0], "constant", offset=v)


def affine(matrix, vector) -> FieldSpec:
    m = np.asarray(matrix, dtype=np.float64)
    v = np.asarray(vector, dtype=np.float64)
    return FieldSpec(m.shape[0], "affine", matrix=m, offset=v)


def negated(f: FieldSpec) -> FieldSpec:
    """-v for the matrix-backed kinds (used by time-reversal checks)."""
    if f.kind == "linear":
        return linear(-f.matrix)
    if f.kind == "constant":
        return constant(-f.offset)
    if f.kind == "affine":
        return affine(-f.matrix, -f.offset)
    raise ValueError(f"cannot negate field kind {f.kind!r}")


def parse_field_spec(text: str) -> FieldSpec:
    """Parse the CLI mini-language.

    ``spiral2d`` | ``twist3d`` | ``linear:a11,a12,...`` (row-major) |
    ``constant:v1,...`` | ``affine:a11,...,ann,b1,...,bn``.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "spiral2d":
        return spiral2d()
    if name == "twist3d":
        return twist3d()
    if name in ("linear", "constant", "affine"):
        if not rest:
            raise ValueError(f"field kind {name!r} needs numeric entries")
        vals = np.array([float(v) for v in rest.split(",")])
        if name == "constant":
            return constant(vals)
        if name == "linear":
            n = int(round(len(vals) ** 0.5))
            if n * n != len(vals):
                raise ValueError("linear field needs n^2 row-major entries")
            return linear(vals.reshape(n, n))
        # affine: n^2 + n entries
        n = int(round((-1 + (1 + 4 * len(vals)) ** 0.5) / 2))
        if n * n + n != len(vals):
            raise ValueError("affine field needs n^2 + n entries")
        return affine(vals[: n * n].reshape(n, n), vals[n * n:])
    raise ValueError(f"unknown field kind {name!r}")


# ---------------------------------------------------------------------------
# evaluation


def _twist_profile_derivatives(x1):
    """(w1', w2') for x1 > TWIST_SMALL_X1, vectorized."""
    inv = 1.0 / x1
    inv2 = inv * inv
    amp = np.exp(-inv2)
    c, s = np.cos(inv), np.sin(inv)
    two_inv3 = 2.0 * inv2 * inv
    d1 = amp * (two_inv3 * c + inv2 * s)
    d2 = amp * (two_inv3 * s - inv2 * c)
    return d1, d2


def _spiral2d_values(p):
    x, y = p[..., 0], p[..., 1]
    r2m1 = x * x + y * y - 1.0
    out = np.empty_like(p)
    out[..., 0] = r2m1 * x - y
    out[..., 1] = r2m1 * y + x
    return out


def _twist3d_values(p):
    x1 = p[..., 0]
    out = np.zeros_like(p)
    out[..., 0] = 1.0
    mask = x1 > TWIST_SMALL_X1
    if np.any(mask):
        d1, d2 = _twist_profile_derivatives(x1[mask])
        out[mask, 1] = d1
        out[mask, 2] = d2
    return out


def field_evaluator(f: FieldSpec):
    """The field's formula as a function of a ``(..., dim)`` array.

    Kind dispatch happens once, here; the returned function does no
    validation, so hot loops build it once and call it directly.
    """
    if f.kind == "constant":
        offset = f.offset
        return lambda p: np.broadcast_to(offset, p.shape).copy()
    if f.kind == "linear":
        mt = f.matrix.T
        return lambda p: p @ mt
    if f.kind == "affine":
        mt, offset = f.matrix.T, f.offset
        return lambda p: p @ mt + offset
    if f.kind == "spiral2d":
        return _spiral2d_values
    return _twist3d_values


def field_values(f: FieldSpec, points) -> np.ndarray:
    """Evaluate the field on an (m, dim) batch of points."""
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != f.dim:
        raise DimensionMismatch(f"points have dim {pts.shape[1]}, field has {f.dim}")
    out = field_evaluator(f)(pts)
    return out[0] if single else out


def eval_field(f: FieldSpec, x) -> np.ndarray:
    """v(x) at a single point."""
    return field_values(f, x)


def twist_profile(x1, dtype=np.float64):
    """The flat spiral profile (w1, w2) = exp(-1/x1^2)(cos, sin)(1/x1).

    Returns zeros for x1 <= 0.  Pass ``dtype=np.longdouble`` when
    1/x1^2 exceeds ~700 and the amplitude underflows double precision.
    """
    x = np.asarray(x1, dtype=dtype)
    w1 = np.zeros_like(x)
    w2 = np.zeros_like(x)
    mask = x > 0
    inv = 1.0 / x[mask]
    amp = np.exp(-inv * inv)
    w1[mask] = amp * np.cos(inv)
    w2[mask] = amp * np.sin(inv)
    return w1, w2


def twist_invariant_curve(a: float, b: float, max_angle_step: float = 0.01,
                          dtype=None) -> Curve:
    """The twist3d trajectory through the x1-axis profile, sampled exactly.

    Returns the curve ``(x1, w1(x1), w2(x1))`` for x1 in [a, b] (0 < a < b)
    with timestamps ``t = x1 - a`` (the field crosses x1-levels at unit
    speed).  Samples are uniform in the winding angle 1/x1 with spacing
    ``max_angle_step``.  The coordinate amplitude exp(-1/x1^2) underflows
    float64 once 1/a^2 > ~745, so longdouble storage is selected
    automatically in that regime (override with ``dtype``).
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    if dtype is None:
        dtype = np.longdouble if 1.0 / (a * a) > 700.0 else np.float64
    u_hi, u_lo = 1.0 / a, 1.0 / b
    n = max(int(np.ceil((u_hi - u_lo) / max_angle_step)) + 1, 2)
    u = np.linspace(u_hi, u_lo, n).astype(dtype)
    x1 = 1.0 / u
    w1, w2 = twist_profile(x1, dtype=dtype)
    pts = np.stack([x1, w1, w2], axis=1)
    t = np.asarray(x1, dtype=np.float64) - a
    t[0] = 0.0
    return Curve(t, pts, closed=False)


# ---------------------------------------------------------------------------
# Lipschitz estimation


@dataclass(frozen=True)
class LipschitzEstimate:
    """K such that |v(x)-v(y)| <= K|x-y| over the region.

    Sampled estimates are lower bounds of the true supremum and are
    reported as such via ``method``; bound verification applies a safety
    factor on top (see the bounds module).
    """

    K: float
    region: Ball
    method: str  # "analytic" | "sampled"
    sample_count: int


def sample_ball(rng: np.random.Generator, ball: Ball, count: int) -> np.ndarray:
    """Uniform draws in a ball: Gaussian direction, radius^(1/dim) correction."""
    dim = ball.center.shape[0]
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = ball.radius * rng.random(count) ** (1.0 / dim)
    return ball.center + g * r[:, None]


def operator_norm(matrix) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=np.float64), 2))


def estimate_lipschitz(f: FieldSpec, region: Ball, n: int = 4096,
                       seed: int = 0, method: str = "auto") -> LipschitzEstimate:
    """Estimate the Lipschitz constant of ``f`` over ``region``.

    Linear/affine/constant kinds are exact (operator norm of the matrix);
    pass ``method="sampled"`` to force pair sampling for them too.
    The sampled estimate is the max difference quotient over ``n`` random
    point pairs, deterministic given ``seed`` -- a lower bound of the
    true constant that works for non-differentiable fields too.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if method not in ("auto", "sampled"):
        raise ValueError("method must be 'auto' or 'sampled'")
    if region.center.shape[0] != f.dim:
        raise DimensionMismatch("region center must match field dimension")
    if method == "auto":
        if f.kind in ("linear", "affine"):
            return LipschitzEstimate(operator_norm(f.matrix), region,
                                     "analytic", 0)
        if f.kind == "constant":
            return LipschitzEstimate(0.0, region, "analytic", 0)
    rng = np.random.default_rng(seed)
    xs = sample_ball(rng, region, n)
    ys = sample_ball(rng, region, n)
    sep = np.linalg.norm(xs - ys, axis=1)
    ok = sep > 1e-12 * region.radius
    dv = np.linalg.norm(field_values(f, xs[ok]) - field_values(f, ys[ok]), axis=1)
    k = float(np.max(dv / sep[ok])) if np.any(ok) else 0.0
    return LipschitzEstimate(k, region, "sampled", int(np.sum(ok)))


def enclosing_ball(points, *extra_points) -> Ball:
    """A cheap enclosing ball (centroid-centered) of the given point sets."""
    pts = [np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in (points, *extra_points)]
    allp = np.concatenate(pts, axis=0)
    center = 0.5 * (allp.max(axis=0) + allp.min(axis=0))
    radius = float(np.max(np.linalg.norm(allp - center, axis=1)))
    return Ball(center, max(radius, 1e-12) * 1.001)
