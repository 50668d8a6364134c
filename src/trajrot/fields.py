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
from .errors import DimensionMismatch, NumericalError

# Below this x1 the twist profile amplitude exp(-1/x1^2) < 1e-300000...,
# i.e. far beyond any float underflow; the field is numerically (1, 0, 0).
TWIST_SMALL_X1 = 1e-3

# kind -> (takes a matrix, takes an offset, fixed dimension or None)
_KINDS = {"spiral2d": (False, False, 2), "twist3d": (False, False, 3),
          "linear": (True, False, None), "constant": (False, True, None),
          "affine": (True, True, None)}


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

    ``linear`` takes a matrix, ``constant`` an offset and ``affine`` both,
    all with finite entries; the two catalog fields are closed-form and
    take neither, at their own dimension (2 and 3).
    """

    dim: int
    kind: str
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        wants_matrix, wants_offset, dim = _KINDS[self.kind]
        if ((self.matrix is not None, self.offset is not None)
                != (wants_matrix, wants_offset)):
            raise ValueError(f"field kind {self.kind!r} takes "
                             f"{'a' if wants_matrix else 'no'} matrix and "
                             f"{'an' if wants_offset else 'no'} offset")
        if dim is not None and self.dim != dim:
            raise ValueError(f"field kind {self.kind!r} has dim {dim}")
        for name, shape in (("matrix", (self.dim, self.dim)),
                            ("offset", (self.dim,))):
            if getattr(self, name) is None:
                continue
            # a read-only copy: the checks hold for the field's lifetime
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name} shape must be {shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} entries must be finite")
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def spiral2d() -> FieldSpec:
    return FieldSpec(2, "spiral2d")


def twist3d() -> FieldSpec:
    return FieldSpec(3, "twist3d")


def _dim_of(a, name) -> int:
    """The field dimension that ``a`` declares: its leading axis."""
    if np.ndim(a) == 0:
        raise ValueError(f"{name} must be an array, not a scalar")
    return np.shape(a)[0]


def linear(matrix) -> FieldSpec:
    return FieldSpec(_dim_of(matrix, "matrix"), "linear", matrix=matrix)


def constant(vector) -> FieldSpec:
    return FieldSpec(_dim_of(vector, "offset"), "constant", offset=vector)


def affine(matrix, vector) -> FieldSpec:
    return FieldSpec(_dim_of(matrix, "matrix"), "affine", matrix=matrix,
                     offset=vector)


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
    """(w1', w2') for x1 > TWIST_SMALL_X1."""
    inv = 1.0 / x1
    inv2 = inv * inv
    amp = np.exp(-inv2)
    c, s = np.cos(inv), np.sin(inv)
    two_inv3 = 2.0 * inv2 * inv
    d1 = amp * (two_inv3 * c + inv2 * s)
    d2 = amp * (two_inv3 * s - inv2 * c)
    return d1, d2


def _spiral2d(x, y):
    """The spiral's formula on coordinate arrays."""
    r2m1 = x * x + y * y - 1.0
    return r2m1 * x - y, r2m1 * y + x


def field_values(f: FieldSpec, points) -> np.ndarray:
    """Evaluate the field on an (m, dim) batch of points, or on one
    point, as a new array that the caller may keep."""
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != f.dim:
        raise DimensionMismatch(f"points have dim {pts.shape[1]}, field has {f.dim}")
    if f.kind == "constant":
        out = np.broadcast_to(f.offset, pts.shape).copy()
    elif f.matrix is not None:
        # np.dot is the same BLAS call as pts @ matrix.T, with less
        # dispatch overhead
        out = np.dot(pts, f.matrix.T)
        if f.offset is not None:
            out += f.offset
    elif f.kind == "spiral2d":
        out = np.empty_like(pts)
        out[..., 0], out[..., 1] = _spiral2d(pts[..., 0], pts[..., 1])
    else:
        out = np.zeros_like(pts)
        out[..., 0] = 1.0
        mask = pts[..., 0] > TWIST_SMALL_X1
        out[mask, 1], out[mask, 2] = _twist_profile_derivatives(pts[mask, 0])
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


def twist_invariant_curve(a: float, b: float,
                          max_angle_step: float = 0.01) -> Curve:
    """The twist3d trajectory through the x1-axis profile, sampled exactly.

    Returns the curve ``(x1, w1(x1), w2(x1))`` for x1 in [a, b] (0 < a < b)
    with timestamps ``t = x1 - a`` (the field crosses x1-levels at unit
    speed).  Samples are uniform in the winding angle 1/x1 with spacing
    ``max_angle_step``.  The coordinate amplitude exp(-1/x1^2) underflows
    float64 once 1/a^2 > ~745, so longdouble storage is selected
    automatically in that regime.
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
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
    true constant that works for non-differentiable fields too.  Raises
    :class:`NumericalError` when no pair is usable or the largest
    quotient is not finite: such a K would measure nothing.
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
    if not np.any(ok):
        raise NumericalError("no usable sample pair for the Lipschitz estimate")
    dv = np.linalg.norm(field_values(f, xs[ok]) - field_values(f, ys[ok]), axis=1)
    k = float(np.max(dv / sep[ok]))
    if not np.isfinite(k):
        raise NumericalError(f"sampled Lipschitz quotient is {k}")
    return LipschitzEstimate(k, region, "sampled", int(np.sum(ok)))


def enclosing_ball(points, *extra_points) -> Ball:
    """A cheap enclosing ball (centroid-centered) of the given point sets."""
    pts = [np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in (points, *extra_points)]
    allp = np.concatenate(pts, axis=0)
    center = 0.5 * (allp.max(axis=0) + allp.min(axis=0))
    radius = float(np.max(np.linalg.norm(allp - center, axis=1)))
    return Ball(center, max(radius, 1e-12) * 1.001)
