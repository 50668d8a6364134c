"""Vector field catalog and exact Lipschitz constants.

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

import math
from dataclasses import dataclass
from fractions import Fraction

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
# Lipschitz constants

# u* = 1/x1 where the twist's |w''| peaks: the positive root of
# 16z^4 - 88z^3 + 133z^2 - 62z - 6 at z = u*^2 (see estimate_lipschitz)
_TWIST_U_STAR = 1.8438507478294369


@dataclass(frozen=True)
class LipschitzEstimate:
    """K such that |v(x)-v(y)| <= K|x-y| over the region.

    K is the exact Lipschitz constant over the ball, the sup of the
    Jacobian's spectral norm there (``method`` is always ``"analytic"``):
    ||M||_2 for matrix kinds and 0 for ``constant``; for ``spiral2d`` the
    larger of rho + hypot(2 rho - 1, 1) at the two ends of the ball's
    range of rho = |x|^2; for ``twist3d`` the profile's |w''| = g(1/x1) at
    the point of the ball's x1 range nearest to the peak of g.  The two
    catalog values are rounded up.  :func:`estimate_lipschitz` derives
    both closed forms and their rounding.
    """

    K: float
    region: Ball
    method: str  # "analytic"


def operator_norm(matrix) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=np.float64), 2))


def _spiral_jacobian_norm(rho: float) -> float:
    """||J||_2 of ``spiral2d`` on the circle |x|^2 = rho."""
    return rho + math.hypot(2.0 * rho - 1.0, 1.0)


def _spiral_lipschitz(ball: Ball) -> float:
    a = math.hypot(*ball.center.tolist())
    radius = float(ball.radius)
    lo, hi = max(0.0, a - radius), a + radius
    k_hi = _spiral_jacobian_norm(hi * hi)
    if not math.isfinite(k_hi):
        raise NumericalError(f"spiral2d Jacobian norm is {k_hi} on the "
                             f"ball of radius {radius!r}")
    return max(_spiral_jacobian_norm(lo * lo), k_hi)


def _twist_lipschitz(ball: Ball) -> float:
    c1, radius = float(ball.center[0]), float(ball.radius)
    if not (math.isfinite(c1) and math.isfinite(radius)):
        raise NumericalError(f"twist3d region x1 = {c1!r} +- {radius!r} "
                             "is not finite")
    small, c1, radius = map(Fraction, (TWIST_SMALL_X1, c1, radius))
    x_lo, x_hi = c1 - radius, c1 + radius
    if x_hi <= small:
        return 0.0
    # z = u^2 at u = clip(u*, 1/x_hi, 1/x_lo), exactly
    z = max(Fraction(_TWIST_U_STAR) ** 2, 1 / (x_hi * x_hi))
    if x_lo > small:
        z = min(z, 1 / (x_lo * x_lo))
    m2 = z ** 3 * (16 * z ** 3 - 40 * z ** 2 + 33 * z + 4)
    z_down = float(z)
    if z_down > z:
        z_down = math.nextafter(z_down, 0.0)
    # e^(-z) in two normal halves: only the last product may underflow
    half = math.exp(-0.5 * z_down)
    return math.sqrt(float(m2)) * half * half


def estimate_lipschitz(f: FieldSpec, region: Ball) -> LipschitzEstimate:
    """The Lipschitz constant of ``f`` over ``region``, rounded up.

    On a convex region the Lipschitz constant of a C^1 field is the sup
    of the spectral norm of its Jacobian J there (the mean-value
    inequality gives <=, difference quotients near the sup give >=).
    Every kind has that sup in closed form:

    * ``linear`` and ``affine``: ||M||_2; ``constant``: 0.
    * ``spiral2d``: v = (rho - 1)x + Rx with rho = |x|^2 and R the quarter
      turn, so J = (rho - 1)I + 2xx^T + R, which in the orthonormal frame
      (x/|x|, Rx/|x|) reads [[3rho - 1, -1], [1, rho - 1]].  Its squared
      Frobenius norm is F = 10rho^2 - 8rho + 4 and its determinant
      D = 3rho^2 - 4rho + 2, so ||J||_2^2 = F/2 + sqrt(F^2/4 - D^2) =
      f(rho) = 5rho^2 - 4rho + 2 + 2rho sqrt(4rho^2 - 4rho + 2)
      = (rho + sqrt(q))^2 with
      q = (2rho - 1)^2 + 1.  So ||J||_2 = sigma(rho) = rho
      + hypot(2rho - 1, 1), a linear function plus the norm of an affine
      map of rho: convex.  (Equivalently, with s = 2rho - 1,
      f'' = 10 + 4p(s), p = (2s^3 + 3s + 1)/(s^2 + 1)^(3/2).  As
      p' = 3(1 - s)/(s^2 + 1)^(5/2), p is least on s >= -1 at s = -1 or
      s -> inf, min(-sqrt 2, 2), so f'' >= 10 - 4 sqrt(2) > 0 for rho >= 0.)
      Over the ball |x| fills [max(0, |c| - R), |c| + R], so the sup is
      sigma at one end of [rho_lo, rho_hi].  A ball on which it is not
      finite raises :class:`NumericalError`.
    * ``twist3d``: v = (1, w'(x1)) with w = w1 + i w2 = exp(phi),
      phi = -u^2 + iu, u = 1/x1.  J has one nonzero column,
      (0, w1'', w2'')(x1), so ||J||_2 = |w''| = |phi'' + phi'^2| |w|
      = |4u^6 - 7u^4 + i(2u^3 - 4u^5)| e^(-u^2), that is
      g(u) = u^2 e^(-u^2) sqrt(16u^8 - 40u^6 + 33u^4 + 4u^2)
      = e^(-z) sqrt(M2(z)), M2 = z^3 (16z^3 - 40z^2 + 33z + 4), z = u^2.
      d(log g^2)/dz = M2'/M2 - 2 = -2z^2 (16z^4 - 88z^3 + 133z^2 - 62z
      - 6)/M2 has the sign of minus that quartic, whose only positive root is
      z* = u*^2 (its other roots are -0.082 and a complex pair): g rises
      on (0, u*) and falls after, with g(u*) = 3.5176480944520838.  Over
      x1 in [c1 - R, c1 + R] the sup is g(clip(u*, 1/x_hi, 1/x_lo)).  The
      field is (1, 0, 0) for x1 <= ``TWIST_SMALL_X1``, so 1/x_lo = inf
      when x_lo <= ``TWIST_SMALL_X1``, and K = 0 when x_hi <=
      ``TWIST_SMALL_X1`` too.  A ball that is not finite raises
      :class:`NumericalError`.

    **Rounding.**  Let u = 2^-53 and eps = 2u; sqrt, hypot and exp are
    taken to be within 1 ulp (2u relative).

    * ``spiral2d``: hypot gives |c| within 2u, |c| + R within 3u, and
      rho_hi within 7u, so rho_lo is within 7u rho_hi absolutely.  As
      |sigma'| < 3 and sigma > rho, the rho_hi error is 21u of
      sigma(rho_hi).  The rho_lo end sets the sup only when
      sigma(rho_hi) < sigma(0) = sqrt(2), that is rho_hi < (4 - 2 sqrt 2)/3
      < 0.4, where 21u rho_hi is below 7u of sigma >= (1 + sqrt 3)/2.
      Evaluating sigma at a float rho adds 4u (2rho - 1 within u, hypot
      2u, the sum u).  So sigma is within 26u = 13 eps.
    * ``twist3d``: the ends of the x1 range and z are exact rationals.
      float(M2) and sqrt lose 1.5u.  z rounds down to a float z_f <= z,
      and g = (sqrt(M2) e) e with e = exp(-z_f / 2), a normal float for
      z < 1416: e^2 >= e^(-z)(1 - 4u) and exceeds it by at most e^(2uz).
      The two products lose 2u.  (u* is within an ulp of the root, where
      g' = 0, so it costs a relative 1e-31.)  So g is at most 7.5u low,
      and at most 41u + 2uz < 1.7e-13 high (with the widening below)
      while it is a normal float (z < 730).  Where g underflows, only the
      last product and the widening round to a subnormal, so K falls short
      of the true sup by less than twice the float minimum 2^-1074; beyond
      z = 1416 the sup is below 1e-600.

    The closed form times (1 + 16 eps), rounded, is therefore at least the
    sup (but for that underflow), and within 2e-13 of it (relative).
    Matrix kinds take numpy's 2-norm as it is.
    """
    if region.center.shape[0] != f.dim:
        raise DimensionMismatch("region center must match field dimension")
    if f.kind == "constant":
        k = 0.0
    elif f.matrix is not None:
        k = operator_norm(f.matrix)
    else:
        closed_form = (_spiral_lipschitz if f.kind == "spiral2d"
                       else _twist_lipschitz)
        k = closed_form(region) * (1.0 + 16 * math.ulp(1.0))
    return LipschitzEstimate(k, region, "analytic")


def enclosing_ball(points, *extra_points) -> Ball:
    """A cheap enclosing ball (centroid-centered) of the given point sets."""
    pts = [np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in (points, *extra_points)]
    allp = np.concatenate(pts, axis=0)
    center = 0.5 * (allp.max(axis=0) + allp.min(axis=0))
    radius = float(np.max(np.linalg.norm(allp - center, axis=1)))
    return Ball(center, max(radius, 1e-12) * 1.001)
