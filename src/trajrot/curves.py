"""Core geometric types: sampled curves, affine subspaces, blow-ups.

A curve is an immutable time-stamped polyline.  All downstream integrals
(rotation, linking, length) are evaluated segment-wise on the polyline;
accuracy is controlled by sampling density, not smoothing.

Angles seen from a point take one path: :func:`_stacked_directions`
normalizes each sample's offset from each of a stack of centers once
and takes the exact distance of every segment to each center from
those directions and radii in closed form (:func:`center_directions` is
its one-center case), and :func:`unit_angles` gives the angle between
two rows of unit directions.  Only offsets are scaled against under-
and overflow; unit rows take plain norms.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CodimensionError, DimensionMismatch, DistanceTooSmall

# Distances below this fraction of the curve diameter make 1/r quadrature
# untrusted; operations error rather than return garbage.
GUARD_DIAMETER_FACTOR = 1e-7
# Endpoint gap below this fraction of the diameter counts as closed.
CLOSE_DIAMETER_FACTOR = 1e-6
# Largest angle an integrated segment may subtend at an observation center:
# keeps the polyline close to the curve, as rotation's decimation term needs.
MAX_SEGMENT_ANGLE = 0.05


def _as_float_array(a, name):
    arr = np.asarray(a)
    if arr.dtype not in (np.float64, np.longdouble):
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr.astype(np.float64, copy=False))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class Curve:
    """Time-stamped polyline in ``dim``-space.

    Parameters
    ----------
    t : array_like, shape (m,)
        Strictly increasing, finite sample times.
    x : array_like, shape (m, dim)
        Sample points, ``dim >= 2``.  float64 by default; longdouble
        arrays are preserved, which matters for curves whose coordinates
        underflow double precision (e.g. exp(-1/a^2) profiles).
    closed : bool, optional
        If omitted, detected from the endpoint gap relative to the
        curve diameter.
    """

    __slots__ = ("t", "x", "closed", "_diam")

    def __init__(self, t, x, closed=None):
        t = np.asarray(t, dtype=np.float64).copy()
        x = _as_float_array(x, "x").copy()
        if t.ndim != 1 or x.ndim != 2 or t.shape[0] != x.shape[0]:
            raise ValueError("t must be (m,) and x must be (m, dim) with matching m")
        if t.shape[0] < 2:
            raise ValueError("a curve needs at least 2 samples")
        if x.shape[1] < 2:
            raise ValueError("ambient dimension must be >= 2")
        if not np.all(np.isfinite(t)):
            raise ValueError("t contains non-finite entries")
        if not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.t = t
        self.x = x
        self._diam = None
        gap = _norm(x[-1] - x[0])
        tol = CLOSE_DIAMETER_FACTOR * self.diameter_bound()
        if closed is None:
            closed = gap <= tol
        elif closed and gap > tol:
            raise ValueError("closed=True but endpoints do not coincide within tolerance")
        self.closed = bool(closed)
        self.t.flags.writeable = False
        self.x.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def diameter_bound(self) -> float:
        """Bounding-box diagonal: within [diam, sqrt(dim)*diam] of the
        diameter, in the sample dtype."""
        if self._diam is None:
            self._diam = _norm(self.x.max(axis=0) - self.x.min(axis=0))
        return self._diam

    def default_guard(self) -> float:
        return GUARD_DIAMETER_FACTOR * self.diameter_bound()

    def __repr__(self):
        return (f"Curve(dim={self.dim}, n={self.n_samples}, "
                f"t=[{self.t[0]:g}, {self.t[-1]:g}], closed={self.closed})")


@dataclass(frozen=True)
class SphericalCurve:
    """A curve whose samples lie on the unit sphere."""

    curve: Curve

    def __post_init__(self):
        r = np.linalg.norm(self.curve.x.astype(np.float64, copy=False), axis=1)
        if np.max(np.abs(r - 1.0)) > 1e-9:
            raise ValueError("samples are not on the unit sphere within 1e-9")

    @property
    def dim(self) -> int:
        return self.curve.dim


@dataclass(frozen=True)
class RotationResult:
    """A rotation value with quadrature error estimate.

    ``convention`` distinguishes radians of absolute rotation from the
    2*pi-normalized signed winding and from 4*pi-normalized mutual
    (Gauss-integral) rotation, so units are never mixed silently.
    """

    value: float
    error_estimate: float
    convention: str  # "absolute_radians" | "signed_turns" | "gauss_turns"

    def __post_init__(self):
        if self.convention not in ("absolute_radians", "signed_turns", "gauss_turns"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


class AffineSubspace:
    """Affine subspace given by a base point and an orthonormal basis.

    An empty basis describes a single point.  The orthogonal complement
    basis is derived deterministically (QR completion, oriented so that
    ``det([complement; basis]) > 0``); it is never stored by the caller.
    """

    __slots__ = ("base_point", "basis", "_comp")

    def __init__(self, base_point, basis=()):
        base = np.asarray(base_point, dtype=np.float64).copy()
        if base.ndim != 1:
            raise ValueError("base_point must be a vector")
        b = np.asarray(basis, dtype=np.float64)
        if b.size == 0:
            b = np.zeros((0, base.shape[0]))
        else:
            b = b.reshape(len(b), -1).copy()
        if b.shape[1] != base.shape[0]:
            raise ValueError("basis vectors must match base_point dimension")
        if not (np.isfinite(base).all() and np.isfinite(b).all()):
            raise ValueError("base_point and basis must be finite")
        if b.shape[0] > 0:
            gram = b @ b.T
            if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-12:
                raise ValueError("basis must be orthonormal within 1e-12")
        self.base_point = base
        self.basis = b
        self._comp = None
        self.base_point.flags.writeable = False
        self.basis.flags.writeable = False

    @property
    def ambient_dim(self) -> int:
        return self.base_point.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement, shape (codim, n)."""
        if self._comp is not None:
            return self._comp
        n, k = self.ambient_dim, self.dim
        if k == 0:
            comp = np.eye(n)
        else:
            a = np.concatenate([self.basis.T, np.eye(n)], axis=1)
            q, r = np.linalg.qr(a)
            # canonicalize column signs so the result is deterministic
            q = q.copy()
            for j in range(q.shape[1]):
                if r[j, j] < 0:
                    q[:, j] = -q[:, j]
            comp = q[:, k:n].T.copy()
            stacked = np.concatenate([comp, self.basis], axis=0)
            if np.linalg.det(stacked) < 0:
                comp[-1] = -comp[-1]
        comp.flags.writeable = False
        self._comp = comp
        return comp

    def __repr__(self):
        return f"AffineSubspace(ambient={self.ambient_dim}, dim={self.dim})"


# ---------------------------------------------------------------------------
# curve operations


def segment_lengths(c: Curve) -> np.ndarray:
    d = np.diff(c.x, axis=0)
    return np.sqrt(np.sum(d * d, axis=1))


def curve_length(c: Curve) -> float:
    """Polyline length; additive over concatenation (left-to-right fsum)."""
    return math.fsum(segment_lengths(c).astype(np.float64, copy=False).tolist())


def _point_at_time(c: Curve, tq: float) -> np.ndarray:
    """Linear interpolation on the polyline, preserving the point dtype."""
    i = int(np.searchsorted(c.t, tq, side="right")) - 1
    i = min(max(i, 0), c.n_samples - 2)
    w = (tq - c.t[i]) / (c.t[i + 1] - c.t[i])
    return c.x[i] + c.x.dtype.type(w) * (c.x[i + 1] - c.x[i])


def slice_time(c: Curve, ta: float, tb: float) -> Curve:
    """Restrict a curve to [ta, tb], interpolating the window endpoints."""
    if not (c.t[0] - 1e-12 <= ta < tb <= c.t[-1] + 1e-12):
        raise ValueError("window must satisfy t[0] <= ta < tb <= t[-1]")
    ta = max(ta, float(c.t[0]))
    tb = min(tb, float(c.t[-1]))
    inner = (c.t > ta) & (c.t < tb)
    ts = np.concatenate([[ta], c.t[inner], [tb]])
    xs = np.concatenate([[_point_at_time(c, ta)], c.x[inner],
                         [_point_at_time(c, tb)]], axis=0)
    # drop duplicate times created when ta/tb hit a sample exactly
    keep = np.concatenate([[True], np.diff(ts) > 0])
    return Curve(ts[keep], xs[keep], closed=False)


def reverse(c: Curve) -> Curve:
    t = c.t[0] + (c.t[-1] - c.t[::-1])
    return Curve(t, c.x[::-1].copy(), closed=c.closed)


def _decimated(points: np.ndarray) -> np.ndarray:
    """Every other sample, always keeping the last one; samples run along
    the second-to-last axis, so a stack of polylines decimates at once.

    Comparing a polyline quantity with its value on the decimated samples
    estimates how far the polyline sits from the curve it samples.
    """
    n = points.shape[-2]
    idx = np.arange(0, n, 2)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    # C order: numpy sums a strided row one by one, a contiguous one in
    # pairs, so a row sum of a stack would differ from one row's own
    return np.take(points, idx, axis=-2)


def spherical_blowup(c: Curve, center, guard: float | None = None) -> SphericalCurve:
    """Map each sample to ``(x - center)/|x - center|``, keeping timestamps.

    Raises :class:`DistanceTooSmall` if the polyline comes within
    ``guard`` of the center (default: 1e-7 of the curve diameter).
    """
    pts = center_directions(c, center, guard).astype(np.float64, copy=False)
    return SphericalCurve(Curve(c.t, pts, closed=c.closed))


def project_to_complement(c: Curve, sub: AffineSubspace) -> Curve:
    """Orthogonal projection onto the complement of ``sub``.

    The output lives in complement coordinates (dimension = codim), with
    the subspace itself mapped to the origin.  Timestamps are preserved.
    """
    if sub.ambient_dim != c.dim:
        raise DimensionMismatch("subspace ambient dimension must match the curve")
    if sub.codim < 2:
        raise CodimensionError("projection target needs codimension >= 2")
    comp = sub.complement_basis()
    y = (c.x - sub.base_point.astype(c.x.dtype)) @ comp.T.astype(c.x.dtype)
    return Curve(c.t, y, closed=None)


def _norm(v: np.ndarray):
    """Length of the vector ``v`` with no square under- or overflowing:
    ``math.hypot`` in float64; in longdouble, whose coordinates may lie
    far below the float64 range, ``v`` scaled as in :func:`_unit_rows`."""
    if v.dtype != np.longdouble:
        return math.hypot(*v.tolist())
    m = np.max(np.abs(v))
    return m * np.sqrt(np.sum((v / m) ** 2)) if m > 0 else m


def _row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row (last axis), by ``np.maximum`` folded
    left to right over the few columns: cheaper than
    ``np.max(a, axis=-1)`` on (n, 3)."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j])
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of each row, left to right over the columns, like
    :func:`_row_max`."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j]
    return out


def _unit_rows(d: np.ndarray, m: np.ndarray):
    """Unit rows of ``d`` and their norms, each row scaled by its largest
    absolute coordinate ``m`` (the shape of ``d`` with one column,
    nonzero) before squaring, so that neither underflows (curves with
    coordinates near the float minimum) nor overflows."""
    dn = d / m
    r = np.sqrt(_row_sum(dn * dn))
    return dn / r[..., None], m[..., 0] * r


def safe_unit_rows(d: np.ndarray) -> np.ndarray:
    """Normalize rows to unit length without underflowing the squared
    norms.  Zero rows must be excluded by the caller's distance guard."""
    return _unit_rows(d, _row_max(np.abs(d))[:, None])[0]


def unit_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle between unit rows ``u_i`` and ``v_i``.

    ``2 atan2(|u - v|, |u + v|)``, accurate from tiny angles up to pi.
    Both norms are at most 2, so plain squares are safe: they underflow
    only for angles below about 1e-154 rad.
    """
    return 2.0 * np.arctan2(_norms(u - v), _norms(u + v))


def segment_angles(a: np.ndarray, b: np.ndarray, center) -> np.ndarray:
    """Angle subtended at ``center`` by each segment ``[a_i, b_i]``: the
    :func:`unit_angles` of the unit directions of its endpoints.  A row
    with an endpoint exactly at ``center`` has no direction and gives NaN.
    """
    c = np.asarray(center, dtype=a.dtype)
    return unit_angles(safe_unit_rows(a - c), safe_unit_rows(b - c))


def _rowdot(a, b):
    return np.einsum("...j,...j->...", a, b)


def _norms(a):
    return np.sqrt(_rowdot(a, a))


def point_segment_distances(q, p, d) -> np.ndarray:
    """Distances from points ``q`` to segments ``p + s d``, s in [0, 1],
    row by row.

    Each row is scaled by its largest coordinate before squaring, so
    longdouble coordinates far below the float64 range (twist curves reach
    exp(-1/x1^2)) keep meaningful distances.
    """
    rel = q - p
    m = np.maximum(_row_max(np.abs(rel)), _row_max(np.abs(d)))
    m = np.where(m > 0, m, 1.0)
    rel = rel / m[:, None]
    d = d / m[:, None]
    dd = _rowdot(d, d)
    s = np.clip(_rowdot(rel, d) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    r = rel - s[:, None] * d
    return m * _norms(r)


def _resolved_guard(guard, default: float) -> float:
    """``guard`` as a float (a longdouble stays one), ``default`` when it
    is None.  A NaN or negative guard would pass every distance:
    ValueError, as for inf."""
    if guard is None:
        return default
    g = guard if isinstance(guard, np.longdouble) else float(guard)
    if not 0.0 <= g < math.inf:
        raise ValueError(f"guard must be finite and >= 0, got {g!r}")
    return g


def center_directions(c: Curve, center, guard: float | None = None) -> np.ndarray:
    """Unit directions ``(c.x - center) / |c.x - center|``, once the
    polyline is known to stay farther than ``guard`` from ``center``
    (default: 1e-7 of the curve diameter): the one-center case of
    :func:`_stacked_directions`, which documents the guard.

    Raises :class:`DimensionMismatch` or :class:`DistanceTooSmall`.
    """
    center = np.asarray(center)
    if center.shape != (c.dim,):
        raise DimensionMismatch("center must match the curve dimension")
    g = _resolved_guard(guard, c.default_guard())
    u, _, _, rmin = _stacked_directions(c.x, center[None].astype(c.x.dtype))
    _check_clearance(rmin[0], g)
    return u[0]


def _check_clearance(rmin, g) -> None:
    """Raise :class:`DistanceTooSmall` unless the distance ``rmin`` of a
    center to a polyline exceeds the guard ``g``."""
    if not rmin > g:
        # formatted in the curve's own precision: through a float, a
        # longdouble distance near 1e-3000 would read 0
        within, limit = (np.format_float_scientific(v, 2, unique=False)
                         for v in (rmin, g))
        raise DistanceTooSmall(
            f"curve comes within {within} of the center (guard {limit})")


def _stacked_directions(pts: np.ndarray, centers: np.ndarray):
    """Unit directions ``u`` (k, n, dim) of the samples ``pts`` (n, dim)
    seen from each row of ``centers`` (k, dim, in the dtype of ``pts``),
    the half-angle norms ``s`` and ``p`` (k, n - 1) of every segment, and
    the exact distance ``rmin`` (k,) of each center to the polyline.

    The distance to every segment, not only to the samples, comes from
    what the normalization already holds.  Each offset ``d_i`` is scaled
    by its largest coordinate ``m_i`` before squaring (longdouble twist
    curves reach 1e-3000), which gives ``u_i`` and
    ``|d_i| = m_i |d_i / m_i|``.  For the segment from ``a = ra u`` to
    ``b = rb v``, with ``s = |u - v| = 2 sin(theta/2)`` and
    ``p = |u + v| = 2 cos(theta/2)``,

        ``|b - a|^2 = (ra - rb)^2 + ra rb s^2``,  ``sin theta = s p / 2``,
        ``cos theta = (p^2 - s^2) / 4``.

    The foot of the perpendicular from the center to the segment's line
    is ``a + t (b - a)`` with ``t = (ra^2 - ra rb cos theta) / |b - a|^2``,
    so it lies inside the segment iff ``rb cos theta < ra`` and
    ``ra cos theta < rb``.  Then the distance is the height
    ``|a x b| / |b - a| = ra rb sin theta / |b - a|``, evaluated as
    ``ra y s p / (2 sqrt((x - y)^2 + x y s^2))`` with ``x = ra / M``,
    ``y = rb / M`` and ``M = max(ra, rb)``, so that no product of two
    radii underflows.  Otherwise, and also where the denominator
    ``2 |b - a| / M`` is at most ``sqrt(8 eps)`` of the dtype, it is
    ``min(ra, rb)``.  ``s`` and ``cos theta`` carry absolute errors of
    order eps, so the height of a segment seen under an angle near eps
    can read anything down to 0 (``s`` rounds to 0 while ``cos theta``
    reads below 1), and its relative error falls only as
    ``(eps / theta)^2``; ``min(ra, rb)`` exceeds a height inside the
    segment by at most ``|b - a|^2 / (2 h)``, about ``M den^2 / 8``.  At
    the threshold both are about eps M, so the distance stays within a
    few eps M of the exact one at every length.  A center on a
    sample has no direction and distance 0; its ``u``, ``s`` and ``p``
    are placeholders.  Every operation is elementwise or runs along the
    last axis, so each center's row is what it would be on its own.
    """
    d = pts - centers[:, None, :]
    m = _row_max(np.abs(d))[..., None]
    on = np.any(m[..., 0] == 0, axis=1)
    if on.any():
        d[on] = m[on] = 1.0
    u, rad = _unit_rows(d, m)
    ra, rb, ua, ub = rad[:, :-1], rad[:, 1:], u[:, :-1], u[:, 1:]
    s, p = _norms(ua - ub), _norms(ua + ub)
    cos = 0.25 * (p * p - s * s)
    big = np.maximum(ra, rb)
    x, y = ra / big, rb / big
    den = 2.0 * np.sqrt((x - y) ** 2 + x * y * s * s)
    # a segment seen under a rounding-level angle counts as radial
    short = np.sqrt(8 * np.finfo(den.dtype).eps)
    foot = (rb * cos < ra) & (ra * cos < rb) & (den > short)
    rmin = np.min(np.divide(ra * y * s * p, den, out=np.minimum(ra, rb),
                            where=foot), axis=1)
    rmin[on] = 0.0
    return u, s, p, rmin


def planar_angle_increments(d: np.ndarray) -> np.ndarray:
    """Signed angle steps ``atan2(cross, dot)`` between consecutive rows
    of an (m, 2) array, each in [-pi, pi]."""
    u, w = d[:-1], d[1:]
    cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
    dot = u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1]
    return np.arctan2(cross, dot)


# ---------------------------------------------------------------------------
# CSV interchange: header "t,x1,...,xn", one row per sample


_HEADER_RE = re.compile(r"^t(,x\d+)+$")


def curve_to_csv(c: Curve, path) -> None:
    cols = ",".join(f"x{i + 1}" for i in range(c.dim))
    own = isinstance(path, (str, bytes))
    fh = open(path, "w") if own else path
    try:
        fh.write(f"t,{cols}\n")
        for i in range(c.n_samples):
            vals = ",".join(format(float(v), ".17g") for v in c.x[i])
            fh.write(f"{format(float(c.t[i]), '.17g')},{vals}\n")
    finally:
        if own:
            fh.close()


def curve_from_csv(path) -> Curve:
    own = isinstance(path, (str, bytes))
    fh = open(path, "r") if own else path
    try:
        header = fh.readline().strip()
        if not _HEADER_RE.match(header):
            raise ValueError(f"bad curve CSV header: {header!r}")
        ncols = header.count(",")
        body = fh.read()
    finally:
        if own:
            fh.close()
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != ncols + 1:
        raise ValueError("row width does not match header")
    return Curve(data[:, 0], data[:, 1:])
