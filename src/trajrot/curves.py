"""Core geometric types: sampled curves, affine subspaces, blow-ups.

A curve is an immutable time-stamped polyline.  All downstream integrals
(rotation, linking, length) are evaluated segment-wise on the polyline;
accuracy is controlled by sampling density, not smoothing.
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
# Largest angle a single output segment may subtend at any observation
# center before rotation quadrature is considered under-resolved.
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
        Strictly increasing sample times.
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
        if not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.t = t
        self.x = x
        self._diam = None
        gap = float(np.linalg.norm((x[-1] - x[0]).astype(np.float64)))
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
        """Bounding-box diagonal: within [diam, sqrt(dim)*diam] of the diameter."""
        if self._diam is None:
            ext = (self.x.max(axis=0) - self.x.min(axis=0)).astype(np.float64)
            self._diam = float(np.linalg.norm(ext))
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
                jj = min(j, r.shape[1] - 1)
                if r[j, jj] < 0:
                    q[:, j] = -q[:, j]
            comp = q[:, k:n].T.copy()
            stacked = np.concatenate([comp, self.basis], axis=0)
            if np.linalg.det(stacked) < 0:
                comp[-1] = -comp[-1]
        comp.flags.writeable = False
        self._comp = comp
        return comp

    def offsets(self, points) -> np.ndarray:
        """Complement coordinates of points, i.e. displacement from the subspace."""
        pts = np.asarray(points)
        return (pts - self.base_point) @ self.complement_basis().T

    def distance(self, points) -> np.ndarray:
        off = self.offsets(points).astype(np.float64, copy=False)
        return np.linalg.norm(off, axis=-1)

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


def concat(c1: Curve, c2: Curve) -> Curve:
    """Join two curves that share the junction sample (time and point)."""
    if c1.dim != c2.dim:
        raise DimensionMismatch("cannot concatenate curves of different dimension")
    if abs(c1.t[-1] - c2.t[0]) > 0:
        raise ValueError("curves must share the junction time")
    if np.any(c1.x[-1] != c2.x[0]):
        raise ValueError("curves must share the junction point")
    t = np.concatenate([c1.t, c2.t[1:]])
    x = np.concatenate([c1.x, c2.x[1:]], axis=0)
    return Curve(t, x, closed=None)


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


def translate(c: Curve, offset) -> Curve:
    return Curve(c.t, c.x + np.asarray(offset), closed=c.closed)


def transform(c: Curve, matrix, offset=None) -> Curve:
    """Apply ``x -> matrix @ x + offset`` to every sample."""
    m = np.asarray(matrix, dtype=np.float64)
    y = c.x @ m.T
    if offset is not None:
        y = y + np.asarray(offset)
    return Curve(c.t, y, closed=None)


def resample(c: Curve, n: int) -> Curve:
    """Arc-length-uniform resampling by linear interpolation, n >= 2.

    The result is a monotone reparametrization of the polyline, so all
    rotation quantities change by at most the quadrature error estimates.
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
    xs = np.empty((n, c.dim), dtype=c.x.dtype)
    for j in range(c.dim):
        xs[:, j] = np.interp(targets, s, c.x[:, j].astype(np.float64, copy=False))
    if c.x.dtype == np.longdouble:
        xs = xs.astype(np.longdouble)
    # duplicate interior points (zero-length segments) can produce tied
    # times; nudge them apart monotonically
    for i in range(1, n):
        if ts[i] <= ts[i - 1]:
            ts[i] = np.nextafter(ts[i - 1], np.inf)
    xs[0] = c.x[0]
    xs[-1] = c.x[-1]
    return Curve(ts, xs, closed=c.closed)


def _decimated(points: np.ndarray) -> np.ndarray:
    """Every other sample, always keeping the last one.

    Comparing a polyline quantity with its value on the decimated samples
    estimates how far the polyline sits from the curve it samples.
    """
    idx = np.arange(0, len(points), 2)
    if idx[-1] != len(points) - 1:
        idx = np.append(idx, len(points) - 1)
    return points[idx]


def spherical_blowup(c: Curve, center, guard: float | None = None) -> SphericalCurve:
    """Map each sample to ``(x - center)/|x - center|``, keeping timestamps.

    Raises :class:`DistanceTooSmall` if the polyline comes within
    ``guard`` of the center (default: 1e-7 of the curve diameter).
    """
    pts = safe_unit_rows(center_offsets(c, center, guard)).astype(
        np.float64, copy=False)
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


def safe_unit_rows(d: np.ndarray) -> np.ndarray:
    """Normalize rows to unit length without underflowing the squared
    norms (relevant for curves with coordinates near the float minimum).
    Zero rows must be excluded by the caller's distance guard."""
    m = np.max(np.abs(d), axis=1, keepdims=True)
    dn = d / m
    r = np.sqrt(np.sum(dn * dn, axis=1, keepdims=True))
    return dn / r


def safe_norms(d: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms, scaled to avoid under/overflow."""
    m = np.max(np.abs(d), axis=1)
    out = np.zeros(d.shape[0], dtype=d.dtype)
    ok = m > 0
    dn = d[ok] / m[ok, None]
    out[ok] = m[ok] * np.sqrt(np.sum(dn * dn, axis=1))
    return out


def segment_angles(a: np.ndarray, b: np.ndarray, center) -> np.ndarray:
    """Angle subtended at ``center`` by each segment ``[a_i, b_i]``.

    ``2 atan2(|u - v|, |u + v|)`` on the unit directions u, v of the two
    endpoints, accurate from tiny angles up to pi.  A row with an endpoint
    exactly at ``center`` has no direction and gives NaN.
    """
    c = np.asarray(center, dtype=a.dtype)
    u = safe_unit_rows(a - c)
    v = safe_unit_rows(b - c)
    return 2.0 * np.arctan2(safe_norms(u - v), safe_norms(u + v))


def subtended_angles(points: np.ndarray, center) -> np.ndarray:
    """Angle subtended at ``center`` by each polyline segment."""
    return segment_angles(points[:-1], points[1:], center)


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def point_segment_distances(q, p, d) -> np.ndarray:
    """Distances from points ``q`` to segments ``p + s d``, s in [0, 1],
    row by row.

    Each row is scaled by its largest coordinate before squaring, so
    longdouble coordinates far below the float64 range (twist curves reach
    exp(-1/x1^2)) keep meaningful distances.
    """
    rel = q - p
    m = np.maximum(np.max(np.abs(rel), axis=1), np.max(np.abs(d), axis=1))
    m = np.where(m > 0, m, 1.0)
    rel = rel / m[:, None]
    d = d / m[:, None]
    dd = _rowdot(d, d)
    s = np.clip(_rowdot(rel, d) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    r = rel - s[:, None] * d
    return m * np.sqrt(_rowdot(r, r))


def center_offsets(c: Curve, center, guard: float | None = None) -> np.ndarray:
    """``c.x - center``, once the polyline is known to stay farther than
    ``guard`` from ``center`` (default: 1e-7 of the curve diameter).

    The guard sees the exact distance to every segment, not only to the
    samples.  Raises :class:`DimensionMismatch` or
    :class:`DistanceTooSmall`.
    """
    center = np.asarray(center)
    if center.shape != (c.dim,):
        raise DimensionMismatch("center must match the curve dimension")
    g = c.default_guard() if guard is None else float(guard)
    d = c.x - center.astype(c.x.dtype)
    rmin = np.min(point_segment_distances(0.0, d[:-1], np.diff(d, axis=0)))
    if not rmin > g:
        raise DistanceTooSmall(
            f"curve comes within {float(rmin):.3g} of the center (guard {g:.3g})")
    return d


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
