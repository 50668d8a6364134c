"""Mutual rotation of two space curves via the Gauss linking integral.

The signed rotation of curves ``c1``, ``c2`` in 3-space is

    (1/4pi) integral integral <c1' x c2', c1 - c2> / |c1 - c2|^3 dt1 dt2,

oriented so that a counterclockwise unit circle in the xy-plane and the
upward z-axis link with value +1.  The absolute variant integrates the
magnitude of the same kernel.

On two polylines the integral is evaluated exactly.  The relative
positions ``x1 - x2`` of a segment pair sweep a parallelogram, and the
pair contributes minus its signed solid angle seen from the origin: two
Van Oosterom-Strackee triangles (IEEE TBME 30, 1983; Klenin & Langowski,
Biopolymers 54, 2000).  On one pair the kernel's numerator
``<d1 x d2, p1 - p2>`` is constant, so the absolute variant is exactly the
sum of the pairs' unsigned solid angles.  The error estimate therefore
carries no quadrature term, only how far the polylines may sit from the
curves they sample (a decimation comparison) plus roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (AffineSubspace, Curve, RotationResult, _decimated,
                     _rowdot, point_segment_distances)
from .errors import (CurvesTooClose, DimensionMismatch, DistanceTooSmall,
                     NonTransversal, NotClosed, NotPlanar,
                     QuadratureInconclusive, SampleBudgetExceeded)
from .rotation import rotation_around_subspace, signed_winding_plane

# Segment pairs per row chunk of the vertex grid; keeps the chunk's
# temporaries cache-sized.
_CHUNK_PAIRS = 50_000
# Most segment pairs one call may evaluate (about a minute of work).
_PAIR_BUDGET = 1_000_000_000
# Roundoff of one pair's solid angle, in machine epsilons times its
# condition number.  Against 40-digit evaluations of the same formula the
# worst observed factor was about 4.
_ROUNDOFF_ULPS = 32.0


@dataclass(frozen=True)
class LinkingResult:
    """Gauss integral of a closed pair with its integer snap."""

    raw: float
    nearest_integer: int
    residual: float
    error_estimate: float

    def __post_init__(self):
        if self.residual > 0.5 + 1e-12:
            raise ValueError("residual cannot exceed 0.5")


def _segment_distances(p1, d1, p2, d2):
    """Exact distances between segments ``p1 + s d1`` and ``p2 + t d2``
    (s, t in [0, 1]), row by row.

    The minimum sits either at an endpoint of one segment or at the
    interior critical point of the two carrier lines.
    """
    best = np.minimum.reduce([
        point_segment_distances(p1, p2, d2),
        point_segment_distances(p1 + d1, p2, d2),
        point_segment_distances(p2, p1, d1),
        point_segment_distances(p2 + d2, p1, d1)])
    r = p1 - p2
    a, b, e = _rowdot(d1, d1), _rowdot(d1, d2), _rowdot(d2, d2)
    c, f = _rowdot(d1, r), _rowdot(d2, r)
    denom = a * e - b * b
    skew = denom > 0
    safe = np.where(skew, denom, 1.0)
    s = (b * f - c * e) / safe
    t = (a * f - b * c) / safe
    inside = skew & (s >= 0) & (s <= 1) & (t >= 0) & (t <= 1)
    interior = np.linalg.norm(r + s[:, None] * d1 - t[:, None] * d2, axis=1)
    return np.where(inside, np.minimum(best, interior), best)


def _pair_solid_angles(x1, x2, absolute, guard):
    """Exact Gauss double integral of two polylines, times 4 pi, and a
    bound on its roundoff (radians).

    Segment pair (i, j) has corners ``r_ab = x1[i+a] - x2[j+b]``.  Its
    value is ``2 atan2(N, D1) + 2 atan2(N, D2)`` with the common numerator
    ``N = <p1 - p2, d1 x d2>`` and the Van Oosterom-Strackee denominators
    of the triangles (r00, r10, r11) and (r00, r11, r01).  A pair whose
    corner distance cannot rule out an approach within ``guard`` or
    within its own length ``l1 + l2`` gets its exact segment distance:
    the guard is checked against it, and it sets the pair's conditioning.
    """
    # translation leaves N unchanged; centering keeps p1 x d1 small
    center = 0.5 * (x1.mean(axis=0) + x2.mean(axis=0))
    x1 = x1 - center
    x2 = x2 - center
    d1 = np.diff(x1, axis=0)
    d2 = np.diff(x2, axis=0)
    length1 = np.linalg.norm(d1, axis=1)
    length2 = np.linalg.norm(d2, axis=1)
    reach1 = 2.0 * length1 + guard
    reach2 = 2.0 * length2
    # N = <p1 x d1, d2> + <d1, p2 x d2>: two small matmuls per chunk
    a1 = np.cross(x1[:-1], d1)
    a2t = np.cross(x2[:-1], d2).T
    a1_norm = np.linalg.norm(a1, axis=1)
    a2_norm = np.linalg.norm(a2t, axis=0)
    d2t = d2.T
    y1 = x1.T.copy()
    y2 = x2.T.copy()
    rows = max(1, _CHUNK_PAIRS // len(d2))
    partials = []
    conditioning = float(len(d1) * len(d2))
    for i0 in range(0, len(d1), rows):
        i1 = min(i0 + rows, len(d1))
        # corner vectors, one plane per coordinate: (rows + 1, n2 + 1)
        rx, ry, rz = (y1[k, i0:i1 + 1, None] - y2[k] for k in range(3))
        R = np.sqrt(rx * rx + ry * ry + rz * rz)
        e1 = rx[:-1] * rx[1:] + ry[:-1] * ry[1:] + rz[:-1] * rz[1:]
        e2 = rx[:, :-1] * rx[:, 1:] + ry[:, :-1] * ry[:, 1:] \
            + rz[:, :-1] * rz[:, 1:]
        dg = rx[:-1, :-1] * rx[1:, 1:] + ry[:-1, :-1] * ry[1:, 1:] \
            + rz[:-1, :-1] * rz[1:, 1:]
        r00, r10, r01, r11 = R[:-1, :-1], R[1:, :-1], R[:-1, 1:], R[1:, 1:]

        numer = a1[i0:i1] @ d2t + d1[i0:i1] @ a2t
        den1 = (r00 * r10 + e1[:, :-1]) * r11 + dg * r10 + e2[1:] * r00
        den2 = (r00 * r11 + dg) * r01 + e2[:-1] * r11 + e1[:, 1:] * r00
        vals = np.arctan2(numer, den1) + np.arctan2(numer, den2)

        # distance >= r00 - (l1 + l2): unflagged pairs lie farther apart
        # than the guard and than their own length, and their condition
        # number is counted as 1.  A flagged pair's triangle has one of
        # (R1 R2 R3 + |N|_size |D| / |(N, D)|) / |(N, D)|, where |N|_size
        # is the size of the two summands that make up N.
        i, j = np.nonzero(r00 <= reach1[i0:i1, None] + reach2)
        if len(i):
            k = i + i0
            dist = _segment_distances(x1[k], d1[k], x2[j], d2[j])
            closest = float(np.min(dist))
            if closest <= guard:
                raise CurvesTooClose(f"curves approach within {closest:.3g} "
                                     f"(guard {guard:.3g})")
            n = numer[i, j]
            n_size = a1_norm[k] * length2[j] + length1[k] * a2_norm[j]
            for den, far in ((den1[i, j], r10[i, j]), (den2[i, j], r01[i, j])):
                size = np.hypot(n, den)
                cond = (r00[i, j] * r11[i, j] * far
                        + n_size * np.abs(den) / size) / size
                conditioning += float(np.sum(cond))
        partials.append(float(np.sum(np.abs(vals) if absolute else vals)))
    roundoff = _ROUNDOFF_ULPS * math.ulp(1.0) * conditioning
    return 2.0 * math.fsum(partials), roundoff


def _pair_guard(c1: Curve, c2: Curve, guard) -> float:
    if guard is not None:
        return float(guard)
    return max(c1.default_guard(), c2.default_guard())


def gauss_rotation_pair(c1: Curve, c2: Curve, mode: str = "signed",
                        guard: float | None = None) -> RotationResult:
    """Signed or absolute mutual rotation of two curves in 3-space,
    in turns (the 1/4pi normalization is built in).

    The polyline integral is exact; the error estimate is the change
    under decimating both curves (a sampling term) plus roundoff.
    """
    if mode not in ("signed", "absolute"):
        raise ValueError("mode must be 'signed' or 'absolute'")
    if c1.dim != 3 or c2.dim != 3:
        raise DimensionMismatch("mutual rotation requires curves in 3-space")
    pairs = (c1.n_samples - 1) * (c2.n_samples - 1)
    if pairs > _PAIR_BUDGET:
        raise SampleBudgetExceeded(
            f"{pairs} segment pairs exceed the budget of {_PAIR_BUDGET}")
    g = _pair_guard(c1, c2, guard)
    x1 = c1.x.astype(np.float64, copy=False)
    x2 = c2.x.astype(np.float64, copy=False)
    absolute = mode == "absolute"
    v, roundoff = _pair_solid_angles(x1, x2, absolute, g)
    v_dec, _ = _pair_solid_angles(_decimated(x1), _decimated(x2), absolute, g)
    err = (abs(v - v_dec) + roundoff) / (4 * math.pi) + 1e-12
    return RotationResult(v / (4 * math.pi), err, "gauss_turns")


def linking_coefficient(c1: Curve, c2: Curve,
                        guard: float | None = None) -> LinkingResult:
    """Gauss integral of two disjoint closed curves with integer snap.

    The snap is asserted, not assumed: if the residual to the nearest
    integer exceeds ``max(0.1, 3 * error_estimate)`` the quadrature is
    declared inconclusive instead of rounding garbage.
    """
    if not (c1.closed and c2.closed):
        raise NotClosed("linking coefficient requires two closed curves")
    rr = gauss_rotation_pair(c1, c2, "signed", guard=guard)
    nearest = int(round(rr.value))
    residual = abs(rr.value - nearest)
    if residual >= max(0.1, 3.0 * rr.error_estimate):
        raise QuadratureInconclusive(
            f"residual {residual:.3g} too large for integer snap "
            f"(error estimate {rr.error_estimate:.3g})")
    return LinkingResult(rr.value, nearest, residual, rr.error_estimate)


# ---------------------------------------------------------------------------
# topological cross-check: crossings through c1's plane, weighted by winding


def topological_linking_planar(c1: Curve, c2: Curve) -> int:
    """Linking number of ``c2`` with a closed curve ``c1`` that lies in a
    plane, counted as an intersection number.

    Each crossing of ``c2`` through the plane of ``c1`` counts the winding
    number of ``c1`` around the crossing point, signed by the direction
    of the crossing (Rolfsen, Knots and Links, 1976, 5.D).  Both are
    measured against the same normal, so the count needs no spanning
    disk: ``c1`` may cross itself, and its orientation sets the sign the
    same way it does for the Gauss integral.  A crossing closer to ``c1``
    than the default guard of its plane curve has no trusted winding
    number and raises :class:`DistanceTooSmall`.
    """
    if c1.dim != 3 or c2.dim != 3:
        raise DimensionMismatch("planar linking check requires 3-space curves")
    if not c1.closed:
        raise NotClosed("c1 must be closed")
    x1 = c1.x.astype(np.float64, copy=False)
    centroid = x1[:-1].mean(axis=0)
    _, _, vt = np.linalg.svd(x1 - centroid, full_matrices=False)
    scale = max(c1.diameter_bound(), 1e-30)
    dev = float(np.max(np.abs((x1 - centroid) @ vt[2])))
    if dev > 1e-9 * scale:
        raise NotPlanar(f"c1 deviates {dev:.3g} from its best plane")
    frame = vt[:2].T
    normal = np.cross(vt[0], vt[1])
    plane = Curve(c1.t, (x1 - centroid) @ frame, closed=True)

    x2 = c2.x.astype(np.float64, copy=False) - centroid
    h = x2 @ normal
    if np.any(h == 0.0):
        raise NonTransversal("a sample of c2 lies exactly on the plane of c1")
    total = 0
    for i in np.nonzero(h[:-1] * h[1:] < 0)[0]:
        tau = h[i] / (h[i] - h[i + 1])
        p = (x2[i] + tau * (x2[i + 1] - x2[i])) @ frame
        turns = round(signed_winding_plane(plane, p).value)
        total += turns if h[i + 1] > 0 else -turns
    return total


# ---------------------------------------------------------------------------
# line / projection consistency


def truncated_line_curve(line: AffineSubspace, M: float, focus_lo: float,
                         focus_hi: float, core_step: float) -> Curve:
    """Polyline covering parameter range [-M, M] of a straight line,
    densely sampled on the focus window and geometrically coarsened
    outside it."""
    if M <= max(abs(focus_lo), abs(focus_hi)):
        raise ValueError("truncation M must exceed the focus window")
    core = np.arange(focus_lo, focus_hi + core_step, core_step)
    right = [core[-1]]
    step = core_step
    while right[-1] < M:
        step *= 1.25
        right.append(min(right[-1] + step, M))
    left = [core[0]]
    step = core_step
    while left[-1] > -M:
        step *= 1.25
        left.append(max(left[-1] - step, -M))
    s = np.concatenate([left[::-1][:-1], core, right[1:]])
    direction = line.basis[0]
    pts = line.base_point + s[:, None] * direction
    return Curve(s, pts, closed=False)


def _line_tail_bound(x2_pts, seg_len2, base, direction, M) -> float:
    """Error from truncating the line at parameter +-M: for each side,
    bound the omitted kernel mass using the exact single-line integral
    1/eta^2 * (1 - u/sqrt(1+u^2)) with u = (M -+ s)/eta."""
    rel = x2_pts - base
    s = rel @ direction
    eta = np.linalg.norm(rel - s[:, None] * direction, axis=1)
    eta = np.maximum(eta, 1e-300)
    total = 0.0
    for sign in (+1.0, -1.0):
        u = (M - sign * s) / eta
        vals = (1.0 - u / np.sqrt(1.0 + u * u)) / eta
        seg_vals = np.maximum(vals[:-1], vals[1:])
        total += float(np.sum(seg_len2 * seg_vals))
    return total / (4 * math.pi)


def line_rotation_crosscheck(c2: Curve, line: AffineSubspace,
                             mode: str = "signed", M: float = 200.0,
                             guard: float | None = None):
    """Compute the rotation of ``c2`` about a straight line both ways.

    Returns ``(gauss, projection)``: the Gauss integral of ``c2`` against
    a truncated segment of the line (turns, with the analytic truncation
    tail added to its error estimate) and the projection-based rotation
    around the line (its native convention: turns when signed, radians
    when absolute).  The two agree within combined error estimates; the
    complement orientation rule makes the signs match.
    """
    if line.ambient_dim != 3 or line.dim != 1:
        raise DimensionMismatch("need a straight line in 3-space")
    if c2.dim != 3:
        raise DimensionMismatch("curve must live in 3-space")
    direction = line.basis[0]
    x2 = c2.x.astype(np.float64, copy=False)
    off = line.offsets(x2)
    eta_min = float(np.min(point_segment_distances(0.0, off[:-1],
                                                   np.diff(off, axis=0))))
    if eta_min <= 0:
        raise DistanceTooSmall("curve touches the line")
    if M <= float(np.max(np.abs((x2 - line.base_point) @ direction))):
        raise ValueError("M must exceed the curve's extent along the line")
    # the exact pair integral is additive along a straight segment, so
    # the truncated line needs only its two endpoints
    line_curve = Curve([-M, M], line.base_point + np.outer([-M, M], direction))
    g = min(eta_min / 2.0, _pair_guard(line_curve, c2, guard))
    gauss = gauss_rotation_pair(line_curve, c2, mode, guard=g)
    seg_len2 = np.linalg.norm(np.diff(x2, axis=0), axis=1)
    tail = _line_tail_bound(x2, seg_len2, line.base_point, direction, M)
    gauss = RotationResult(gauss.value, gauss.error_estimate + tail,
                           "gauss_turns")
    projection = rotation_around_subspace(c2, line, mode, guard=guard)
    return gauss, projection
