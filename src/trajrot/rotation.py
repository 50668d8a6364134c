"""Rotation of a single curve around a point or an affine subspace.

Absolute rotation is the length of the spherical blow-up, computed as
polyline chord length with Richardson refinement for the error estimate.
Signed planar winding sums atan2-based angle increments per segment; a
straight segment never subtends an angle >= pi from a point off the
segment, so the increment sum is branch-cut free.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import (AffineSubspace, Curve, MAX_SEGMENT_ANGLE, RotationResult,
                     _decimated, center_offsets, planar_angle_increments,
                     project_to_complement, safe_unit_rows, subtended_angles)
from .errors import CodimensionError, DimensionMismatch


def _subdivide(points, counts):
    """Insert ``counts[i] - 1`` evenly spaced points on each chord."""
    counts = np.asarray(counts, dtype=np.int64)
    a = points[:-1]
    step = (points[1:] - a) / counts[:, None].astype(points.dtype)
    total = int(counts.sum())
    seg = np.repeat(np.arange(len(counts)), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.empty((total + 1, points.shape[1]), dtype=points.dtype)
    out[:-1] = a[seg] + step[seg] * offs[:, None].astype(points.dtype)
    out[-1] = points[-1]
    return out


def _spherical_chord_sum(points, center):
    d = points - np.asarray(center, dtype=points.dtype)
    s = safe_unit_rows(d)
    ch = np.diff(s, axis=0)
    return float(np.sum(np.sqrt(np.sum(ch * ch, axis=1))))


_REFINE_PASSES = 48
_REFINE_POINT_CAP = 2_000_000


def _angle_refined(points, x0):
    """Subdivide polyline chords until no segment subtends more than
    ``MAX_SEGMENT_ANGLE`` at ``x0``.

    Splitting is iterated because a single equal split leaves the
    sub-segment containing the closest approach under-resolved (a near
    flyby concentrates almost pi of angle in a tiny parameter range).
    """
    p = points
    for _ in range(_REFINE_PASSES):
        theta = subtended_angles(p, x0).astype(np.float64, copy=False)
        if np.all(theta <= MAX_SEGMENT_ANGLE) or len(p) > _REFINE_POINT_CAP:
            break
        counts = np.clip(np.ceil(theta / MAX_SEGMENT_ANGLE), 1, 64)
        p = _subdivide(p, counts.astype(np.int64))
    return p


def _blowup_length(points, x0):
    coarse = _angle_refined(points, x0)
    fine = _subdivide(coarse, np.full(len(coarse) - 1, 2, dtype=np.int64))
    a1 = _spherical_chord_sum(coarse, x0)
    a2 = _spherical_chord_sum(fine, x0)
    return a2 + (a2 - a1) / 3.0, abs(a2 - a1), len(fine)


def absolute_rotation_point(c: Curve, x0, guard: float | None = None) -> RotationResult:
    """Length (radians) of the spherical blow-up of ``c`` centered at ``x0``.

    Chords are subdivided until each subtends at most
    ``MAX_SEGMENT_ANGLE`` at ``x0`` (exact for the polyline, whose
    blow-up consists of great-circle arcs); chord sums at two
    resolutions then give a Richardson-extrapolated value and error bar.
    The error bar also carries a decimation-based term estimating how far
    the polyline itself may sit from the curve it samples, so monotone
    resampling stays within the combined estimates.  ``guard`` is checked
    against the exact distance from ``x0`` to the polyline and to its
    decimated copy.
    """
    g = c.default_guard() if guard is None else float(guard)
    center_offsets(c, x0, g)
    value, quad_err, n_fine = _blowup_length(c.x, x0)
    sampling_err = 0.0
    if c.n_samples >= 5:
        # decimated chords leave the polyline, and their subdivision
        # points may land on x0: they need the guard too
        dec = Curve(_decimated(c.t), _decimated(c.x))
        center_offsets(dec, x0, g)
        v_dec, _, _ = _blowup_length(dec.x, x0)
        sampling_err = abs(value - v_dec)
    err = quad_err + sampling_err + 1e-15 * (1.0 + n_fine)
    return RotationResult(max(value, 0.0), err, "absolute_radians")


def signed_winding_plane(c: Curve, x0, guard: float | None = None) -> RotationResult:
    """Accumulated polar-angle increment around ``x0`` divided by 2*pi.

    Planar curves only.  Exact for the polyline up to roundoff; the error
    estimate additionally compares against a decimated copy so grossly
    undersampled inputs surface a large error bar instead of silently
    aliasing.
    """
    if c.dim != 2:
        raise DimensionMismatch("signed winding requires a planar curve")
    d = center_offsets(c, x0, guard)

    def wind(v):
        inc = planar_angle_increments(safe_unit_rows(v))
        return float(np.sum(inc)) / (2.0 * math.pi)

    value = wind(d)
    err = abs(value - wind(_decimated(d))) + 1e-15 * len(d)
    return RotationResult(value, err, "signed_turns")


def rotation_around_subspace(c: Curve, sub: AffineSubspace, mode: str = "absolute",
                             guard: float | None = None) -> RotationResult:
    """Rotation of the projection of ``c`` onto the complement of ``sub``.

    ``mode="absolute"`` works for any codimension >= 2; ``mode="signed"``
    requires codimension exactly 2 (a planar projection).  The complement
    basis is oriented so that ``det([complement; subspace basis]) > 0``;
    for a line in 3-space that makes counterclockwise motion around the
    line direction (right-hand rule) count positive.
    """
    if mode not in ("absolute", "signed"):
        raise ValueError("mode must be 'absolute' or 'signed'")
    if sub.ambient_dim != c.dim:
        raise DimensionMismatch("subspace must live in the curve's ambient space")
    if sub.codim < 2:
        raise CodimensionError("rotation around a subspace needs codim >= 2")
    if mode == "signed" and sub.codim != 2:
        raise CodimensionError("signed rotation requires codimension exactly 2")
    proj = project_to_complement(c, sub)
    origin = np.zeros(proj.dim)
    if mode == "absolute":
        return absolute_rotation_point(proj, origin, guard=guard)
    return signed_winding_plane(proj, origin, guard=guard)
