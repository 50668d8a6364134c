"""Rotation of a single curve around a point or an affine subspace.

Both kernels start from the unit directions of
:func:`~trajrot.curves.center_directions`, normalized once per sample.

Absolute rotation is the length of the spherical blow-up.  Each polyline
segment blows up to a great-circle arc of the angle it subtends
(:func:`~trajrot.curves.unit_angles` of its two directions), so its chord
sums have a closed form (nodes at equal subtended angles, chords of
``2 sin(phi/2)``); sums at two resolutions give a Richardson value and
error estimate, with no subdivision and no cap.

Signed planar winding sums atan2-based angle increments per segment; a
straight segment never subtends an angle >= pi from a point off the
segment, so the increment sum is branch-cut free.  The Gauss integral of
:mod:`trajrot.gausslink` against a whole straight line in 3-space is the
same sum in closed form (README, "Numerical design notes"), so
:func:`rotation_around_subspace` in the signed mode is its one code path.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import (AffineSubspace, Curve, MAX_SEGMENT_ANGLE, RotationResult,
                     _decimated, center_directions, planar_angle_increments,
                     project_to_complement, unit_angles)
from .errors import CodimensionError, DimensionMismatch


def _blowup_length(u):
    """Chord-sum length of the spherical blow-up with unit directions
    ``u``, with its Richardson value, error term and fine node count.

    A segment's blow-up is a great-circle arc of its subtended angle
    theta.  It is cut into ``k = ceil(theta / MAX_SEGMENT_ANGLE)`` arcs of
    equal angle, whose chords are ``2 sin(theta / 2k)`` in closed form,
    and the sum is compared against the same sum on ``2k`` arcs.
    """
    theta = unit_angles(u[:-1], u[1:]).astype(np.float64, copy=False)
    k = np.maximum(np.ceil(theta / MAX_SEGMENT_ANGLE), 1.0)
    a1 = float(np.sum(2.0 * k * np.sin(theta / (2.0 * k))))
    a2 = float(np.sum(4.0 * k * np.sin(theta / (4.0 * k))))
    return a2 + (a2 - a1) / 3.0, abs(a2 - a1), 2 * int(np.sum(k)) + 1


def absolute_rotation_point(c: Curve, x0, guard: float | None = None) -> RotationResult:
    """Length (radians) of the spherical blow-up of ``c`` centered at ``x0``.

    The blow-up of the polyline consists of great-circle arcs, one per
    segment, of exactly the angle the segment subtends at ``x0``.  Chord
    sums over equal-angle nodes at two resolutions (no arc wider than
    ``MAX_SEGMENT_ANGLE``) give a Richardson-extrapolated value and error
    bar.  The error bar also carries a decimation-based term estimating
    how far the polyline itself may sit from the curve it samples, so
    monotone resampling stays within the combined estimates.  ``guard``
    is checked against the exact distance from ``x0`` to the polyline;
    the decimated copy needs none, since a chord of it that passes
    through ``x0`` only subtends pi and shows up in the decimation term.
    """
    u = center_directions(c, x0, guard)
    value, quad_err, n_fine = _blowup_length(u)
    sampling_err = 0.0
    if len(u) >= 5:
        sampling_err = abs(value - _blowup_length(_decimated(u))[0])
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
    u = center_directions(c, x0, guard)

    def turns(v):
        return float(np.sum(planar_angle_increments(v))) / (2.0 * math.pi)

    value = turns(u)
    err = abs(value - turns(_decimated(u))) + 1e-15 * len(u)
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
