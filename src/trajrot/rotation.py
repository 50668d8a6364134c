"""Rotation of a single curve around a point or an affine subspace.

Both kernels start from the unit directions of
:func:`~trajrot.curves.center_directions`, normalized once per sample.

Absolute rotation is the length of the spherical blow-up.  Each polyline
segment blows up to a great-circle arc of exactly the angle it subtends,
``theta = 2 atan2(s, p)`` from the half-angle norms ``s = |u - v|`` and
``p = |u + v|`` of its two directions that the distance guard already
holds, so the value is ``sum(theta)`` in closed form, with a decimation
and a roundoff term as its error estimate (:func:`absolute_rotation_point`).
One kernel measures a curve around a whole stack of centers, in blocks
of at most ``_BLOCK_ROWS`` center x sample rows; every operation is
elementwise or runs along one center's row, so each center's value,
error estimate and guard verdict are bit for bit those of a call on its
own, and :func:`absolute_rotation_point` is its one-center case.

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

from .curves import (AffineSubspace, Curve, RotationResult, _check_clearance,
                     _decimated, _resolved_guard, _stacked_directions,
                     center_directions, planar_angle_increments,
                     project_to_complement, unit_angles)
from .errors import CodimensionError, DimensionMismatch

# Most center x sample rows one block of the stacked kernel holds (one
# center at least): the blocks' temporaries stay near the size of one
# long curve's, so stacking adds nothing to the process's peak memory.
_BLOCK_ROWS = 2 ** 14
_EPS = float(np.finfo(np.float64).eps)


def _absolute_rotations(c: Curve, centers):
    """Absolute rotation of ``c`` around each row of ``centers``, as the
    arrays ``(value, error_estimate, rmin)``; ``rmin`` is each center's
    exact distance to the polyline, and a center that does not clear the
    caller's guard has a meaningless value.  The value is the sum of the
    angles ``2 atan2(s, p)`` the segments subtend, from one pass of
    :func:`_stacked_directions` per block of centers; see
    :func:`absolute_rotation_point` for the error estimate.
    """
    centers = np.asarray(centers).astype(c.x.dtype)
    n, k = c.n_samples, len(centers)
    value, err = np.empty(k), np.empty(k)
    rmin = np.empty(k, dtype=c.x.dtype)
    step = max(1, _BLOCK_ROWS // n)
    for i in range(0, k, step):
        block = slice(i, i + step)
        u, s, p, rmin[block] = _stacked_directions(c.x, centers[block])
        theta = (2.0 * np.arctan2(s, p)).astype(np.float64, copy=False)
        value[block] = v = np.sum(theta, axis=-1)
        err[block] = n * (2e-15 + _EPS * v)
        if n >= 5:
            ud = _decimated(u)
            dec = unit_angles(ud[:, :-1], ud[:, 1:])
            err[block] += np.abs(v - np.sum(dec.astype(np.float64), axis=-1))
    return value, err, rmin


def absolute_rotation_point(c: Curve, x0, guard: float | None = None) -> RotationResult:
    """Length (radians) of the spherical blow-up of ``c`` centered at ``x0``.

    The blow-up of the polyline consists of great-circle arcs, one per
    segment, of exactly the angle ``theta_i`` the segment subtends at
    ``x0``, so the value is ``sum(theta_i)``.  The error estimate adds
    two terms:

    * decimation: ``|sum(theta) - sum(theta')|``, ``theta'`` the angles
      of the polyline through every other sample (n >= 5), estimates how
      far the polyline may sit from the curve it samples, so monotone
      resampling stays within the combined estimates;
    * roundoff: ``n (2e-15 + eps value)``, eps = 2.2e-16 that of
      float64.  Rounding leaves the unit directions, and so ``s`` and
      ``p``, within a few eps of exact; as ``s^2 + p^2 = 4``, ``theta``
      moves by ``(p ds - s dp) / 2 <= sqrt(2) max(|ds|, |dp|)``, and
      ``atan2`` and the float64 cast add at most 4 eps, so each angle
      stays within about 8 eps < 2e-15.  Summing ``n - 1`` angles in
      [0, pi] in float64, in any order, is off by at most
      ``(n - 2) eps / 2`` times their sum.

    ``guard`` is checked against the exact distance from ``x0`` to the
    polyline; the decimated copy needs none, since a chord of it that
    passes through ``x0`` only subtends pi and shows up in the
    decimation term.
    """
    x0 = np.asarray(x0)
    if x0.shape != (c.dim,):
        raise DimensionMismatch("center must match the curve dimension")
    g = _resolved_guard(guard, c.default_guard())
    value, err, rmin = _absolute_rotations(c, x0[None])
    _check_clearance(rmin[0], g)
    return RotationResult(float(value[0]), float(err[0]), "absolute_radians")


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
