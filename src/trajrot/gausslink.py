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

A pass walks the grid of segment pairs in row chunks of about
``_CHUNK_PAIRS`` pairs.  It costs memory traffic more than arithmetic,
so it allocates one workspace and every chunk writes into it in place:
the corner vectors as one stacked plane, their norms and dot products as
one ``einsum`` each.  Pairs that may sit closer than the guard or than
their own length get their exact distance; a chunk whose nearest corner
lies beyond the largest reach skips that test, which rounding's
monotonicity makes exact.

Windows ``[t0, t]`` of two fixed curves with one shared start ``t0`` (the
nested log-sink shells) need no pass of their own: each window's
polyline is the longest window's up to its own last sample, plus one
interpolated end vertex, and the same holds for the decimated copies.
So :func:`gauss_rotation_nested` evaluates the longest pair's grid once,
sums each window's block of it, and adds the pairs on each window's own
end segments as two thin strips.  :func:`gauss_rotation_pair` is its
one-pair call.

:func:`linking_coefficient` snaps to an integer only when the error bar
cannot reach another one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (Curve, RotationResult, _decimated, _resolved_guard,
                     _rowdot, point_segment_distances)
from .errors import (CurvesTooClose, DimensionMismatch, NonTransversal,
                     NotClosed, NotPlanar, QuadratureInconclusive,
                     SampleBudgetExceeded)
from .rotation import signed_winding_plane

# Segment pairs per row chunk of the vertex grid; keeps the workspace
# planes near cache size.
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


class _Polyline:
    """Centered polyline vertices ``x`` (and ``y``, their transpose) with
    the per-segment terms the kernel reuses: directions ``d``, their
    lengths, and ``a = p x d`` for each segment's first vertex ``p``."""

    __slots__ = ("x", "y", "d", "length", "a", "a_norm")

    def __init__(self, x):
        self.x = x
        self.y = x.T.copy()
        self.d = np.diff(x, axis=0)
        self.length = np.linalg.norm(self.d, axis=1)
        self.a = np.cross(x[:-1], self.d)
        self.a_norm = np.linalg.norm(self.a, axis=1)


def _chunk_angles(s1, s2, guard):
    """Solid angles of all segment pairs (i, j) of two centered polylines,
    yielded one row chunk ``i0 <= i < i1`` at a time as
    ``(i0, vals, i, j, conds)``: the grid ``vals[i - i0, j]``, the pairs
    flagged as close ``(i - i0, j)`` and each triangle's condition number
    on them.

    Segment pair (i, j) has corners ``r_ab = x1[i+a] - x2[j+b]``.  Its
    value is ``atan2(N, D1) + atan2(N, D2)`` with the common numerator
    ``N = <p1 - p2, d1 x d2>`` and the Van Oosterom-Strackee denominators
    of the triangles (r00, r10, r11) and (r00, r11, r01).  A pair whose
    corner distance cannot rule out an approach within ``guard`` or
    within its own length ``l1 + l2`` gets its exact segment distance:
    the guard is checked against it, and it sets the pair's conditioning.

    The pass is bound by memory traffic, not arithmetic, so each call
    allocates one workspace of ``min(rows, n1)`` chunk rows (a thin strip
    gets a thin one) and every chunk writes into it in place.  ``vals``
    is a view of that workspace: it holds until the next chunk is drawn.
    """
    n1, n2 = len(s1.d), len(s2.d)
    rows = max(1, _CHUNK_PAIRS // n2)
    reach1 = 2.0 * s1.length + guard
    reach2 = 2.0 * s2.length
    reach2_max = reach2.max()
    m = min(rows, n1)
    # corner vectors (one plane per coordinate), corner distances, the
    # dot products of corners along an edge of the grid cell, and the
    # (m, n2) planes of one chunk's pairs, allocated one by one like the
    # temporaries they replace (one 6-plane block, once freed, raises
    # glibc's mmap and trim thresholds for the rest of the process)
    corners = np.empty((3, m + 1, n2 + 1))
    norms = np.empty((m + 1, n2 + 1))
    edges1, edges2 = np.empty((m, n2 + 1)), np.empty((m + 1, n2))
    planes = [np.empty((m, n2)) for _ in range(6)]
    for i0 in range(0, n1, rows):
        i1 = min(i0 + rows, n1)
        h = i1 - i0
        c = corners[:, :h + 1]
        np.subtract(s1.y[:, i0:i1 + 1, None], s2.y[:, None], out=c)
        R = np.einsum("kij,kij->ij", c, c, out=norms[:h + 1])
        np.sqrt(R, out=R)
        e1 = np.einsum("kij,kij->ij", c[:, :-1], c[:, 1:], out=edges1[:h])
        e2 = np.einsum("kij,kij->ij", c[:, :, :-1], c[:, :, 1:],
                       out=edges2[:h + 1])
        dg, numer, den1, den2, vals, tmp = (p[:h] for p in planes)
        np.einsum("kij,kij->ij", c[:, :-1, :-1], c[:, 1:, 1:], out=dg)
        r00, r10, r01, r11 = (R[:-1, :-1], R[1:, :-1], R[:-1, 1:],
                              R[1:, 1:])

        # N = <p1 x d1, d2> + <d1, p2 x d2>: two small matmuls
        np.matmul(s1.a[i0:i1], s2.d.T, out=numer)
        numer += np.matmul(s1.d[i0:i1], s2.a.T, out=tmp)
        # D1 = (r00 r10 + e1) r11 + dg r10 + e2 r00, left to right
        np.multiply(r00, r10, out=den1)
        den1 += e1[:, :-1]
        den1 *= r11
        den1 += np.multiply(dg, r10, out=tmp)
        den1 += np.multiply(e2[1:], r00, out=tmp)
        # D2 = (r00 r11 + dg) r01 + e2 r11 + e1 r00, left to right
        np.multiply(r00, r11, out=den2)
        den2 += dg
        den2 *= r01
        den2 += np.multiply(e2[:-1], r11, out=tmp)
        den2 += np.multiply(e1[:, 1:], r00, out=tmp)
        np.arctan2(numer, den1, out=vals)
        vals += np.arctan2(numer, den2, out=tmp)

        # distance >= r00 - (l1 + l2): unflagged pairs lie farther apart
        # than the guard and than their own length, and their condition
        # number is counted as 1.  A flagged pair's triangle has one of
        # (R1 R2 R3 + |N|_size |D| / |(N, D)|) / |(N, D)|, where |N|_size
        # is the size of the two summands that make up N.  Rounding is
        # monotone, so no pair's sum of reaches exceeds the rounded sum of
        # the largest ones: a chunk whose nearest corner lies beyond that
        # flags no pair.  A NaN fails the screen and takes the mask.
        if r00.min() > reach1[i0:i1].max() + reach2_max:
            i = j = np.empty(0, dtype=np.intp)
        else:
            i, j = np.nonzero(
                r00 <= np.add(reach1[i0:i1, None], reach2, out=tmp))
        conds = []
        if len(i):
            k = i + i0
            dist = _segment_distances(s1.x[k], s1.d[k], s2.x[j], s2.d[j])
            closest = float(np.min(dist))
            if closest <= guard:
                raise CurvesTooClose(
                    f"curves approach within {closest:.3g} "
                    f"(guard {guard:.3g})")
            n = numer[i, j]
            n_size = (s1.a_norm[k] * s2.length[j]
                      + s1.length[k] * s2.a_norm[j])
            for den, far in ((den1[i, j], r10[i, j]),
                             (den2[i, j], r01[i, j])):
                size = np.hypot(n, den)
                conds.append((r00[i, j] * r11[i, j] * far
                              + n_size * np.abs(den) / size) / size)
        yield i0, vals, i, j, conds


def _pair_solid_angles(x1, x2, absolute, guard, cuts):
    """Exact Gauss double integral of pairs of polylines cut from ``x1``
    and ``x2``, times 4 pi, each with a bound on its roundoff (radians).

    A cut ``((p1, e1), (p2, e2))`` is the pair ``x1[:p1]``, ``x2[:p2]``,
    each followed by its own end vertex ``e`` unless that is None.  One
    chunked pass over the grid of prefix segments serves every cut: each
    cut sums its own block of the grid, and the pairs on its own end
    segments are added as two thin strips.  The guard is checked on every
    evaluated pair; a guard of ``-inf`` flags no pair and checks nothing.
    """
    # translation leaves N unchanged; centering keeps p1 x d1 small
    center = 0.5 * (x1.mean(axis=0) + x2.mean(axis=0))
    s1 = _Polyline(x1[:max(c1[0] for c1, _ in cuts)] - center)
    s2 = _Polyline(x2[:max(c2[0] for _, c2 in cuts)] - center)
    blocks = [(p1 - 1, p2 - 1) for (p1, _), (p2, _) in cuts]
    partials = [[] for _ in cuts]
    conditioning = [float(a * b) for a, b in blocks]
    for i0, vals, i, j, conds in _chunk_angles(s1, s2, guard):
        if absolute:
            np.abs(vals, out=vals)
        for k, (a, b) in enumerate(blocks):
            if a <= i0:
                continue
            inside = (i < a - i0) & (j < b)
            for cond in conds:
                conditioning[k] += float(np.sum(cond[inside]))
            partials[k].append(float(np.sum(vals[:a - i0, :b])))

    def cut(s, p, e):
        return s.x[:p] if e is None else np.vstack([s.x[:p], e - center])

    for k, ((p1, e1), (p2, e2)) in enumerate(cuts):
        y1, y2 = cut(s1, p1, e1), cut(s2, p2, e2)
        # strips: c1's end segment against all of c2, then c1's prefix
        # against c2's end segment (each empty without its own end vertex)
        for z1, z2 in ((y1[p1 - 1:], y2), (y1[:p1], y2[p2 - 1:])):
            if len(z1) < 2 or len(z2) < 2:
                continue
            for _, vals, _, _, conds in _chunk_angles(
                    _Polyline(z1), _Polyline(z2), guard):
                conditioning[k] += vals.size + sum(float(np.sum(c))
                                                   for c in conds)
                partials[k].append(float(np.sum(np.abs(vals) if absolute
                                                else vals)))
    return [(2.0 * math.fsum(p), _ROUNDOFF_ULPS * math.ulp(1.0) * c)
            for p, c in zip(partials, conditioning)]


def _cut(base, x):
    """Polyline ``x`` as a cut of ``base``: ``(p, None)`` when it is
    ``base[:p]``, ``(p, e)`` when it is ``base[:p]`` followed by its own
    end vertex ``e``."""
    n = len(x)
    if not np.array_equal(x[:-1], base[:n - 1]):
        raise ValueError("each curve must follow the longest one up to its "
                         "own last sample")
    if np.array_equal(x[-1], base[n - 1]):
        return n, None
    return n - 1, x[-1].copy()  # not a view that keeps x alive


def gauss_rotation_nested(pairs, mode: str = "signed",
                          guard: float | None = None) -> list[RotationResult]:
    """:func:`gauss_rotation_pair` of several curve pairs that share their
    start, from one pass over the segment grid of the longest pair.

    Every first curve must equal the longest first curve up to its own
    last sample, and likewise every second curve; windows ``[t0, t]`` of
    two fixed curves with a shared ``t0`` are such pairs.  Each pair is
    then a block of the longest pair's grid plus two thin strips for its
    own end segments, so the pass costs one evaluation of the longest
    grid plus O(n) per pair.  The guard (by default that of the longest
    curves, which is at least any pair's own) is checked on every pair
    of the polylines' segments.  The decimated copies need none: a chord
    of one that passes through the other curve only moves the decimation
    term.
    """
    if mode not in ("signed", "absolute"):
        raise ValueError("mode must be 'signed' or 'absolute'")
    pairs = list(pairs)
    if any(c.dim != 3 for pair in pairs for c in pair):
        raise DimensionMismatch("mutual rotation requires curves in 3-space")
    base1 = max((c1 for c1, _ in pairs), key=lambda c: c.n_samples)
    base2 = max((c2 for _, c2 in pairs), key=lambda c: c.n_samples)
    grid = (base1.n_samples - 1) * (base2.n_samples - 1)
    if grid > _PAIR_BUDGET:
        raise SampleBudgetExceeded(
            f"{grid} segment pairs exceed the budget of {_PAIR_BUDGET}")
    # the kernel is float64, whatever the curves' dtype
    g = float(_resolved_guard(guard, max(base1.default_guard(),
                                         base2.default_guard())))
    absolute = mode == "absolute"
    xs = [tuple(c.x.astype(np.float64, copy=False) for c in pair)
          for pair in pairs]
    x1, x2 = (c.x.astype(np.float64, copy=False) for c in (base1, base2))
    full = _pair_solid_angles(x1, x2, absolute, g,
                              [(_cut(x1, y1), _cut(x2, y2)) for y1, y2 in xs])
    x1, x2 = _decimated(x1), _decimated(x2)
    dec = _pair_solid_angles(x1, x2, absolute, -math.inf,
                             [(_cut(x1, _decimated(y1)),
                               _cut(x2, _decimated(y2))) for y1, y2 in xs])
    results = []
    for (v, roundoff), (v_dec, _) in zip(full, dec):
        err = (abs(v - v_dec) + roundoff) / (4 * math.pi) + 1e-12
        results.append(RotationResult(v / (4 * math.pi), err, "gauss_turns"))
    return results


def gauss_rotation_pair(c1: Curve, c2: Curve, mode: str = "signed",
                        guard: float | None = None) -> RotationResult:
    """Signed or absolute mutual rotation of two curves in 3-space,
    in turns (the 1/4pi normalization is built in).

    The polyline integral is exact; the error estimate is the change
    under decimating both curves (a sampling term) plus roundoff.
    """
    return gauss_rotation_nested([(c1, c2)], mode, guard)[0]


def linking_coefficient(c1: Curve, c2: Curve,
                        guard: float | None = None) -> LinkingResult:
    """Gauss integral of two disjoint closed curves with integer snap.

    The snap is asserted, not assumed: if the residual to the nearest
    integer reaches ``max(0.1, 3 * error_estimate)``, or the error bar
    reaches halfway to the next integer (``residual + error_estimate >=
    0.5``, so the bar holds two integers), the quadrature is declared
    inconclusive instead of rounding garbage.
    """
    if not (c1.closed and c2.closed):
        raise NotClosed("linking coefficient requires two closed curves")
    rr = gauss_rotation_pair(c1, c2, "signed", guard=guard)
    nearest = int(round(rr.value))
    residual = abs(rr.value - nearest)
    if (residual >= max(0.1, 3.0 * rr.error_estimate)
            or residual + rr.error_estimate >= 0.5):
        raise QuadratureInconclusive(
            f"no integer snap: residual {residual:.3g} "
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
