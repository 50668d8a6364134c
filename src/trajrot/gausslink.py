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

Most of a grid is far from any close pair, and there the cells need not
be evaluated one by one.  Solid angle is additive, so a tile of the grid
sums to the solid angle of the surface its cells tile, and where all its
corners lie in one open half-space that is exactly the fan of triangles
from an apex in that half-space over the tile's boundary edges: ``4B``
triangles for ``B^2`` cells.  The pass cuts the grid into tiles of at
most ``_TILE`` segments a side and sums a tile by its fan when its two
vertex runs lie farther apart than any pair of it could be flagged (so
the guard could not fire there), when the fan is at most as
ill-conditioned as the cells it replaces, and, in absolute mode, when
every pair's numerator has one certified sign.  Every other tile goes
through the direct pass, run by run, and the roundoff term keeps its
value (:func:`_pair_solid_angles`).

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
# Most segments per side of a tile of the grid, which may be summed by
# its boundary fan (see _pair_solid_angles).  On the sink shells' grids,
# 64 took the least time of 24 to 128.
_TILE = 64


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

    def run(self, i0, i1):
        """Segments ``i0 <= i < i1`` as a polyline of their own, sliced."""
        s = _Polyline.__new__(_Polyline)
        s.x, s.y = self.x[i0:i1 + 1], self.y[:, i0:i1 + 1]
        s.d, s.length, s.a, s.a_norm = (v[i0:i1] for v in (
            self.d, self.length, self.a, self.a_norm))
        return s


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


def _tiles(s, edges):
    """One side of the tiled grid: tile edges that cut the gap between
    each two consecutive ``edges`` (and 0) into near-equal runs of at most
    ``_TILE`` segments, and per run the bounding ball of its vertices
    (the box center and the largest distance from it), its longest
    segment and the largest norm of a segment's first vertex."""
    cut = [0]
    for e in sorted(edges):
        start, span = cut[-1], e - cut[-1]
        parts = -(-span // _TILE)
        cut += [start + span * q // parts for q in range(1, parts + 1)]
    cut = np.array(cut)
    first, last = cut[:-1], cut[1:]
    x = s.x
    center = 0.5 * (np.minimum(np.minimum.reduceat(x, first), x[last])
                    + np.maximum(np.maximum.reduceat(x, first), x[last]))
    own = np.linalg.norm(x[:-1] - np.repeat(center, np.diff(cut), axis=0),
                         axis=1)
    radius = np.maximum(np.maximum.reduceat(own, first),
                        np.linalg.norm(x[last] - center, axis=1))
    return (cut, center, radius, np.maximum.reduceat(s.length, first),
            np.maximum.reduceat(np.linalg.norm(x[:-1], axis=1), first))


def _fan_sides(c, p, e):
    """Fan triangles ``(p, u, v)`` over consecutive corners ``u, v``
    along the last axis of ``c`` (coordinates first, the other side's
    tile edges second) from the unit apexes ``p`` of the tiles: their
    half solid angles ``atan2(N, D)`` summed over each run between the
    edges ``e``, at each tile's far edge less at its near edge.

    In unit corners ``N = <p, u x v>`` and ``D = 1 + <u, v> + <p, u + v>``
    (Van Oosterom-Strackee over ``|p| |u| |v|``), so only ``<p, u + v>``
    and ``N`` differ between the two tiles that meet at an edge."""
    # a corner of a tile that goes direct may vanish
    r = np.sqrt(np.einsum("kij,kij->ij", c, c))
    c = c / np.where(r > 0.0, r, 1.0)
    u, v = c[..., :-1], c[..., 1:]
    base = np.einsum("kij,kij->ij", u, v)
    base += 1.0
    x = np.empty(u.shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(u[j], v[k], out=x[i])
        x[i] -= u[k] * v[j]
    u = u + v
    p = np.repeat(p, np.diff(e), axis=2)
    sides = []
    for k in (slice(None, -1), slice(1, None)):
        den = np.einsum("kij,kij->ij", p, u[:, k])
        den += base[k]
        sides.append(np.arctan2(np.einsum("kij,kij->ij", p, x[:, k]), den,
                                out=den))
    return np.add.reduceat(sides[1] - sides[0], e[:-1] - e[0], axis=1)


def _fans(s1, s2, e1, e2, apex):
    """Cell sums of the tiles between the row edges ``e1`` and the column
    edges ``e2`` of the grid, by their boundary fans from the unit
    ``apex`` directions (one per tile, coordinates last).

    A cell ``r00 -> r10 -> r11 -> r01`` holds minus the half solid angle
    of that loop, so a tile holds minus the fan of its boundary in the
    same order: along ``x1`` at its first column, along ``x2`` at its last
    row, and back along the other two sides.  The two tiles that meet at
    a side share its corners, their norms and dot products.
    """
    p = np.moveaxis(apex, 2, 0)
    i0, i1, j0, j1 = e1[0], e1[-1], e2[0], e2[-1]
    along1 = _fan_sides(s1.y[:, None, i0:i1 + 1] - s2.y[:, e2, None],
                        p.transpose(0, 2, 1), e1)
    along2 = _fan_sides(s1.y[:, e1, None] - s2.y[:, None, j0:j1 + 1], p, e2)
    return along1.T - along2


def _tiled_angles(s1, s2, absolute, guard, rows, cols):
    """Solid angles of the grid of segment pairs of two centered
    polylines by tiles (see :func:`_pair_solid_angles`), yielded one block
    at a time as ``(i0, j0, vals, i, j, conds)``: the values ``vals`` of
    the grid from row ``i0`` and column ``j0`` on (absolute in absolute
    mode), the flagged pairs ``(i, j)`` relative to ``(i0, j0)`` and
    their condition numbers.

    Tile edges include ``rows`` and ``cols``, so every tile lies inside or
    outside each block a cut sums.  The fan-summed tiles of a tile row
    come as one row of values that holds each one's sum at its first
    column; every other run of adjacent tiles of a tile row goes through
    :func:`_chunk_angles`, and a grid without a tile to sum by its fan
    goes through it whole.  The fans are evaluated for groups of tile rows
    whose planes hold about an eighth of ``_CHUNK_PAIRS`` values, so their
    temporaries stay within the size of a chunk's workspace.
    """
    e1, c1, rho1, l1, far1 = _tiles(s1, rows)
    e2, c2, rho2, l2, far2 = _tiles(s2, cols)
    h, w = np.diff(e1)[:, None], np.diff(e2)
    apex = c1[:, None] - c2
    dist = np.linalg.norm(apex, axis=2)
    rho = rho1[:, None] + rho2
    gap = dist - rho
    reach = 2.0 * l1[:, None] + max(guard, 0.0) + 2.0 * l2
    # (a), the fan's conditioning, and sides of at least half a tile
    fan = ((gap > reach * (1.0 + 1e-12) + 1e-12 * (dist + rho))
           & ((h + w) * (gap + 2.0 * rho) ** 2 <= h * w * gap * (gap + rho))
           & (2 * np.minimum(h, w) >= _TILE))
    if not fan.any():
        for i0, vals, i, j, conds in _chunk_angles(s1, s2, guard):
            if absolute:
                np.abs(vals, out=vals)
            yield i0, 0, vals, i, j, conds
        return
    unit = apex / np.where(fan, dist, 1.0)[..., None]
    n2 = len(s2.d)
    if absolute:
        tol = 16.0 * np.finfo(float).eps * (l1[:, None] * l2
                                            * (far1[:, None] + far2))
        # N = <p1 x d1, d2> + <d1, p2 x d2> as one matmul
        left = np.hstack([s1.a, s1.d])
        right = np.vstack([s2.d.T, s2.a.T])
        numer = np.empty((h.max(), n2))
    group = max(1, _CHUNK_PAIRS // (8 * _TILE * len(e2)))
    for r, (i0, i1) in enumerate(zip(e1[:-1], e1[1:])):
        if r % group == 0:
            g = slice(r, r + group)
            sums = _fans(s1, s2, e1[r:r + group + 1], e2, unit[g]) \
                if fan[g].any() else None
        take, sign = fan[r], 1.0
        if absolute and take.any():
            nr = np.matmul(left[i0:i1], right, out=numer[:i1 - i0])
            lo = np.minimum.reduceat(nr.min(axis=0), e2[:-1])
            hi = np.maximum.reduceat(nr.max(axis=0), e2[:-1])
            sign = (lo > tol[r]) * 1.0 - (hi < -tol[r])
            take = take & (sign != 0.0)
            sign = sign[take]
        if take.any():
            row = np.zeros((1, n2))
            row[0, e2[:-1][take]] = sign * sums[r % group, take]
            none = np.empty(0, dtype=np.intp)
            yield i0, 0, row, none, none, []
        edges = np.flatnonzero(np.diff(np.concatenate(([0], ~take, [0]))))
        for t0, t1 in zip(edges[::2], edges[1::2]):
            j0 = e2[t0]
            for k0, vals, i, j, conds in _chunk_angles(
                    s1.run(i0, i1), s2.run(j0, e2[t1]), guard):
                if absolute:
                    np.abs(vals, out=vals)
                yield i0 + k0, j0, vals, i, j, conds


def _pair_solid_angles(x1, x2, absolute, guard, cuts):
    """Exact Gauss double integral of pairs of polylines cut from ``x1``
    and ``x2``, times 4 pi, each with a bound on its roundoff (radians).

    A cut ``((p1, e1), (p2, e2))`` is the pair ``x1[:p1]``, ``x2[:p2]``,
    each followed by its own end vertex ``e`` unless that is None.  One
    pass over the grid of prefix segments serves every cut: each cut sums
    its own block of the grid, and the pairs on its own end segments are
    added as two thin strips.  The guard is checked on every evaluated
    pair; a guard of ``-inf`` flags no pair and checks nothing.

    The block pass is tiled (:func:`_tiled_angles`).  Solid angle is
    additive, so the cells of a tile sum to the solid angle of the
    surface they tile.  Where every corner ``r`` of the tile has
    ``<r, P> > 0`` for one apex ``P``, that is exactly the fan of the
    triangles ``(P, u, v)`` over the tile's ``2(h + w)`` boundary edges:
    in that open half-space the gnomonic projection makes solid angle a
    signed area with a positive density, and the interior edges cancel.
    A tile with both sides at least ``_TILE / 2`` (so each fan triangle
    replaces at least ``_TILE / 8`` cells) is summed by its fan when

    (a) the bounding balls of its two vertex runs, centers ``c1``, ``c2``
        and radii summing to ``rho``, have a gap ``|c1 - c2| - rho``
        beyond the largest reach ``2 l1 + guard + 2 l2`` over the tile
        (guard 0 for ``-inf``), with a relative margin of 1e-12 that
        covers the rounding of the distances on both sides.  Then the
        direct pass would flag no pair of the tile and its guard could
        not fire there, and ``P = c1 - c2`` gives the half-space:
        ``<r, P> >= |P| gap`` at every corner.
    (b) in absolute mode, its numerators ``N = <p1 x d1, d2> + <d1, p2 x
        d2>`` all have one certified sign.  They come as one 6-term
        matmul of the direct kernel's ``a = p x d`` and ``d``.  The
        computed ``d`` is within ``eps/2 |d|`` of the exact difference,
        ``a`` within ``5 eps/2 |p| |d|`` of the exact ``p x d``, and the
        6-term sum adds at most ``3 eps`` of ``(|p1| + |p2|) l1 l2``, so
        the computed ``N`` is within ``6 eps (|p1| + |p2|) l1 l2`` of the
        exact one, to first order.  The screen asks every ``|N|`` of the
        tile to exceed ``16 eps max(|p1| + |p2|) max l1 max l2``, with
        one sign.  ``|Omega_ij|`` has the sign of ``N_ij``, so the tile's
        absolute sum is its fan times that sign.

    Every other tile goes direct, so flagging, the guard and the
    conditioning of flagged pairs are those of one direct pass.

    Roundoff.  Each telescoped cell still counts condition number 1, as
    the direct pass counts every unflagged pair, so the roundoff term
    keeps its value.  Every corner lies within ``gap + 2 rho`` of the
    origin and at least ``gap`` along ``P``, so its angle to ``P`` has
    cosine at least ``c = gap / (gap + 2 rho)``.  Each of the four terms
    of a fan triangle's denominator is then at least its share of ``D >=
    2 c (1 + c) |P| |u| |v|``, and the triangle's condition number
    ``(|P| |u| |v| + |N|_size |D| / |(N, D)|) / |(N, D)|``, with
    ``|N|_size <= |P| |u| |v|``, is at most ``1 / (c (1 + c))``.  The fan
    works in unit vectors, which adds an ulp or two to each corner and
    so stays within that count.  A tile is summed by its fan only where
    the fan's condition numbers, ``2 (h + w) / (c (1 + c))`` in all,
    stay within the ``h w`` its cells count.  So at the same rate of
    ``_ROUNDOFF_ULPS`` per unit, the fan errs by no more than the cells
    it replaces may.  A full tile needs ``c`` above about ``4 / _TILE``
    for this, while (a) alone leaves ``c`` as low as ``1 / (_TILE + 1)``
    (a ball holds a run of ``_TILE`` segments within ``_TILE`` lengths).
    """
    # translation leaves N unchanged; centering keeps p1 x d1 small
    center = 0.5 * (x1.mean(axis=0) + x2.mean(axis=0))
    s1 = _Polyline(x1[:max(c1[0] for c1, _ in cuts)] - center)
    s2 = _Polyline(x2[:max(c2[0] for _, c2 in cuts)] - center)
    blocks = [(p1 - 1, p2 - 1) for (p1, _), (p2, _) in cuts]
    partials = [[] for _ in cuts]
    conditioning = [float(a * b) for a, b in blocks]
    tiles = (_tiled_angles(s1, s2, absolute, guard, *map(set, zip(*blocks)))
             if len(s1.d) and len(s2.d) else ())
    for i0, j0, vals, i, j, conds in tiles:
        for k, (a, b) in enumerate(blocks):
            if a <= i0 or b <= j0:
                continue
            inside = (i < a - i0) & (j < b - j0)
            for cond in conds:
                conditioning[k] += float(np.sum(cond[inside]))
            partials[k].append(float(np.sum(vals[:a - i0, :b - j0])))

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
