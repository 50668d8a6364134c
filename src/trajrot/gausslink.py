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
every pair's numerator has one certified sign.  A tile that fails is
split into halves on each side, down to ``_MIN_TILE`` segments, and
each half is tested the same way: every level takes its signs from the
least and largest numerators of the finest tiles.  The fans share each
tile edge between the two tiles on its sides, and only the edges of
summed tiles are evaluated.

The tiles left over, and the thin strips below, go through one direct
kernel cell by cell, a stack of equal-shape tiles at a time: the corner
vectors as one plane per coordinate, their norms and dot products as one
``einsum`` each, all written in place into one workspace of about
``_CHUNK_PAIRS`` pairs, since the pass costs memory traffic more than
arithmetic.  Pairs that may sit closer than the guard or than their own
length get their exact distance; a stack whose nearest corner lies
beyond the largest reach skips that test, which rounding's monotonicity
makes exact.  Every summed cell still counts as one pair of the direct
pass, so the roundoff term keeps its value (:func:`_pair_solid_angles`).

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

# Segment pairs per stack of tiles of the direct kernel; keeps the
# workspace planes near cache size.
_CHUNK_PAIRS = 50_000
# Most segment pairs one call may evaluate (about a minute of work).
_PAIR_BUDGET = 1_000_000_000
# Roundoff of one pair's solid angle, in machine epsilons times its
# condition number.  Against 40-digit evaluations of the same formula the
# worst observed factor was about 4.
_ROUNDOFF_ULPS = 32.0
# Most segments per side of a tile of the grid, which may be summed by
# its boundary fan (see _pair_solid_angles).  On the sink shells' grids,
# 64 took the least time of 24 to 128 without halving, and of 64, 96 and
# 128 with it.
_TILE = 64
# A tile that fails its fan test is halved on each side while the halves
# have at most _TILE >> level and at least _MIN_TILE segments a side.
_MIN_TILE = 16


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
    lengths, ``a = p x d`` for each segment's first vertex ``p`` and the
    norm of ``a``.  ``ad`` stacks ``(a, d)`` by rows and ``da`` ``(d, a)``
    by columns, so that ``N = <p1 x d1, d2> + <d1, p2 x d2>`` is the
    product of a row of one polyline's ``ad`` and a column of the other's
    ``da``."""

    __slots__ = ("x", "y", "d", "length", "a_norm", "ad", "da")

    def __init__(self, x):
        self.x = x
        self.y = x.T.copy()
        self.d = np.diff(x, axis=0)
        self.length = np.linalg.norm(self.d, axis=1)
        a = np.cross(x[:-1], self.d)
        self.a_norm = np.linalg.norm(a, axis=1)
        self.ad = np.hstack([a, self.d])
        self.da = np.vstack([self.d.T, a.T])


def _direct_angles(s1, s2, absolute, guard, tiles):
    """Solid angles of the segment pairs of ``tiles`` of the grid of two
    centered polylines, cell by cell.  ``tiles`` holds the arrays ``(i0,
    i1, j0, j1)``, one entry per tile of the pairs ``i0 <= i < i1``, ``j0
    <= j < j1``.  The tiles come back one stack at a time as ``(k, sums,
    excess, i, j)``: the stack's tile indices ``k``, the sums of their
    cells' values (of their absolute values in absolute mode), the sums of
    the condition numbers of their flagged pairs, and the flagged pairs
    ``(i, j)`` of the grid.

    Segment pair (i, j) has corners ``r_ab = x1[i+a] - x2[j+b]``.  Its
    value is ``atan2(N, D1) + atan2(N, D2)`` with the common numerator
    ``N = <p1 - p2, d1 x d2>`` and the Van Oosterom-Strackee denominators
    of the triangles (r00, r10, r11) and (r00, r11, r01).  A pair whose
    corner distance cannot rule out an approach within ``guard`` or
    within its own length ``l1 + l2`` gets its exact segment distance:
    the guard is checked against it, and it sets the pair's conditioning.

    A stack holds tiles of about one shape (see :func:`_stacks`), each
    padded to the stack's longest sides by repeating its last vertices,
    and the tiles run along the last axis of every plane.  Padded cells
    are masked out of the sums and the flags.  The pass is bound by memory
    traffic, not arithmetic, so each call allocates one workspace of at
    most ``_CHUNK_PAIRS`` corners a plane (or one tile's) and every stack
    writes into it in place.
    """
    i0, i1, j0, j1 = tiles
    h, w = i1 - i0, j1 - j0
    # a quarter of _CHUNK_PAIRS corners a stack keeps the workspace of
    # small tiles small; tiles of side _TILE keep a long last axis
    stacks = list(_stacks(h, w, lambda H, W: min(4 * (H + 1) * (W + 1),
                                                 (_TILE + 1) ** 2)))
    size = max(len(k) * (H + 1) * (W + 1) for k, H, W in stacks)
    cells = max(len(k) * H * W for k, H, W in stacks)
    reach1 = 2.0 * s1.length + guard
    reach2 = 2.0 * s2.length
    # corner vectors (one plane per coordinate, later the numerators and
    # denominators), corner distances, the dot products of corners along
    # an edge of the grid cell, and the planes of one stack's pairs,
    # allocated one by one like the temporaries they replace (one block
    # of planes, once freed, raises glibc's mmap and trim thresholds for
    # the rest of the process)
    corners = np.empty(3 * size)
    norms, edges1, edges2 = np.empty(size), np.empty(size), np.empty(size)
    planes = [np.empty(cells) for _ in range(3)]
    for k, H, W in stacks:
        K, a0, b0, hk, wk = len(k), i0[k], j0[k], h[k], w[k]
        rows, cols = np.arange(H + 1)[:, None], np.arange(W + 1)[:, None]
        # vertex and segment indices, padded by repeating the last ones
        I, J = a0 + np.minimum(rows, hk), b0 + np.minimum(cols, wk)
        Is = a0 + np.minimum(rows[:-1], hk - 1)
        Js = b0 + np.minimum(cols[:-1], wk - 1)
        c = corners[:3 * (H + 1) * (W + 1) * K].reshape(3, H + 1, W + 1, K)
        # -r = x2 - x1: only norms and dot products of corners enter
        np.copyto(c, s2.y[:, J][:, None])
        c -= s1.y[:, I][:, :, None]
        R = np.einsum("xijk,xijk->ijk", c, c,
                      out=norms[:c[0].size].reshape(c[0].shape))
        np.sqrt(R, out=R)
        e1 = np.einsum("xijk,xijk->ijk", c[:, :-1], c[:, 1:],
                       out=edges1[:H * (W + 1) * K].reshape(H, W + 1, K))
        e2 = np.einsum("xijk,xijk->ijk", c[:, :, :-1], c[:, :, 1:],
                       out=edges2[:(H + 1) * W * K].reshape(H + 1, W, K))
        m = H * W * K
        dg, vals, tmp = (p[:m].reshape(H, W, K) for p in planes)
        np.einsum("xijk,xijk->ijk", c[:, :-1, :-1], c[:, 1:, 1:], out=dg)
        r00, r10, r01, r11 = R[:-1, :-1], R[1:, :-1], R[:-1, 1:], R[1:, 1:]
        numer, den1, den2 = (corners[q * m:(q + 1) * m].reshape(H, W, K)
                             for q in range(3))

        # N = <p1 x d1, d2> + <d1, p2 x d2>: one 6-term matmul per tile
        np.matmul(np.take(s1.ad, Is.T, axis=0),
                  np.take(s2.da, Js.T, axis=1).transpose(1, 0, 2),
                  out=planes[1][:m].reshape(K, H, W))
        np.copyto(numer, planes[1][:m].reshape(K, H, W).transpose(1, 2, 0))
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
        if absolute:
            np.abs(vals, out=vals)
        # padded rows and columns weigh 0; their cells are finite, since
        # their corners are the tile's own
        in_row = (rows[:-1] < hk).astype(float)
        in_col = (cols[:-1] < wk).astype(float)
        sums = np.einsum("ik,ik->k", np.einsum("ijk,jk->ik", vals, in_col),
                         in_row)

        # distance >= r00 - (l1 + l2): unflagged pairs lie farther apart
        # than the guard and than their own length, and their condition
        # number is counted as 1.  A flagged pair's triangle has one of
        # (R1 R2 R3 + |N|_size |D| / |(N, D)|) / |(N, D)|, where |N|_size
        # is the size of the two summands that make up N.  Rounding is
        # monotone, so no pair's sum of reaches exceeds the rounded sum of
        # the stack's largest ones: a stack whose nearest corner (padded
        # ones are its tiles' own) lies beyond that flags no pair.  A NaN
        # fails the screen and takes the mask.
        excess = np.zeros(K)
        rs1, rs2 = reach1[Is], reach2[Js]
        if R.min() > rs1.max() + rs2.max():
            a = b = t = np.empty(0, dtype=np.intp)
        else:
            a, b, t = np.nonzero(r00 <= np.add(rs1[:, None], rs2, out=tmp))
            real = (a < hk[t]) & (b < wk[t])
            a, b, t = a[real], b[real], t[real]
        i, j = a0[t] + a, b0[t] + b
        if len(t):
            dist = _segment_distances(s1.x[i], s1.d[i], s2.x[j], s2.d[j])
            closest = float(np.min(dist))
            if closest <= guard:
                raise CurvesTooClose(
                    f"curves approach within {closest:.3g} "
                    f"(guard {guard:.3g})")
            n = numer[a, b, t]
            n_size = (s1.a_norm[i] * s2.length[j]
                      + s1.length[i] * s2.a_norm[j])
            cond = 0.0
            for den, far in ((den1[a, b, t], R[a + 1, b, t]),
                             (den2[a, b, t], R[a, b + 1, t])):
                mag = np.hypot(n, den)
                cond = cond + (R[a, b, t] * R[a + 1, b + 1, t] * far
                               + n_size * np.abs(den) / mag) / mag
            excess = np.bincount(t, weights=cond, minlength=K)
        yield k, sums, excess, i, j


def _split(edges):
    """Tile edges that cut the gap between each two consecutive ``edges``
    (and 0) into near-equal runs of at most ``_TILE`` segments."""
    cut = [0]
    for e in sorted(edges):
        start, span = cut[-1], e - cut[-1]
        parts = -(-span // _TILE)
        cut += [start + span * q // parts for q in range(1, parts + 1)]
    return np.array(cut)


def _level_cuts(edges):
    """Tile edges of one side of the grid at each level: level 0 is
    :func:`_split`, and each level ``l`` after it halves every run longer
    than ``_TILE >> l``, while that is at least ``_MIN_TILE``.  Every
    level's edges hold those of the levels above."""
    cuts = [_split(edges)]
    while _TILE >> len(cuts) >= _MIN_TILE:
        side = _TILE >> len(cuts)
        c = cuts[-1]
        n = c[1:] - c[:-1]
        long = n > side
        cuts.append(np.sort(np.concatenate([c, c[:-1][long]
                                            + n[long] // 2])))
    return cuts


def _runs(s, cut):
    """Per run of segments between consecutive ``cut`` edges: the bounding
    ball of its vertices (the box center and the largest distance from
    it), its longest segment and the largest norm of a segment's first
    vertex."""
    first, last = cut[:-1] - cut[0], cut[1:] - cut[0]
    y = s.y[:, cut[0]:cut[-1] + 1]
    center = 0.5 * (np.minimum(np.minimum.reduceat(y, first, axis=1),
                               y[:, last])
                    + np.maximum(np.maximum.reduceat(y, first, axis=1),
                                 y[:, last]))
    own = y[:, :-1] - np.repeat(center, last - first, axis=1)
    end = y[:, last] - center
    radius = np.maximum(
        np.maximum.reduceat(np.einsum("xi,xi->i", own, own), first),
        np.einsum("xi,xi->i", end, end))
    far = np.einsum("xi,xi->i", y[:, :-1], y[:, :-1])
    return (center.T, np.sqrt(radius),
            np.maximum.reduceat(s.length[cut[0]:cut[-1]], first),
            np.sqrt(np.maximum.reduceat(far, first)))


def _fan_sides(s1, s2, i0, n1, j0, n2, p):
    """Fan triangles ``(p, u, v)`` over the consecutive corners ``u, v``
    of edges of the tile grid, summed over each edge.  Edge ``e`` has the
    corners ``x1[i0 + min(t, n1)] - x2[j0 + min(t, n2)]``, ``t = 0 ...
    max(n1, n2)``, with one of ``n1[e]``, ``n2[e]`` zero; ``p[e]`` holds
    the unit apexes of the two tiles that meet at it, ``(edges, 2, 3)``.

    In unit corners ``N = <p, u x v>`` and ``D = 1 + <u, v> + <p, u +
    v>`` (Van Oosterom-Strackee over ``|p| |u| |v|``), so the two tiles
    share all but ``<p, u>`` and ``N``.  The edges go in stacks of one
    length class (see :func:`_stacks`), along the last axis, each padded
    by repeating its last corner: ``u x u = 0`` and ``D > 0`` there, so
    the padding adds exactly 0.
    """
    n = n1 + n2
    out = np.empty((len(n), 2))
    for k, L, _ in _stacks(n, np.ones_like(n), lambda L, _: 8 * (L + 1)):
        t = np.arange(L + 1)[:, None]
        i = i0[k] + np.minimum(t, n1[k])
        j = j0[k] + np.minimum(t, n2[k])
        c = np.empty((3,) + i.shape)
        for q in range(3):
            np.subtract(s1.y[q].take(i), s2.y[q].take(j), out=c[q])
        c /= np.sqrt(np.einsum("xnk,xnk->nk", c, c))
        u, v = c[:, :-1], c[:, 1:]
        base = np.einsum("xnk,xnk->nk", u, v)
        base += 1.0
        x = np.empty(u.shape)
        for q in range(3):
            a, b = (q + 1) % 3, (q + 2) % 3
            np.multiply(u[a], v[b], out=x[q])
            x[q] -= u[b] * v[a]
        pc, num = np.empty(c.shape[1:]), np.empty(x.shape[1:])
        for side in (0, 1):
            pk = p[k, side].T
            np.multiply(c[0], pk[0], out=pc)
            pc += c[1] * pk[1]
            pc += c[2] * pk[2]
            np.multiply(x[0], pk[0], out=num)
            num += x[1] * pk[1]
            num += x[2] * pk[2]
            den = pc[:-1] + pc[1:]
            den += base
            out[k, side] = np.arctan2(num, den, out=den).sum(axis=0)
    return out


def _fans(s1, s2, e1, e2, fan, unit):
    """Cell sums of the tiles ``fan`` (a mask over the tiles between the
    row edges ``e1`` and the column edges ``e2``, in its ``nonzero``
    order) by their boundary fans from the unit apexes ``unit[r, c]``.

    A cell ``r00 -> r10 -> r11 -> r01`` holds minus the half solid angle
    of that loop, so a tile holds minus the fan of its boundary in the
    same order: along ``x1`` at its first column, along ``x2`` at its last
    row, and back along the other two sides.  Each side is an edge of the
    tile grid, evaluated once, in increasing order, for the tiles on both
    sides of it; going back along an edge negates its sum exactly.  Only
    the edges of fan tiles are evaluated.  Those tiles passed (a), so
    every corner lies at least their gap > 0 from the origin and none
    vanishes.
    """
    R, C = fan.shape
    edges, grids = [], []
    # the sides along x1 lie on column edges (axis 1), those along x2 on
    # row edges (axis 0); the fan tiles after and before each edge
    for axis in (1, 0):
        after = np.zeros((R + 1 - axis, C + axis), dtype=bool)
        before = np.zeros_like(after)
        after[:R, :C] = fan
        before[-R:, -C:] = fan
        r, c = np.nonzero(after | before)
        ra, ca, rb, cb = (
            (r, np.minimum(c, C - 1), r, np.maximum(c - 1, 0)) if axis
            else (np.minimum(r, R - 1), c, np.maximum(r - 1, 0), c))
        pa = np.where(after[r, c, None], unit[ra, ca], unit[rb, cb])
        pb = np.where(before[r, c, None], unit[rb, cb], pa)
        none = np.zeros_like(r)
        edges.append((e1[r], e1[ra + 1] - e1[ra] if axis else none,
                      e2[c], none if axis else e2[ca + 1] - e2[ca],
                      np.stack([pa, pb], axis=1)))
        grids.append((r, c, after.shape))
    sums = _fan_sides(s1, s2, *map(np.concatenate, zip(*edges)))
    sides, at = [], 0
    for r, c, shape in grids:
        sides.append(np.zeros((2,) + shape))
        sides[-1][:, r, c] = sums[at:at + len(r)].T
        at += len(r)
    (v_after, v_before), (h_after, h_before) = sides
    return -(v_after[:, :-1] - v_before[:, 1:]
             + h_before[1:] - h_after[:-1])[fan]


def _stacks(h, w, size):
    """Stacks ``(k, H, W)`` of the tiles with sides ``h`` and ``w``: the
    indices ``k`` of tiles of one shape class (each side rounded up to a
    power of two or 1.5 times one, largest first), their longest sides
    ``H`` and ``W``, and at most ``_CHUNK_PAIRS / size(H, W)`` tiles (at
    least one) a stack."""
    def rank(n):
        e = np.frexp(n - 1)[1].astype(np.int64)
        return 2 * e - ((3 << e) >= 4 * n)

    kh, kw = rank(h), rank(w)
    order = np.lexsort((-kw, -kh))
    ends = np.flatnonzero(np.diff(kh[order]) | np.diff(kw[order])) + 1
    for group in np.split(order, ends)[:len(order)]:
        H, W = int(h[group].max()), int(w[group].max())
        per = max(1, _CHUNK_PAIRS // size(H, W))
        for q in range(0, len(group), per):
            yield group[q:q + per], H, W


def _down(grid, e1, e2, f1, f2):
    """Each tile between the edges ``f1``, ``f2`` of a lower level takes the
    entry of ``grid`` of the tile between ``e1``, ``e2`` that holds it."""
    return grid[np.searchsorted(e1, f1[:-1], "right") - 1][
        :, np.searchsorted(e2, f2[:-1], "right") - 1]


def _up(red, grid, f1, f2, e1, e2):
    """``red`` of the entries of ``grid`` (tiles between the edges ``f1``,
    ``f2``) over each tile between the edges ``e1``, ``e2`` of a higher
    level."""
    return red.reduceat(red.reduceat(grid, np.searchsorted(f1, e1[:-1])),
                        np.searchsorted(f2, e2[:-1]), axis=1)


def _tile_sums(s1, s2, absolute, rows, cols, guard):
    """The tiles of the grid of the first ``max(rows)`` by ``max(cols)``
    segments of two centered polylines (see :func:`_pair_solid_angles`)
    that are summed by their fans, as ``(tiles, values, leaves)``: those
    tiles ``(i0, i1, j0, j1)``, their cell sums (absolute in absolute
    mode), and the leaves, every other tile of the grid.

    Tile edges include ``rows`` and ``cols``, so every tile lies inside or
    outside each block a cut sums.  Every tile of a lower level lies in
    one tile row of level 0, so the grid is tested in groups of tile rows
    of level 0 that hold about a quarter of ``_CHUNK_PAIRS`` tiles of the
    finest level, which bounds the memory of the tests
    (:func:`_tile_group`).
    """
    cuts1, cuts2 = _level_cuts(rows), _level_cuts(cols)
    e1 = cuts1[0]
    if 2 * min(e1[-1], cuts2[0][-1]) < _TILE >> (len(cuts1) - 1):
        # no side long enough for a fan at any level
        r, c = (v.ravel() for v in np.indices((len(e1) - 1,
                                               len(cuts2[0]) - 1)))
        none = np.empty(0, dtype=np.intp)
        return ((none,) * 4, np.empty(0),
                (e1[r], e1[r + 1], cuts2[0][c], cuts2[0][c + 1]))
    per = max(1, _CHUNK_PAIRS // 4 * (len(e1) - 1)
              // ((len(cuts1[-1]) - 1) * (len(cuts2[-1]) - 1)))
    ends = np.append(e1[:-1:per], e1[-1])
    groups = [_tile_group(s1, s2, absolute,
                          [c[(c >= lo) & (c <= hi)] for c in cuts1], cuts2,
                          guard)
              for lo, hi in zip(ends[:-1], ends[1:])]
    tiles, values, leaves = zip(*groups)
    return (tuple(map(np.concatenate, zip(*tiles))), np.concatenate(values),
            tuple(map(np.concatenate, zip(*leaves))))


def _tile_group(s1, s2, absolute, cuts1, cuts2, guard):
    """:func:`_tile_sums` of the tile rows between the first and last row
    edges of ``cuts1`` (one array of edges per level, like ``cuts2``).

    Every level is tested whole, the same way, one after another, and a
    level only if a tile of the level above it fails.  In absolute mode
    each level takes its signs from the numerator bounds of the finest
    tiles (:func:`_bounds`), computed once, at the first level with a
    candidate.  A tile that passes is summed by its fan; one that fails is
    split into the tiles of the next level it holds, as long as one of
    those, or of the levels below them, passes.  A tile that fails with no
    passing tile below it is a leaf, which goes direct whole.
    """
    levels, bounds = [], None
    for side, (e1, e2) in enumerate(zip(cuts1, cuts2)):
        ok, unit, tol = _tests(s1, s2, e1, e2, side, guard)
        sign = np.ones(ok.shape)
        if absolute and ok.any():
            # (b) from the bounds of the finest tiles
            if bounds is None:
                bounds = _bounds(s1, s2, cuts1, cuts2)
            lo, hi = (_up(red, b, cuts1[-1], cuts2[-1], e1, e2)
                      for red, b in zip((np.minimum, np.maximum), bounds))
            sign = (lo > tol) * 1.0 - (hi < -tol)
            ok &= sign != 0.0
        levels.append((e1, e2, ok, unit, sign))
        if ok.all():
            break
    # below[l]: a tile of level l holds a passing tile of a level below it
    below = [np.zeros_like(levels[-1][2])]
    for (e1, e2, *_), (f1, f2, ok, *_) in zip(levels[-2::-1],
                                               levels[:0:-1]):
        below.insert(0, _up(np.logical_or, ok | below[0], f1, f2, e1, e2))
    tiles, values, leaves = [], [np.empty(0)], []
    active = True
    for side, ((e1, e2, ok, unit, sign), deeper) in enumerate(zip(levels,
                                                                  below)):
        fan, live = active & ok, active & ~ok
        for part, mask in ((tiles, fan), (leaves, live & ~deeper)):
            r, c = np.nonzero(mask)
            part.append((e1[r], e1[r + 1], e2[c], e2[c + 1]))
        if fan.any():
            values.append(_fans(s1, s2, e1, e2, fan, unit) * sign[fan])
        if side + 1 < len(levels):
            active = _down(live & deeper, e1, e2, *levels[side + 1][:2])
    return (tuple(map(np.concatenate, zip(*tiles))), np.concatenate(values),
            tuple(map(np.concatenate, zip(*leaves))))


def _tests(s1, s2, e1, e2, side, guard):
    """The tests of the tiles between the row edges ``e1`` and the column
    edges ``e2`` of level ``side`` that need none of their numerators:
    sides of at least half the level's tile side, (a) and the fan's
    conditioning (see :func:`_pair_solid_angles`).  Returns the tiles that
    pass, their unit apexes and the tolerance of (b)."""
    h, w = (e1[1:] - e1[:-1])[:, None], e2[1:] - e2[:-1]
    (c1, rho1, l1, far1), (c2, rho2, l2, far2) = _runs(s1, e1), _runs(s2, e2)
    apex = c1[:, None] - c2
    dist = np.sqrt(np.einsum("ijx,ijx->ij", apex, apex))
    rho = rho1[:, None] + rho2
    gap = dist - rho
    reach = 2.0 * l1[:, None] + max(guard, 0.0) + 2.0 * l2
    ok = ((2 * np.minimum(h, w) >= _TILE >> side)
          & (gap > reach * (1.0 + 1e-12) + 1e-12 * (dist + rho))
          & ((h + w) * (gap + 2.0 * rho) ** 2 <= h * w * gap * (gap + rho)))
    tol = 16.0 * np.finfo(float).eps * (l1[:, None] * l2
                                        * (far1[:, None] + far2))
    return ok, apex / np.where(ok, dist, 1.0)[..., None], tol


def _bounds(s1, s2, cuts1, cuts2):
    """The least and largest numerator ``N`` of every tile of the finest
    level, ``cuts1[-1]`` by ``cuts2[-1]``: one 6-term matmul of the direct
    kernel's ``a = p x d`` and ``d`` per tile row of level 0, reduced over
    each finest row run, then over the finest column runs."""
    e1, f1, f2 = cuts1[0], cuts1[-1], cuts2[-1]
    g1 = np.searchsorted(f1, e1)
    right = s2.da[:, :f2[-1]]
    numer = np.empty((np.max(e1[1:] - e1[:-1]), f2[-1]))
    runs = np.empty((np.max(g1[1:] - g1[:-1]), f2[-1]))
    bounds = np.empty((2, len(f1) - 1, len(f2) - 1))
    for r in range(len(e1) - 1):
        i0, i1, q0, q1 = e1[r], e1[r + 1], g1[r], g1[r + 1]
        nr = np.matmul(s1.ad[i0:i1], right, out=numer[:i1 - i0])
        for out, red in zip(bounds, (np.minimum, np.maximum)):
            for q in range(q0, q1):
                red.reduce(nr[f1[q] - i0:f1[q + 1] - i0], axis=0,
                           out=runs[q - q0])
            out[q0:q1] = red.reduceat(runs[:q1 - q0], f2[:-1], axis=1)
    return bounds


def _pair_solid_angles(x1, x2, absolute, guard, cuts):
    """Exact Gauss double integral of pairs of polylines cut from ``x1``
    and ``x2``, times 4 pi, each with a bound on its roundoff (radians).

    A cut ``((p1, e1), (p2, e2))`` is the pair ``x1[:p1]``, ``x2[:p2]``,
    each followed by its own end vertex ``e`` unless that is None.  One
    pass over the grid of prefix segments serves every cut: each cut sums
    the tiles of its own block of the grid, and the pairs on its own end
    segments are added as two thin strips.  Tile edges include the
    blocks' edges, so every tile lies inside or outside each block.  The
    strips are tiles too: each cut's end segments follow the prefix in the
    two polylines, and the strips go through the one direct kernel call
    (:func:`_direct_angles`) with the tiles that are not summed by fans.
    The guard is checked on every evaluated pair; a guard of ``-inf``
    flags no pair and checks nothing.

    The block pass is tiled (:func:`_tile_sums`).  Solid angle is
    additive, so the cells of a tile sum to the solid angle of the
    surface they tile.  Where every corner ``r`` of the tile has
    ``<r, P> > 0`` for one apex ``P``, that is exactly the fan of the
    triangles ``(P, u, v)`` over the tile's ``2(h + w)`` boundary edges:
    in that open half-space the gnomonic projection makes solid angle a
    signed area with a positive density, and the interior edges cancel.

    Tiles come in levels.  Level 0 has sides of at most ``_TILE``
    segments; level ``l`` halves every side longer than ``S = _TILE >>
    l``, down to ``S = _MIN_TILE``.  A tile of level ``l`` with both
    sides at least ``S / 2`` (so each fan triangle replaces at least ``S
    / 8`` cells) is summed by its fan when

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
        matmul of the direct kernel's ``a = p x d`` and ``d`` per tile
        row of level 0, reduced to the least and largest ``N`` of every
        tile of the finest level (:func:`_bounds`), from which every
        level, level 0 included, takes its own tiles' bounds.  The
        computed ``d`` is within ``eps/2 |d|`` of the exact difference,
        ``a`` within ``5 eps/2 |p| |d|`` of the exact ``p x d``, and the
        6-term sum adds at most ``3 eps`` of ``(|p1| + |p2|) l1 l2``, so
        the computed ``N`` is within ``6 eps (|p1| + |p2|) l1 l2`` of the
        exact one, to first order.  The screen asks every ``|N|`` of the
        tile to exceed ``16 eps max(|p1| + |p2|) max l1 max l2``, with
        one sign.  ``|Omega_ij|`` has the sign of ``N_ij``, so the tile's
        absolute sum is its fan times that sign.

    Every level is tested this one way.  A tile that fails is split into
    its tiles of the next level; a tile that fails with no passing tile
    at any level below it goes direct whole, with the other leaves, so
    flagging, the guard and the conditioning of flagged pairs are those of
    one direct pass.

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
    stay within the ``h w`` its cells count, at every level alike.  So at
    the same rate of ``_ROUNDOFF_ULPS`` per unit, the fan errs by no more
    than the cells it replaces may.  A square tile of side ``S`` needs
    ``c (1 + c) >= 4 / S``: ``c`` above about ``4 / S`` for large ``S``,
    and above 0.207 at ``S = 16``, while (a) alone leaves ``c`` as low
    as ``1 / (S + 1)`` (a ball holds a run of ``S`` segments within ``S``
    lengths).
    """
    # translation leaves N unchanged; centering keeps p1 x d1 small
    center = 0.5 * (x1.mean(axis=0) + x2.mean(axis=0))
    blocks = [(p1 - 1, p2 - 1) for (p1, _), (p2, _) in cuts]
    rows, cols = map(set, zip(*blocks))
    n1, n2 = max(rows), max(cols)
    # each cut's own end segment follows the grid's prefix on its side,
    # after a segment that no tile holds
    prefix1, prefix2, ends1, ends2 = [x1[:n1 + 1]], [x2[:n2 + 1]], {}, {}
    for k, ((p1, e1), (p2, e2)) in enumerate(cuts):
        for x, p, e, prefix, ends in ((x1, p1, e1, prefix1, ends1),
                                      (x2, p2, e2, prefix2, ends2)):
            if e is not None:
                ends[k] = sum(map(len, prefix))
                prefix += [x[p - 1:p], e[None]]
    s1 = _Polyline(np.concatenate(prefix1) - center)
    s2 = _Polyline(np.concatenate(prefix2) - center)
    tiles, values, leaves = _tile_sums(s1, s2, absolute, rows, cols, guard)
    # the strips: c1's end segment against c2 (its prefix, then its end
    # segment), and c1's prefix against c2's end segment
    strips = [leaves]
    owner = [np.full(len(leaves[0]), -1)]
    for k, (a, b) in enumerate(blocks):
        i, j = ends1.get(k), ends2.get(k)
        parts = []
        if i is not None:
            e = _split({b})
            parts.append((i, i + 1, e[:-1], e[1:]))
            if j is not None:
                parts.append((i, i + 1, j, j + 1))
        if j is not None:
            e = _split({a})
            parts.append((e[:-1], e[1:], j, j + 1))
        for part in parts:
            part = np.broadcast_arrays(*map(np.atleast_1d, part))
            strips.append(part)
            owner.append(np.full(len(part[0]), k))
    strips = tuple(map(np.concatenate, zip(*strips)))
    owner = np.concatenate(owner)
    direct, excess = np.empty(len(owner)), np.empty(len(owner))
    if len(owner):
        for k, sums, ex, _, _ in _direct_angles(s1, s2, absolute, guard,
                                                strips):
            direct[k], excess[k] = sums, ex
    cells = (strips[1] - strips[0]) * (strips[3] - strips[2])
    results = []
    for k, (a, b) in enumerate(blocks):
        fan = (tiles[1] <= a) & (tiles[3] <= b)
        own = (owner == k) | ((owner < 0) & (strips[1] <= a)
                              & (strips[3] <= b))
        total = math.fsum(values[fan].tolist() + direct[own].tolist())
        conditioning = (a * b + float(np.sum(cells[owner == k]))
                        + float(np.sum(excess[own])))
        results.append((2.0 * total,
                        _ROUNDOFF_ULPS * math.ulp(1.0) * conditioning))
    return results


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
