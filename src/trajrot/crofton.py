"""Integral geometry on spheres: Crofton length estimation and the
constructive search for oscillation witnesses.

A long curve confined to a sphere (or ball) must revisit longitudes with
opposite tangential velocities; these witness searches certify that
constructively.  ``crofton_length_estimate`` is the Monte-Carlo form of
the spherical Crofton formula: length = pi * R * E[#crossings with a
uniformly random great subsphere].

The witness searches work on the polyline's own position, linear in
time on each segment, for which the theorem holds: a witness is a pair of
segments whose position intervals overlap (or overlap at the antipode),
found in O(m log^2 m) time and O(m) memory (``_best_segment_pair``).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .curves import (Curve, SphericalCurve, curve_length,
                     planar_angle_increments)
from .errors import PreconditionLength, WitnessNotFound
from .fields import enclosing_ball

_WITNESS_SLACK = 1e-9
# Samples x draws per block of crofton_length_estimate, as 8-byte
# products: one reused workspace holds a block's products and its signs
# (9 bytes per entry) in at most _BLOCK_ENTRIES * 8 bytes, near cache
# size.  Blocks take the Gaussian stream in order, so the size changes no
# bit.
_BLOCK_ENTRIES = 1 << 18
# Rows of sign changes summed at once into uint8, which cannot wrap.
_CHUNK_ROWS = 255


@dataclass(frozen=True)
class CroftonConstants:
    """Dimensional constants for the Euclidean Crofton estimates.

    ``c_n`` is the line-measure normalization for curves in n-space,
    ``V_n`` the volume of the unit sphere, and ``C_n = c_n * V_n``.
    """

    n: int
    c_n: float
    V_n: float
    C_n: float


def crofton_constants(n: int) -> CroftonConstants:
    if n < 2:
        raise ValueError("n must be >= 2")
    g = math.gamma
    c_n = g((n + 1) / 2) * g(0.5) / g(n / 2)
    v_n = 2.0 * g(0.5) ** n / g(n / 2)
    return CroftonConstants(n, c_n, v_n, c_n * v_n)


def haar_orthogonal(rng: np.random.Generator, n: int, size: int = 1) -> np.ndarray:
    """Haar-distributed orthogonal matrices via QR of Gaussian matrices."""
    z = rng.standard_normal((size, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    s = np.where(d == 0, 1.0, np.sign(d))
    return q * s[:, None, :]


@dataclass(frozen=True)
class CroftonEstimate:
    value: float
    stderr: float
    draws: int


def crofton_length_estimate(s: SphericalCurve, m: int = 10_000,
                            seed: int = 0) -> CroftonEstimate:
    """Monte-Carlo length of a spherical curve from random subsphere hits.

    Each draw rotates a reference great subsphere by a Haar orthogonal
    matrix and counts sign changes of its defining linear functional
    along the polyline.  The rotated normal is the Haar matrix's first
    column, which is the normalized first column of its Gaussian, so the
    draw takes that Gaussian column from the same stream as
    :func:`haar_orthogonal` and skips the QR: only the sign of the
    functional counts.  The mean count times pi estimates the geodesic
    length.  The standard error carries a 1/m variance floor so that
    zero-variance counts (every subsphere hits the curve equally often)
    still report the discreteness-limited uncertainty.

    Draws run in blocks of ``(8 * _BLOCK_ENTRIES // 9) // samples`` draws,
    which take the Gaussian stream in the same order, so the block size
    changes no bit.  Every block works in one contiguous workspace
    allocated once per call: its (samples, draws) products, their signs,
    and the sign changes between consecutive samples, written over the
    products' bytes.  The changes are summed ``_CHUNK_ROWS`` (255) rows
    at a time into uint8, which cannot wrap, and added into the counts.
    """
    if isinstance(m, bool):
        raise TypeError("m must be an integer")
    try:
        m = operator.index(m)
    except TypeError:
        raise TypeError("m must be an integer") from None
    if m < 100:
        raise ValueError("m must be >= 100")
    rng = np.random.default_rng(seed)
    x = s.curve.x.astype(np.float64, copy=False)
    n_pts, n = x.shape
    block = max(1, min(m, (8 * _BLOCK_ENTRIES // 9) // n_pts))
    # every out= below is a contiguous view: numpy 2.4.6's signbit writes
    # wrong values through a strided bool out=
    work = np.empty(9 * n_pts * block, dtype=np.uint8)
    prods = work[:8 * n_pts * block].view(np.float64)
    signs = work[8 * n_pts * block:].view(np.bool_)
    part = np.empty(block, dtype=np.uint8)
    counts = np.zeros(m, dtype=np.int64)
    for done in range(0, m, block):
        k = min(block, m - done)
        u = rng.standard_normal((k, n, n))[:, :, 0]   # unnormalized normal
        f = np.matmul(x, u.T, out=prods[:n_pts * k].reshape(n_pts, k))
        sg = np.signbit(f, out=signs[:n_pts * k].reshape(n_pts, k))
        changes = np.not_equal(
            sg[:-1], sg[1:],
            out=work[:(n_pts - 1) * k].view(np.bool_).reshape(n_pts - 1, k))
        for i in range(0, n_pts - 1, _CHUNK_ROWS):
            np.add.reduce(changes[i:i + _CHUNK_ROWS], axis=0,
                          dtype=np.uint8, out=part[:k])
            counts[done:done + k] += part[:k]
    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1))
    value = math.pi * mean
    stderr = math.pi * math.sqrt((var + 1.0 / m) / m)
    return CroftonEstimate(value, stderr, m)


# ---------------------------------------------------------------------------
# witness searches


@dataclass(frozen=True)
class EquatorWitness:
    """Two times at matching longitudes with opposite tangential velocities.

    ``plane`` holds the orthonormal rows spanning the witness circle's
    plane ((2, n); a single row for the straight-line variant).  The
    times sit at equal (``coincide``) or antipodal positions of the
    polyline's own longitude (or line coordinate); the velocities are the
    two segments' slopes, the second reversed for an antipodal pair.
    ``sign(v_proj_1) == -sign(v_proj_2)`` and ``min(|v_proj_i|) >=
    threshold`` up to slack are re-checked at construction.
    """

    plane: np.ndarray
    tau1: float
    tau2: float
    relation: str          # "coincide" | "antipodal"
    v_proj_1: float
    v_proj_2: float
    theta: float
    threshold: float
    curve_length: float
    window: tuple[float, float]

    def __post_init__(self):
        if self.relation not in ("coincide", "antipodal"):
            raise ValueError(f"bad relation {self.relation!r}")
        if not (self.window[0] < self.tau1 < self.tau2 < self.window[1]):
            raise ValueError("witness times must be strictly inside the window")
        if not (np.sign(self.v_proj_1) * np.sign(self.v_proj_2) < 0):
            raise ValueError("projected velocities must have opposite signs")
        achieved = min(abs(self.v_proj_1), abs(self.v_proj_2))
        if achieved < self.threshold - _WITNESS_SLACK * max(1.0, self.threshold):
            raise ValueError("witness velocities fall below the required threshold")

    @property
    def achieved(self) -> float:
        return min(abs(self.v_proj_1), abs(self.v_proj_2))


def _best_segment_pair(lo, hi, slope, modulus):
    """Fastest segment pair i < j that revisits a position with opposite
    motion, or the antipode with equal motion.

    Segment k sweeps the open interval ``(lo[k], hi[k])`` at rate
    ``slope[k]``.  A pair matches when its intervals overlap and its
    slopes have opposite signs.  On a circle (``0 <= lo <= modulus`` and
    ``hi <= lo + modulus/2`` in floating point; ``modulus`` None on a
    line) it also matches when one interval shifted up by ``modulus``
    overlaps the other with opposite signs, or one shifted up by
    ``modulus/2`` does with equal signs (the antipode's tangent is
    reversed).  Either order shifts the same operand, so the predicate is
    symmetric; a zero slope or an empty (shifted) interval never matches.

    Returns ``(score, i, j, u_i, u_j)`` for the largest ``score =
    min(|slope_i|, |slope_j|)``, ties to the smallest i, then j, or None;
    ``u`` is the overlap's midpoint as a fraction of each shifted
    interval.  Speeds are bisected: each sign class is sorted by ``lo``
    once, and a prefix max of its ends at or above a speed, with one
    ``searchsorted`` per shift, tells each segment whether a partner
    overlaps it.  The first segment with a partner has only later ones.
    """
    if modulus is None:
        shifts = [(0.0, 0.0, False)]           # (own, partner's, same sign)
    else:
        h = 0.5 * modulus
        shifts = [(0.0, 0.0, False), (modulus, 0.0, False),
                  (0.0, modulus, False), (h, 0.0, True), (0.0, h, True)]
    solid = np.logical_and.reduce([lo + d < hi + d for d in
                                   {d for s in shifts for d in s[:2]}])
    speed = np.where(solid, np.abs(slope), 0.0)      # 0: never matches
    order = np.argsort(lo, kind="stable")
    sides = [order[(speed[order] > 0) & (sign * slope[order] > 0)]
             for sign in (1, -1)]
    width = 1 + max(len(k) for k in sides)
    member = np.full((2, width), -1)     # class c's x-th segment at [c, 1+x]
    cells, start = [], []       # [shift, query]: reach cell, shifted start
    for c, k in enumerate(sides):
        member[c, 1:len(k) + 1] = k
        cells.append([(c if same else 1 - c) * width + np.searchsorted(
            lo[sides[c if same else 1 - c]] + td, hi[k] + qd)
            for qd, td, same in shifts])
        start.append([lo[k] + qd for qd, _, _ in shifts])
    cells, start = np.hstack(cells), np.hstack(start)
    queries, shift_up = np.concatenate(sides), np.array(shifts)[:, 1:2]
    member_hi = np.append(hi, -np.inf)[member]
    member_speed = np.append(speed, 0.0)[member]

    def partnered(level):
        """Segments at or above ``level`` with a partner there (rounding is
        monotone: the prefix max of shifted ends is the shifted one)."""
        ends = np.where(member_speed >= level, member_hi, -np.inf)
        reach = np.maximum.accumulate(ends, axis=1).ravel()
        has = np.zeros(len(slope), dtype=bool)
        has[queries] = np.any(reach[cells] + shift_up > start, axis=0)
        return has & (speed >= level)

    levels = np.unique(speed[queries])
    a = bisect.bisect_left(range(len(levels)), True,
                           key=lambda m: not partnered(levels[m]).any())
    if a == 0:                 # levels[:a] have a match, levels[a:] none
        return None
    i = int(np.argmax(partnered(levels[a - 1])))
    k = np.flatnonzero(speed[i + 1:] >= levels[a - 1]) + i + 1
    same = (slope[k] > 0) == (slope[i] > 0)
    j, qd, td = len(slope), 0.0, 0.0
    for d_i, d_k, want in shifts:
        hit = k[(same == want) & (lo[k] + d_k < hi[i] + d_i)
                & (hi[k] + d_k > lo[i] + d_i)]
        if len(hit) and hit[0] < j:
            j, qd, td = int(hit[0]), d_i, d_k
    mid = 0.5 * (max(lo[i] + qd, lo[j] + td) + min(hi[i] + qd, hi[j] + td))
    u_i, u_j = (float((mid - (lo[k] + d)) / ((hi[k] + d) - (lo[k] + d)))
                for k, d in ((i, qd), (j, td)))
    return float(levels[a - 1]), i, j, u_i, u_j


def _segment_witness(plane, t, lo, hi, slope, modulus, theta, threshold,
                     s_len):
    """The best segment pair as a witness, or None below ``threshold``."""
    hit = _best_segment_pair(lo, hi, slope, modulus)
    if hit is None or hit[0] < threshold - _WITNESS_SLACK * max(1.0, threshold):
        return None
    _, i, j, u_i, u_j = hit
    tau1, tau2 = (t[k] + (t[k + 1] - t[k]) * (u if slope[k] > 0 else 1 - u)
                  for k, u in ((i, u_i), (j, u_j)))
    coincide = (slope[i] > 0) != (slope[j] > 0)
    return EquatorWitness(
        plane=plane, tau1=float(tau1), tau2=float(tau2),
        relation="coincide" if coincide else "antipodal",
        v_proj_1=float(slope[i]),
        v_proj_2=float(slope[j] if coincide else -slope[j]),
        theta=theta, threshold=threshold, curve_length=s_len,
        window=(float(t[0]), float(t[-1])))


def find_circle_witness(c: Curve, theta: float) -> EquatorWitness:
    """Witness search for a curve lying on a circle about the origin.

    Requires length > 2*pi*R*theta.  Returns the time pair with equal or
    antipodal angular positions, opposite tangential motion, and maximal
    ``min(|v1|, |v2|)``; that minimum is guaranteed to reach ``s/(4T)``
    for closed curves and ``(theta-4)/(4 theta) * s/T`` otherwise, T the
    duration.  The longitude moves linearly in time on each segment, by
    the planar angle increments whose sum gives s, so the theorem holds
    for it and ``WitnessNotFound`` means a defect, not a coarse sampling.
    """
    if not theta > 4:
        raise ValueError("theta must be > 4")
    if c.dim != 2:
        raise ValueError("circle witness needs a planar curve")
    x64 = c.x.astype(np.float64, copy=False)
    radii = np.linalg.norm(x64, axis=1)
    radius = float(np.mean(radii))
    if radius <= 0 or np.max(np.abs(radii - radius)) > 1e-6 * radius:
        raise ValueError("samples do not lie on a circle about the origin")
    inc = planar_angle_increments(x64)
    s_len = radius * float(np.sum(np.abs(inc)))
    if s_len <= 2 * math.pi * radius * theta:
        raise PreconditionLength(
            f"curve length {s_len:.6g} must exceed 2*pi*R*theta = "
            f"{2 * math.pi * radius * theta:.6g}")
    factor = 0.25 if c.closed else (theta - 4.0) / (4.0 * theta)
    threshold = factor * s_len / c.duration
    phi = np.cumsum(np.r_[math.atan2(x64[0, 1], x64[0, 0]), inc])  # unwrapped
    lo = np.mod(np.where(inc >= 0, phi[:-1], phi[1:]), 2 * math.pi)
    w = _segment_witness(np.eye(2), c.t, lo, lo + np.abs(inc),
                         radius * inc / np.diff(c.t), 2 * math.pi, theta,
                         threshold, s_len)
    if w is None:
        raise WitnessNotFound(
            f"no segment pair reaches the speed {threshold:.6g} that the "
            "length precondition guarantees")
    return w


def principal_plane(points: np.ndarray) -> np.ndarray:
    """Dominant rotation plane of a polyline (top plane of the swept
    bivector sum), as two orthonormal rows."""
    x = points.astype(np.float64, copy=False)
    m = x[:-1].T @ x[1:]
    m = m - m.T
    u, _, _ = np.linalg.svd(m)
    return u[:, :2].T.copy()


def find_equator_witness(s: SphericalCurve, theta: float, trials: int = 64,
                         seed: int = 0) -> EquatorWitness:
    """Witness search on the unit sphere via longitude projections.

    Tries the curve's principal rotation plane first, then Haar-random
    planes.  A candidate circle is kept when the longitude projection of
    the curve is at least as long as the curve itself (1% tolerance) --
    such a plane exists whenever length > 2*pi*theta -- and the circle
    witness search supplies the time pair (a projection too short for it
    is skipped).  Velocities are those of the longitude projection.
    """
    if not theta > 4:
        raise ValueError("theta must be > 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s_len = curve_length(s.curve)
    if s_len <= 2 * math.pi * theta:
        raise PreconditionLength(
            f"spherical length {s_len:.6g} must exceed 2*pi*theta = "
            f"{2 * math.pi * theta:.6g}")
    x = s.curve.x.astype(np.float64, copy=False)
    rng = np.random.default_rng(seed)
    n = x.shape[1]

    def candidate_planes():
        yield principal_plane(x)
        for g in haar_orthogonal(rng, n, trials - 1):
            yield g[:, :2].T

    best_proj = 0.0
    for plane in candidate_planes():
        a = x @ plane[0]
        b = x @ plane[1]
        rho = np.hypot(a, b)
        if np.min(rho) < 1e-9:
            continue  # curve hits the poles of this plane
        proj_len = float(np.sum(np.abs(planar_angle_increments(
            np.stack([a, b], 1)))))
        best_proj = max(best_proj, proj_len)
        if proj_len < 0.99 * s_len:
            continue
        pts = np.stack([a / rho, b / rho], axis=1)
        projected = Curve(s.curve.t, pts, closed=None)
        try:
            w = find_circle_witness(projected, theta)
        except PreconditionLength:
            continue
        return replace(w, plane=plane.copy())
    raise WitnessNotFound(
        f"no plane among {trials} trials yielded a witness (best projection "
        f"length {best_proj:.6g} vs curve length {s_len:.6g}); "
        "try more trials")


def principal_direction(points: np.ndarray) -> np.ndarray:
    """Length-weighted dominant direction of motion of a polyline."""
    d = np.diff(points.astype(np.float64, copy=False), axis=0)
    lens = np.linalg.norm(d, axis=1)
    ok = lens > 0
    u = d[ok] / lens[ok, None]
    m = (u * lens[ok, None]).T @ u
    w, vec = np.linalg.eigh(m)
    return vec[:, -1].copy()


def find_euclidean_witness(c: Curve, theta: float, trials: int = 200,
                           seed: int = 0) -> EquatorWitness:
    """Straight-line analog: a long curve inside a ball of radius R
    (length > theta * C_n * R, theta > 8) revisits some line coordinate
    with opposite projected velocities >= (theta-8)/(4 theta) * s/T.

    Tries the principal direction, then random ones, each with the
    segment search on the polyline's line coordinate.
    """
    if not theta > 8:
        raise ValueError("theta must be > 8")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = c.x.astype(np.float64, copy=False)
    ball = enclosing_ball(x)
    consts = crofton_constants(c.dim)
    s_len = curve_length(c)
    needed = theta * consts.C_n * ball.radius
    if s_len <= needed:
        raise PreconditionLength(
            f"length {s_len:.6g} must exceed theta*C_n*R = {needed:.6g}")
    threshold = (theta - 8.0) / (4.0 * theta) * s_len / c.duration
    rng = np.random.default_rng(seed)

    def directions():
        yield principal_direction(x)
        for _ in range(trials - 1):
            g = rng.standard_normal(c.dim)
            yield g / np.linalg.norm(g)

    for u in directions():
        p = x @ u
        w = _segment_witness(u[None, :].copy(), c.t, np.minimum(p[:-1], p[1:]),
                             np.maximum(p[:-1], p[1:]),
                             np.diff(p) / np.diff(c.t), None, theta,
                             threshold, s_len)
        if w is not None:
            return w
    raise WitnessNotFound(
        f"no line direction among {trials} trials yielded a witness")
