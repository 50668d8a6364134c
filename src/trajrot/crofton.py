"""Integral geometry on spheres: Crofton length estimation and the
constructive search for oscillation witnesses.

A long curve confined to a sphere (or ball) must revisit longitudes with
opposite tangential velocities; these witness searches certify that
constructively.  ``crofton_length_estimate`` is the Monte-Carlo form of
the spherical Crofton formula: length = pi * R * E[#crossings with a
uniformly random great subsphere].

The witness searches find their fastest matched pair of m samples in
O(m log m) time and memory, with no pair matrix: each velocity-sign class
is sorted by position, a sparse range-max table of speeds bounds each
sample's best partner inside its tolerance windows, and the largest
bounds are confirmed with the exact pair predicate (see
``_best_matched_pair``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import (Curve, SphericalCurve, curve_length,
                     planar_angle_increments)
from .errors import PreconditionLength, WitnessNotFound
from .fields import enclosing_ball

_WITNESS_SLACK = 1e-9


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
    along the polyline.  The mean count times pi estimates the geodesic
    length.  The standard error carries a 1/m variance floor so that
    zero-variance counts (every subsphere hits the curve equally often)
    still report the discreteness-limited uncertainty.
    """
    if m < 100:
        raise ValueError("m must be >= 100")
    rng = np.random.default_rng(seed)
    x = s.curve.x.astype(np.float64, copy=False)
    n = x.shape[1]
    counts = np.empty(m, dtype=np.int64)
    done = 0
    block = max(1, min(m, 4_000_000 // max(x.shape[0], 1)))
    while done < m:
        k = min(block, m - done)
        g = haar_orthogonal(rng, n, k)
        u = g[:, :, 0]                       # rotated reference normal
        f = x @ u.T                          # (samples, k)
        flips = np.signbit(f[:-1]) != np.signbit(f[1:])
        counts[done:done + k] = np.sum(flips, axis=0)
        done += k
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
    stored projected velocities satisfy ``sign(v_proj_1) ==
    -sign(v_proj_2)`` and ``min(|v_proj_i|) >= threshold`` up to slack;
    this is re-checked at construction.  ``match_tol`` is the position
    tolerance at which the pair matched: the search's own tolerance, or
    four times it when only the relaxed pass found a witness.
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
    match_tol: float

    def __post_init__(self):
        if self.relation not in ("coincide", "antipodal"):
            raise ValueError(f"bad relation {self.relation!r}")
        if not (self.window[0] < self.tau1 < self.tau2 < self.window[1]):
            raise ValueError("witness times must be strictly inside the window")
        if not (self.v_proj_1 * self.v_proj_2 < 0):
            raise ValueError("projected velocities must have opposite signs")
        achieved = min(abs(self.v_proj_1), abs(self.v_proj_2))
        if achieved < self.threshold - _WITNESS_SLACK * max(1.0, self.threshold):
            raise ValueError("witness velocities fall below the required threshold")

    @property
    def achieved(self) -> float:
        return min(abs(self.v_proj_1), abs(self.v_proj_2))


def _centered_rate(values, t):
    """d(values)/dt by centered differences, one-sided at the endpoints."""
    v = np.empty_like(values, dtype=np.float64)
    v[1:-1] = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
    v[0] = (values[1] - values[0]) / (t[1] - t[0])
    v[-1] = (values[-1] - values[-2]) / (t[-1] - t[-2])
    return v


def _range_max_table(a):
    """Sparse table of ``a``: row k holds ``max(a[x:x + 2**k])`` for every x
    where that slice is full, and -inf past it (Bender & Farach-Colton)."""
    n = len(a)
    table = np.full((max(n.bit_length(), 1), n), -np.inf)
    table[0] = a
    for k in range(1, len(table)):
        w = 1 << (k - 1)
        table[k, :n - 2 * w + 1] = np.maximum(table[k - 1, :n - 2 * w + 1],
                                              table[k - 1, w:n - w + 1])
    return table


def _range_max(table, lo, hi):
    """``max(a[lo:hi])`` per entry from a sparse table, -inf where empty."""
    out = np.full(len(lo), -np.inf)
    full = hi > lo
    lo, hi = lo[full], hi[full]
    k = np.frexp(hi - lo)[1] - 1          # floor(log2(hi - lo)), exactly
    out[full] = np.maximum(table[k, lo], table[k, hi - (1 << k)])
    return out


def _best_matched_pair(position, velocity, tol, modulus):
    """Best interior pair i < j with matched positions and opposite motion.

    A pair matches when its positions agree within ``tol`` (modulo
    ``modulus``; None for the straight-line case) and ``v_i * v_j < 0``,
    or, when a modulus is given, when they are antipodal within ``tol``
    and ``v_i * v_j > 0`` (the antipode's tangent direction is reversed).
    Returns (score, i, j) of the pair with the largest
    ``min(|v_i|, |v_j|)``, ties to the smallest i and then j, or None.
    ``tol`` is finite; a point with a non-finite position never matches.

    No pair matrix is formed.  The interior points are split by velocity
    sign and each class is sorted by position (reduced modulo
    ``modulus``); coincide partners lie in the other class and antipodal
    partners in the same one.  For each point, ``searchsorted`` gives its
    partner windows -- ``[q - tol, q + tol]`` shifted by 0 and
    +-modulus, plus ``[q +- modulus/2 - tol, q +- modulus/2 + tol]`` --
    widened by a few ulps so they contain every pair the exact predicate
    admits, and a range-max table of ``|v|`` over each sorted class
    bounds the point's best score by ``min(|v_i|, fastest partner)`` in
    O(1) per window.  The antipodal range is split at the point's own
    slot, since a large ``tol`` puts a point in its own window.  The
    largest bounds are then confirmed with the exact predicate, evaluated
    on ``(min index, max index)`` exactly as a full pair scan would, until
    the largest remaining bound is a confirmed score S; the points whose
    bound reaches S are visited in index order, and the first with an
    exact partner ``j > i`` scoring S gives the pair.  Time and memory
    are O(m log m) plus the windows of the few points confirmed.
    """
    inner = np.arange(1, len(position) - 1)
    inner = inner[np.isfinite(position[inner])]
    if modulus is None:
        key = position[inner]
        coincide, antipodal = (0.0,), ()
    else:
        key = np.mod(position[inner], modulus)
        coincide = (-modulus, 0.0, modulus)
        antipodal = (-0.5 * modulus, 0.5 * modulus)
    top = float(np.max(np.abs(position[inner]), initial=0.0))
    slack = 16 * np.finfo(np.float64).eps * (top + (modulus or 0.0) + tol)

    # (indices, keys, range-max table); a zero or NaN velocity lies in
    # neither class, as its products with other velocities have no sign
    classes = []
    for side in (velocity[inner] > 0, velocity[inner] < 0):
        order = np.argsort(key[side], kind="stable")
        members = inner[side][order]
        classes.append((members, key[side][order],
                        _range_max_table(np.abs(velocity[members]))))

    def windows(c, q):
        """(class, lo, hi) slot ranges holding every partner of keys q in
        class c."""
        for target, shifts in ((1 - c, coincide), (c, antipodal)):
            keys = classes[target][1]
            for shift in shifts:
                yield (target,
                       np.searchsorted(keys, q + shift - tol - slack, "left"),
                       np.searchsorted(keys, q + shift + tol + slack, "right"))

    bound = []
    for c, (members, keys, _) in enumerate(classes):
        slot = np.arange(len(members))
        fastest = np.full(len(members), -np.inf)
        for target, lo, hi in windows(c, keys):
            table = classes[target][2]
            if target == c:          # skip the point's own slot
                fastest = np.maximum(fastest, _range_max(
                    table, lo, np.minimum(hi, slot)))
                lo = np.maximum(lo, slot + 1)
            fastest = np.maximum(fastest, _range_max(table, lo, hi))
        bound.append(np.minimum(np.abs(velocity[members]), fastest))
    bound = np.concatenate(bound)
    n0 = len(classes[0][0])
    index = np.concatenate([classes[0][0], classes[1][0]])

    def partners(r):
        """(i, scores, j): point r's index and its exact matches."""
        c = int(r >= n0)
        i = index[r]
        j = np.unique(np.concatenate(
            [classes[t][0][lo:hi]
             for t, lo, hi in windows(c, classes[c][1][r - c * n0])]))
        j = j[j != i]
        a, b = np.minimum(i, j), np.maximum(i, j)
        diff = position[a] - position[b]
        vv = velocity[a] * velocity[b]
        if modulus is None:
            cand = (np.abs(diff) <= tol) & (vv < 0)
        else:
            dd = np.mod(diff, modulus)
            cand = (np.minimum(dd, modulus - dd) <= tol) & (vv < 0)
            cand |= (np.abs(dd - 0.5 * modulus) <= tol) & (vv > 0)
        score = np.minimum(np.abs(velocity[a]), np.abs(velocity[b]))
        return i, score[cand], j[cand]

    # lower the largest bounds to exact scores until one is confirmed
    best = -np.inf
    for r in np.argsort(-bound, kind="stable"):
        if bound[r] <= best:
            break
        _, score, _ = partners(r)
        bound[r] = float(np.max(score, initial=-np.inf))
        best = max(best, bound[r])
    if best == -np.inf:
        return None
    tied = np.flatnonzero(bound >= best)
    for r in tied[np.argsort(index[tied])]:
        i, score, j = partners(r)
        j = j[(score == best) & (j > i)]
        if len(j):
            return float(best), int(i), int(np.min(j))
    raise AssertionError("a confirmed score has a first tied pair")


def _matched_witness(plane, t, position, velocity, tol0, modulus, theta,
                     threshold, s_len):
    """The best matched pair as a witness, at tolerance ``tol0`` and then
    once more at ``4*tol0``; None when neither reaches ``threshold``.

    The relation follows the sign of ``v_i * v_j``: opposite motion at a
    coinciding position, or equal motion at the antipode, whose projected
    velocity is then reversed.
    """
    for tol in (tol0, 4 * tol0):
        hit = _best_matched_pair(position, velocity, tol, modulus)
        if hit is None:
            continue
        score, i, j = hit
        if score < threshold - _WITNESS_SLACK * max(1.0, threshold):
            continue
        coincide = velocity[i] * velocity[j] < 0
        return EquatorWitness(
            plane=plane, tau1=float(t[i]), tau2=float(t[j]),
            relation="coincide" if coincide else "antipodal",
            v_proj_1=float(velocity[i]),
            v_proj_2=float(velocity[j] if coincide else -velocity[j]),
            theta=theta, threshold=threshold, curve_length=s_len,
            window=(float(t[0]), float(t[-1])), match_tol=float(tol))
    return None


def find_circle_witness(c: Curve, theta: float) -> EquatorWitness:
    """Witness search for a curve lying on a circle about the origin.

    Requires length > 2*pi*R*theta.  Returns the time pair with equal or
    antipodal angular positions, opposite tangential motion, and maximal
    ``min(|v1|, |v2|)``; that minimum is guaranteed to reach
    ``s/(4 (t2-t1))`` for closed curves and ``(theta-4)/(4 theta) *
    s/(t2-t1)`` otherwise.  The longitude-matching tolerance scales as
    ``2*pi/sqrt(samples)`` and is relaxed once (4x) before giving up.
    """
    if theta <= 4:
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
    duration = c.duration
    factor = 0.25 if c.closed else (theta - 4.0) / (4.0 * theta)
    threshold = factor * s_len / duration

    phi = np.concatenate([[0.0], np.cumsum(inc)])  # unwrapped
    position = np.mod(np.arctan2(x64[:, 1], x64[:, 0]), 2 * math.pi)
    v_tang = radius * _centered_rate(phi, c.t)

    tol0 = 2 * math.pi / math.sqrt(c.n_samples)
    w = _matched_witness(np.eye(2), c.t, position, v_tang, tol0, 2 * math.pi,
                         theta, threshold, s_len)
    if w is None:
        raise WitnessNotFound(
            "no matched pair reaches the required speed; the sampling may "
            "be too coarse for the longitude tolerance")
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
    witness search then supplies the time pair.  The stored projected
    velocities are tangential velocities of the longitude projection.
    """
    if theta <= 4:
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
        except (WitnessNotFound, PreconditionLength):
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
    """
    if theta <= 8:
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
    duration = c.duration
    threshold = (theta - 8.0) / (4.0 * theta) * s_len / duration
    rng = np.random.default_rng(seed)

    def directions():
        yield principal_direction(x)
        for _ in range(trials - 1):
            g = rng.standard_normal(c.dim)
            yield g / np.linalg.norm(g)

    for u in directions():
        p = x @ u
        tol0 = (float(np.max(p)) - float(np.min(p))) / math.sqrt(c.n_samples)
        w = _matched_witness(u[None, :].copy(), c.t, p, _centered_rate(p, c.t),
                             tol0, None, theta, threshold, s_len)
        if w is not None:
            return w
    raise WitnessNotFound(
        f"no line direction among {trials} trials yielded a witness")
