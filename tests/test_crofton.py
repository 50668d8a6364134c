import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import trajrot as tr
from trajrot import crofton
from trajrot.crofton import _best_segment_pair, haar_orthogonal
from trajrot.curves import planar_angle_increments


def mp_constants(n):
    mp.dps = 50
    c_n = mp.gamma((n + 1) / mp.mpf(2)) * mp.gamma(mp.mpf(1) / 2) / mp.gamma(n / mp.mpf(2))
    v_n = 2 * mp.gamma(mp.mpf(1) / 2) ** n / mp.gamma(n / mp.mpf(2))
    return c_n, v_n, c_n * v_n


def test_constants_n3():
    c = tr.crofton_constants(3)
    assert abs(c.c_n - 2.0) < 1e-14
    assert abs(c.V_n - 4 * math.pi) < 1e-12
    assert abs(c.C_n - 8 * math.pi) < 1e-12


def test_constants_n2():
    c = tr.crofton_constants(2)
    assert abs(c.c_n - math.pi / 2) < 1e-14
    assert abs(c.V_n - 2 * math.pi) < 1e-12
    assert abs(c.C_n - math.pi ** 2) < 1e-12


def test_constants_vs_high_precision_reference():
    for n in range(2, 11):
        ref_c, ref_v, ref_cc = mp_constants(n)
        got = tr.crofton_constants(n)
        assert abs(got.c_n / float(ref_c) - 1) < 1e-12
        assert abs(got.V_n / float(ref_v) - 1) < 1e-12
        assert abs(got.C_n / float(ref_cc) - 1) < 1e-12
        assert got.C_n > 0 and math.isfinite(got.C_n)


def great_circle(n=1001):
    th = np.linspace(0, 2 * math.pi, n)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    return tr.SphericalCurve(tr.Curve(np.linspace(0, 1, n), pts, closed=True))


def test_great_circle_estimate():
    est = tr.crofton_length_estimate(great_circle(), m=10_000, seed=4)
    assert abs(est.value - 2 * math.pi) <= 3 * est.stderr + 1e-9


def test_half_circle_estimate():
    th = np.linspace(0, math.pi, 501)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    s = tr.SphericalCurve(tr.Curve(np.linspace(0, 1, 501), pts))
    est = tr.crofton_length_estimate(s, m=10_000, seed=5)
    assert abs(est.value - math.pi) <= 3 * est.stderr + 1e-9


def test_spiral_blowup_estimate_matches_rotation(spiral_traj):
    short = tr.slice_time(spiral_traj, 0.0, 5.0)
    sph = tr.spherical_blowup(short, np.zeros(2))
    est = tr.crofton_length_estimate(sph, m=10_000, seed=6)
    assert abs(est.value - 5.0) <= 3 * est.stderr


def test_estimator_consistency_many_seeds():
    gc = great_circle(n=601)
    ref = tr.curve_length(gc.curve)
    hits = 0
    for seed in range(40):
        est = tr.crofton_length_estimate(gc, m=2_000, seed=seed)
        if abs(est.value - ref) <= 4 * est.stderr:
            hits += 1
    assert hits >= 38


def crofton_qr_reference(s, m, seed):
    """The estimator as it was with the batched QR: each normal is the
    first column of ``haar_orthogonal``, and both signbits are taken."""
    rng = np.random.default_rng(seed)
    x = s.curve.x
    counts = np.empty(m, dtype=np.int64)
    done = 0
    block = max(1, min(m, 4_000_000 // x.shape[0]))
    while done < m:
        k = min(block, m - done)
        f = x @ haar_orthogonal(rng, x.shape[1], k)[:, :, 0].T
        counts[done:done + k] = np.sum(
            np.signbit(f[:-1]) != np.signbit(f[1:]), axis=0)
        done += k
    var = float(np.var(counts, ddof=1))
    return crofton.CroftonEstimate(
        math.pi * float(np.mean(counts)),
        math.pi * math.sqrt((var + 1.0 / m) / m), m)


def long_spherical_curve(n=50_001):
    """A curve wandering over the sphere, long enough that one block of
    the estimator holds 2**18 // n = 5 draws, and one block of the
    reference 4e6 // n = 79: the two split the stream differently."""
    t = np.linspace(0.0, 1.0, n)
    th, ph = 40.0 * math.pi * t, 3.0 * np.sin(50.0 * t)
    pts = np.stack([np.cos(th) * np.cos(ph), np.sin(th),
                    np.cos(th) * np.sin(ph)], axis=1)
    return tr.SphericalCurve(tr.Curve(t, pts))


def wandering_circle(n=20_000):
    t = np.linspace(0.0, 1.0, n)
    th = 20.0 * math.pi * t + 3.0 * np.sin(50.0 * t)
    return tr.SphericalCurve(
        tr.Curve(t, np.stack([np.cos(th), np.sin(th)], axis=1)))


@pytest.mark.parametrize("curve, m, seeds", [
    (great_circle, 2_000, [0, 4, 11]),
    (lambda: great_circle(n=17), 100, [1, 2]),
    (long_spherical_curve, 300, [7]),
    (wandering_circle, 500, [3, 301]),
], ids=["great-circle", "coarse-circle", "three-blocks", "circle-2d"])
def test_crofton_matches_qr_reference(curve, m, seeds):
    s = curve()
    for seed in seeds:
        got = tr.crofton_length_estimate(s, m=m, seed=seed)
        assert got == crofton_qr_reference(s, m, seed)


@pytest.mark.parametrize("entries, dim", [
    (1, 3), (3 * 401, 3), (10 * 401 + 7, 3), (7 * 401, 3), (7 * 401, 2),
], ids=["1", "1203", "4017", "2807", "2807-planar"])
def test_crofton_blocks_change_no_bit(entries, dim, monkeypatch):
    # (8 * entries // 9) // 401 draws per block: one, 2, 8, and 6 (the
    # last block of 4), against one block of all 1000 draws, on a random
    # walk whose crossing counts vary from draw to draw
    walk = np.cumsum(np.random.default_rng(12).normal(size=(401, dim)),
                     axis=0)
    walk /= np.linalg.norm(walk, axis=1)[:, None]
    s = tr.SphericalCurve(tr.Curve(np.linspace(0.0, 1.0, 401), walk))
    monkeypatch.setattr(crofton, "_BLOCK_ENTRIES", 2 ** 40)
    whole = tr.crofton_length_estimate(s, m=1_000, seed=12)
    assert whole.stderr > 0.1
    monkeypatch.setattr(crofton, "_BLOCK_ENTRIES", entries)
    assert tr.crofton_length_estimate(s, m=1_000, seed=12) == whole


@pytest.mark.parametrize("v", [(2 / 7, 3 / 7, 6 / 7), (0.6, 0.8)],
                         ids=["3d", "2d"])
@pytest.mark.parametrize("n_pts", [255, 256, 257, 600, 5_000])
def test_crofton_alternating_curve_crosses_every_circle(v, n_pts):
    # v, -v, v, ...: the products of v and -v are exact negatives, so
    # every segment crosses every great subsphere and every count is
    # n_pts - 1; a chunk of 256 rows or a wrapping uint8 sum fails here
    x = np.where(np.arange(n_pts)[:, None] % 2 == 0, 1.0, -1.0) * v
    s = tr.SphericalCurve(tr.Curve(np.arange(float(n_pts)), x))
    est = tr.crofton_length_estimate(s, m=100, seed=3)
    assert est.value == math.pi * (n_pts - 1)
    assert est.stderr == math.pi / 100


@pytest.mark.parametrize("m", [2000.0, float("nan"), True, "2000"])
def test_crofton_rejects_non_integer_m(m):
    with pytest.raises(TypeError, match="m must be an integer"):
        tr.crofton_length_estimate(great_circle(n=17), m=m)


def test_crofton_m_takes_integer_types_and_a_floor():
    s = great_circle(n=17)
    assert (tr.crofton_length_estimate(s, m=np.int64(100), seed=1)
            == tr.crofton_length_estimate(s, m=100, seed=1))
    with pytest.raises(ValueError, match="m must be >= 100"):
        tr.crofton_length_estimate(s, m=99)


def test_haar_isotropy():
    rng = np.random.default_rng(8)
    g = haar_orthogonal(rng, 3, 100_000)
    u = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    dots = np.abs(g[:, :, 0] @ u)
    mean = dots.mean()
    se = dots.std(ddof=1) / math.sqrt(len(dots))
    assert abs(mean - 0.5) <= 3 * se  # E|<w,u>| = 1/2 on the 2-sphere


def test_haar_orthogonality():
    rng = np.random.default_rng(9)
    g = haar_orthogonal(rng, 4, 50)
    eye = np.einsum("sij,sik->sjk", g, g)
    assert np.max(np.abs(eye - np.eye(4))) < 1e-12


# --- witness searches ------------------------------------------------------


def uniform_loop(turns=5, n=4001):
    t = np.linspace(0, 1, n)
    phi = 2 * math.pi * turns * t
    return tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1),
                    closed=True)


def triangle_wave_curve(total_angle=30 * math.pi, n=6001):
    t = np.linspace(0, 1, n)
    half = total_angle / 2
    ang = np.where(t <= 0.5, 2 * half * t, half - 2 * half * (t - 0.5))
    return tr.Curve(t, np.stack([np.cos(ang), np.sin(ang)], axis=1))


def test_circle_witness_uniform_loop():
    w = tr.find_circle_witness(uniform_loop(), 4.5)
    assert w.relation == "antipodal"
    assert w.v_proj_1 * w.v_proj_2 < 0
    assert abs(abs(w.v_proj_1) - 10 * math.pi) < 0.1
    assert w.achieved >= w.threshold - 1e-9
    assert w.achieved >= 0.25 * w.curve_length - 0.1  # closed-curve bound, T=1


def coarse_loop():
    """Twelve samples of the unit circle at one turn per unit time, 4.6
    turns in all: 2*pi/sqrt(12) >= pi/2, so a pair can be both coinciding
    and antipodal within the longitude tolerance."""
    t = np.linspace(0, 4.6, 12)
    phi = 2 * math.pi * t
    return tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1))


def test_circle_witness_coarse_loop_relation_follows_velocity_signs():
    # the best pair moves the same way and is admitted as antipodal; labelled
    # by its position test it became "coincide" and failed construction
    w = tr.find_circle_witness(coarse_loop(), 4.5)
    assert w.relation == "antipodal"
    assert w.v_proj_1 * w.v_proj_2 < 0


def test_circle_witness_triangle_wave():
    w = tr.find_circle_witness(triangle_wave_curve(), 5.0)
    assert w.v_proj_1 * w.v_proj_2 < 0
    assert abs(abs(w.v_proj_1) - 30 * math.pi) < 0.5
    assert w.achieved >= (1 / 20) * w.curve_length - 0.5


def test_circle_witness_precondition():
    with pytest.raises(tr.PreconditionLength):
        tr.find_circle_witness(uniform_loop(turns=1, n=301), 5.0)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_circle_witness_at_extreme_time_scales(scale):
    # speeds near 1e171 or 1e-169: the product of two overflows or
    # underflows, their signs do not
    loop = uniform_loop()
    c = tr.Curve(loop.t * scale, loop.x, closed=True)
    w = tr.find_circle_witness(c, 4.5)
    assert w.relation == "antipodal"
    assert abs(w.achieved * scale - 10 * math.pi) < 0.1
    assert_exact(c, w)


def test_circle_witness_times_interior():
    w = tr.find_circle_witness(uniform_loop(), 4.5)
    assert 0.0 < w.tau1 < w.tau2 < 1.0


def equator_curve(turns, n=2001):
    t = np.linspace(0, 1, n)
    phi = 2 * math.pi * turns * t
    return tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1),
        closed=True))


def test_equator_witness_six_loops():
    eq = equator_curve(6, n=6001)
    w = tr.find_equator_witness(eq, 5.0, trials=64, seed=0)
    normal = np.cross(w.plane[0], w.plane[1])
    assert abs(abs(normal[2]) - 1.0) < 1e-6  # the equator plane itself
    assert abs(w.achieved - 12 * math.pi) < 0.1
    assert w.achieved >= (1 / 20) * 12 * math.pi


def test_equator_witness_precondition():
    s = equator_curve(3, n=3001)
    with pytest.raises(tr.PreconditionLength):
        tr.find_equator_witness(s, 5.0)


def test_equator_witness_back_and_forth_arc():
    t = np.linspace(0, 1, 8001)
    half = 20 * math.pi
    ang = np.where(t <= 0.5, 2 * half * t, half - 2 * half * (t - 0.5))
    arc = tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)))
    w = tr.find_equator_witness(arc, 5.0, trials=64, seed=0)
    assert w.v_proj_1 * w.v_proj_2 < 0
    assert w.achieved >= w.threshold - 1e-9


def zigzag_curve(round_trips=100, n=8001):
    t = np.linspace(0, 1, n)
    saw = (t * 2 * round_trips) % 2.0
    x = np.where(saw <= 1.0, -1.0 + 2 * saw, 3.0 - 2 * saw)
    return tr.Curve(t, np.stack([x, np.zeros_like(t), np.zeros_like(t)],
                                axis=1))


def test_euclidean_witness_zigzag():
    zig = zigzag_curve()
    w = tr.find_euclidean_witness(zig, 9.0, trials=50, seed=0)
    assert abs(abs(w.plane[0][0]) - 1.0) < 1e-9  # the x direction
    assert w.achieved >= (1 / 36) * w.curve_length - 1.0
    assert w.v_proj_1 * w.v_proj_2 < 0


def test_euclidean_witness_short_curve():
    c = tr.Curve([0, 1], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(tr.PreconditionLength):
        tr.find_euclidean_witness(c, 9.0)


def test_euclidean_witness_planar_spiral():
    t = np.linspace(0, 1, 12001)
    ang = 200 * math.pi * t
    r = 1.0 - 0.5 * t
    c = tr.Curve(t, np.stack([r * np.cos(ang), r * np.sin(ang),
                              np.zeros_like(t)], axis=1))
    w = tr.find_euclidean_witness(c, 9.0, trials=200, seed=0)
    assert w.achieved >= w.threshold - 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_witness_invariants_hold_for_any_seed(seed):
    eq = equator_curve(6)
    w = tr.find_equator_witness(eq, 4.5, trials=8, seed=seed)
    assert w.v_proj_1 * w.v_proj_2 < 0
    assert w.achieved >= w.threshold - 1e-9
    assert w.window[0] < w.tau1 < w.tau2 < w.window[1]


# --- segment-pair search against an O(m^2) oracle -------------------------


def pair_shifts(modulus):
    """(shift of the earlier segment, of the later one, same slope sign):
    a pair matches when its open intervals overlap after one of them is
    shifted up by 0, the modulus (opposite signs) or half of it (equal
    signs)."""
    if modulus is None:
        return [(0.0, 0.0, False)]
    h = 0.5 * modulus
    return [(0.0, 0.0, False), (modulus, 0.0, False), (0.0, modulus, False),
            (h, 0.0, True), (0.0, h, True)]


def oracle_segment_pair(lo, hi, slope, modulus):
    """Scan every segment pair i < j of the search's intervals; (score, i,
    j) of the fastest match, ties to the smallest i and then j, or None.
    A zero slope, or an interval empty at some shift, never matches."""
    m = len(slope)
    solid = slope != 0
    for d_i, d_j, _ in pair_shifts(modulus):
        solid &= (lo + d_i < hi + d_i) & (lo + d_j < hi + d_j)
    best = None
    chunk = max(1, 2_000_000 // m)
    for i0 in range(0, m, chunk):
        r = slice(i0, min(i0 + chunk, m))
        same = (slope[r, None] > 0) == (slope[None, :] > 0)
        match = np.zeros((len(slope[r]), m), dtype=bool)
        for d_i, d_j, want in pair_shifts(modulus):
            match |= ((same == want) & (lo[None, :] + d_j < hi[r, None] + d_i)
                      & (hi[None, :] + d_j > lo[r, None] + d_i))
        match &= np.arange(m)[r, None] < np.arange(m)[None, :]
        match &= solid[r, None] & solid[None, :]
        score = np.where(match, np.minimum(np.abs(slope[r, None]),
                                           np.abs(slope[None, :])), -np.inf)
        ii, jj = np.unravel_index(int(np.argmax(score)), score.shape)
        if score[ii, jj] > (-np.inf if best is None else best[0]):
            best = (float(score[ii, jj]), i0 + int(ii), int(jj))
    return best


def check_against_oracle(lo, hi, slope, modulus):
    ref = oracle_segment_pair(lo, hi, slope, modulus)
    hit = _best_segment_pair(lo, hi, slope, modulus)
    assert (None if hit is None else hit[:3]) == ref
    if hit is not None:   # the midpoints coincide at a shift of the pair's kind
        _, i, j, u_i, u_j = hit
        assert 0.0 <= u_i <= 1.0 and 0.0 <= u_j <= 1.0
        at_i = lo[i] + u_i * (hi[i] - lo[i])
        at_j = lo[j] + u_j * (hi[j] - lo[j])
        same = (slope[i] > 0) == (slope[j] > 0)
        scale = 1e-12 * max(1.0, abs(lo[i]), abs(hi[i]))
        assert any(abs(at_i + d_i - at_j - d_j) <= scale
                   for d_i, d_j, want in pair_shifts(modulus) if want == same)


@st.composite
def segment_cases(draw):
    """Circle or line intervals, and slopes of both signs and zero, rounded
    to 0-2 decimals, so that scores tie and intervals touch often."""
    m = draw(st.integers(1, 60))
    decimals = draw(st.integers(0, 2))
    modulus = draw(st.sampled_from([2 * math.pi, None]))
    floats = lambda a, b: np.round(draw(st.lists(
        st.floats(a, b), min_size=m, max_size=m)), decimals)
    if modulus is None:
        lo, width = floats(-5.0, 5.0), floats(0.0, 3.0)
    else:   # lo <= 6.28 < 2*pi, and widths round to at most 3.14 < pi
        lo, width = np.minimum(floats(0.0, 2 * math.pi), 6.28), \
            floats(0.0, math.pi)
    return lo, lo + width, floats(-3.0, 3.0), modulus


@given(segment_cases())
@settings(max_examples=300, deadline=None)
def test_matched_pair_scan_matches_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("modulus", [2 * math.pi, None])
def test_matched_pair_ties_across_chunks(modulus):
    # m = 2001 scans in chunks of 999 rows; unit speeds tie every score, so
    # the first chunk's pair must survive the later chunks
    rng = np.random.default_rng(5)
    m = 2001
    lo = np.round(rng.uniform(0, 2 * math.pi, m), 2)
    slope = rng.choice([-1.0, 1.0], m)
    hi = lo + 0.05
    ref = oracle_segment_pair(lo, hi, slope, modulus)
    assert ref[1] < 999
    assert _best_segment_pair(lo, hi, slope, modulus)[:3] == ref


@st.composite
def boundary_segment_cases(draw):
    """Interval ends exactly on the grid of quarter turns (half units on
    the line, near 0 or 1e6), or one ulp or 1e-17 off it, so intervals
    touch at every shift, and either one common speed, so every score
    ties, or rounded random speeds."""
    m = draw(st.integers(2, 24))
    modulus = draw(st.sampled_from([2 * math.pi, None]))
    ints = lambda lo, hi: np.array(draw(st.lists(
        st.integers(lo, hi), min_size=m, max_size=m)), dtype=float)
    nudge = lambda a: np.nextafter(a + ints(-1, 1) * 1e-17, a + ints(-1, 1))
    if modulus is None:
        origin = draw(st.sampled_from([0.0, 1e6, -1e6]))
        lo = nudge(origin + ints(-2, 4) * 0.5)
        hi = np.maximum(lo, nudge(lo + ints(0, 2) * 0.5))
    else:
        lo = np.clip(nudge(ints(0, 4) * 0.25 * modulus), 0.0, modulus)
        hi = lo + ints(0, 2) * 0.25 * modulus
    signs = np.where(ints(0, 1) > 0, 1.0, -1.0)
    if draw(st.booleans()):
        slope = signs * draw(st.sampled_from([1.0, 0.5]))
    else:
        slope = np.round(signs * ints(0, 30) / 10, 1)
    return lo, hi, slope, modulus


@given(boundary_segment_cases())
@settings(max_examples=300, deadline=None)
def test_matched_pair_boundary_cases_match_oracle(case):
    check_against_oracle(*case)


def test_matched_pair_constant_speed_loop_at_scale():
    # 200 000 segments at one speed: every score ties, so the pair is the
    # first segment and its first partner half a turn on
    m = 200_000
    lo = np.mod(np.arange(m) * (100 * math.pi / m), 2 * math.pi)
    hi = lo + 100 * math.pi / m
    slope = np.ones(m)
    start = time.perf_counter()
    hit = _best_segment_pair(lo, hi, slope, 2 * math.pi)
    elapsed = time.perf_counter() - start
    j = np.arange(1, m)
    h = math.pi
    anti = ((lo[j] + h < hi[0]) & (hi[j] + h > lo[0])
            | (lo[j] < hi[0] + h) & (hi[j] > lo[0] + h))
    assert hit[:3] == (1.0, 0, int(j[anti][0]))
    assert elapsed < 5.0


@pytest.mark.parametrize("modulus", [2 * math.pi, None])
def test_matched_pair_random_speed_loop_matches_oracle(modulus):
    rng = np.random.default_rng(11)
    m = 8000
    dt = rng.uniform(0.5, 1.5, m)
    inc = rng.uniform(-0.05, 0.2, m)
    phi = np.cumsum(np.concatenate([[0.0], inc]))
    if modulus is None:
        p = np.cos(phi)
        lo, hi = np.minimum(p[:-1], p[1:]), np.maximum(p[:-1], p[1:])
        slope = np.diff(p) / dt
    else:
        lo = np.mod(np.minimum(phi[:-1], phi[1:]), modulus)
        hi, slope = lo + np.abs(inc), inc / dt
    check_against_oracle(lo, hi, slope, modulus)


# --- completeness and exactness on random polylines ------------------------


def assert_exact(c, w):
    """The witness times sit at equal or antipodal positions of the
    polyline's own longitude (or line coordinate), within 1e-12 rad
    (relative on the line) plus the position's drift over one rounding
    of each time, and its velocities are the slopes of the segments
    holding them."""
    x = c.x.astype(np.float64)
    circle = len(w.plane) == 2
    if circle:
        radius = float(np.mean(np.linalg.norm(x, axis=1)))
        inc = planar_angle_increments(x)
        pos = np.cumsum(np.concatenate([[math.atan2(x[0, 1], x[0, 0])], inc]))
        slope = radius * inc / np.diff(c.t)
    else:
        pos = x @ w.plane[0]
        slope = np.diff(pos) / np.diff(c.t)
    gap = np.interp(w.tau1, c.t, pos) - np.interp(w.tau2, c.t, pos)
    drift = sum(abs(v) * np.spacing(tau) for tau, v in
                ((w.tau1, w.v_proj_1), (w.tau2, w.v_proj_2)))
    if circle:
        gap = math.remainder(gap + (w.relation == "antipodal") * math.pi,
                             2 * math.pi)
        assert abs(gap) <= 1e-12 + drift / radius
    else:
        assert w.relation == "coincide"
        assert abs(gap) <= 1e-12 * np.max(np.abs(pos)) + drift
    sign = 1.0 if w.relation == "coincide" else -1.0
    for tau, v in ((w.tau1, w.v_proj_1), (w.tau2, sign * w.v_proj_2)):
        k = np.searchsorted(c.t, tau)          # tau in segment k-1 or k
        assert v in slope[max(k - 1, 0):k + 1]


def random_circle_curve(rng, theta, closed):
    """A polyline on a circle of random radius whose length exceeds
    2*pi*R*theta, with segment speeds spread over 4 decades in both
    directions; a closed one ends where it began."""
    n = int(rng.integers(4, 300))
    backward = rng.uniform(size=n) < rng.uniform()   # a random drift
    speed = rng.permutation(np.logspace(-2, 2, n)) * np.where(backward, -1, 1)
    inc = speed * rng.uniform(0.5, 2.0, n)
    inc *= 2 * math.pi * theta * rng.uniform(1.01, 3.0) / np.sum(np.abs(inc))
    dt = inc / speed
    if closed:
        back = -math.remainder(float(np.sum(inc)), 2 * math.pi)
        inc, dt = np.append(inc, back), np.append(dt, 1.0)
    parts = np.ceil(np.abs(inc) / (0.45 * math.pi)).astype(int)
    inc, dt = np.repeat(inc / parts, parts), np.repeat(dt / parts, parts)
    phi = rng.uniform(0, 2 * math.pi) + np.concatenate([[0.0], np.cumsum(inc)])
    x = 10 ** rng.uniform(-2, 2) * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    if closed:
        x[-1] = x[0]
    return tr.Curve(np.concatenate([[0.0], np.cumsum(dt)]), x, closed=closed)


def random_ball_curve(rng, closed):
    """400 points in the unit ball of the plane or of 3-space, joined at
    speeds spread over 4 decades: long enough for theta = 8.5."""
    pts = rng.normal(size=(400, int(rng.integers(2, 4))))
    pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
    if closed:
        pts[-1] = pts[0]
    dt = np.linalg.norm(np.diff(pts, axis=0), axis=1) / np.logspace(-2, 2, 399)
    return tr.Curve(np.concatenate([[0.0], np.cumsum(rng.permutation(dt))]),
                    pts, closed=closed)


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_witness_found_whenever_precondition_holds(seed, circle, closed):
    rng = np.random.default_rng(seed)
    if circle:
        theta = rng.uniform(4.01, 8.0)
        c = random_circle_curve(rng, theta, closed)
        w = tr.find_circle_witness(c, theta)
    else:
        c = random_ball_curve(rng, closed)
        w = tr.find_euclidean_witness(c, 8.5, trials=200, seed=seed)
    assert w.achieved >= w.threshold
    assert_exact(c, w)


def test_equator_search_lets_a_circle_miss_surface(monkeypatch):
    def miss(c, theta):
        raise tr.WitnessNotFound("circle search missed")

    monkeypatch.setattr(crofton, "find_circle_witness", miss)
    eq = equator_curve(6)
    with pytest.raises(tr.WitnessNotFound, match="circle search missed"):
        tr.find_equator_witness(eq, 5.0, trials=4)


def test_equator_search_falls_back_to_a_haar_plane(monkeypatch):
    # 60 loops of the equator, then a meridian out to the pole and back:
    # the principal plane is the xy-plane, whose pole the curve hits, so
    # the search must skip it and find the witness on a Haar plane
    t = np.linspace(0.0, 120 * math.pi, 6001)
    loops = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    m = np.linspace(0.0, math.pi / 2, 101)
    out = np.stack([np.cos(m), np.zeros_like(m), np.sin(m)], axis=1)
    x = np.concatenate([loops, out[1:], out[-2::-1]])
    s = tr.SphericalCurve(tr.Curve(np.linspace(0.0, 1.0, len(x)), x))
    with pytest.raises(tr.WitnessNotFound):
        tr.find_equator_witness(s, 5.0, trials=1)
    calls = []
    search = crofton.find_circle_witness

    def counted(c, theta):
        calls.append(theta)
        return search(c, theta)

    monkeypatch.setattr(crofton, "find_circle_witness", counted)
    w = tr.find_equator_witness(s, 5.0, trials=16, seed=0)
    assert len(calls) == 1  # the first Haar plane
    assert not np.allclose(w.plane, crofton.principal_plane(x))
    assert w.achieved >= w.threshold


@pytest.mark.parametrize("search", ["circle", "equator", "euclidean"])
def test_witness_rejects_nan_theta(search):
    with pytest.raises(ValueError, match="theta"):
        if search == "circle":
            tr.find_circle_witness(uniform_loop(), math.nan)
        elif search == "equator":
            tr.find_equator_witness(
                equator_curve(6), math.nan)
        else:
            tr.find_euclidean_witness(zigzag_curve(), math.nan)


def test_witness_rejects_fewer_than_one_trial():
    eq = equator_curve(6)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            tr.find_equator_witness(eq, 4.5, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            tr.find_euclidean_witness(zigzag_curve(), 9.0, trials=trials)
