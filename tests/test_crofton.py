import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import trajrot as tr
from trajrot.crofton import (_best_matched_pair, _centered_rate,
                             _matched_witness, _range_max, _range_max_table,
                             haar_orthogonal)


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


def test_circle_witness_times_interior():
    w = tr.find_circle_witness(uniform_loop(), 4.5)
    assert 0.0 < w.tau1 < w.tau2 < 1.0


def test_equator_witness_six_loops():
    t = np.linspace(0, 1, 6001)
    phi = 12 * math.pi * t
    eq = tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1),
        closed=True))
    w = tr.find_equator_witness(eq, 5.0, trials=64, seed=0)
    normal = np.cross(w.plane[0], w.plane[1])
    assert abs(abs(normal[2]) - 1.0) < 1e-6  # the equator plane itself
    assert abs(w.achieved - 12 * math.pi) < 0.1
    assert w.achieved >= (1 / 20) * 12 * math.pi


def test_equator_witness_precondition():
    t = np.linspace(0, 1, 3001)
    phi = 6 * math.pi * t
    s = tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1),
        closed=True))
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
    t = np.linspace(0, 1, 2001)
    phi = 12 * math.pi * t
    eq = tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1),
        closed=True))
    w = tr.find_equator_witness(eq, 4.5, trials=8, seed=seed)
    assert w.v_proj_1 * w.v_proj_2 < 0
    assert w.achieved >= w.threshold - 1e-9
    assert w.window[0] < w.tau1 < w.tau2 < w.window[1]


# --- matched-pair scan oracle ----------------------------------------------


# The O(m^2) scan as it stood with its two relation flags and a relation
# read from the position test, kept verbatim as the reference.
def oracle_matched_pair(position, velocity, coincide_ok, antipodal_ok, tol,
                        modulus):
    """Scan interior index pairs for matched positions and opposite motion.

    ``position`` is compared modulo ``modulus`` (None for the straight
    line case).  Returns (score, i, j, relation) of the best candidate or
    None.  For antipodal matches the second velocity is compared after
    projection to the first point's tangent direction, which flips its
    sign.
    """
    m = len(position)
    best = None
    idx = np.arange(m)
    interior = (idx > 0) & (idx < m - 1)
    chunk = max(1, 2_000_000 // m)
    for i0 in range(0, m, chunk):
        i1 = min(i0 + chunk, m)
        pi = position[i0:i1, None]
        vi = velocity[i0:i1, None]
        diff = pi - position[None, :]
        if modulus is None:
            coin = np.abs(diff) <= tol
            anti = np.zeros_like(coin)
        else:
            dd = np.mod(diff, modulus)
            coin = np.minimum(dd, modulus - dd) <= tol
            anti = np.abs(dd - 0.5 * modulus) <= tol
        vv = vi * velocity[None, :]
        cand = np.zeros(coin.shape, dtype=bool)
        if coincide_ok:
            cand |= coin & (vv < 0)
        if antipodal_ok:
            cand |= anti & (vv > 0)
        cand &= interior[i0:i1, None] & interior[None, :]
        cand &= (idx[i0:i1, None] < idx[None, :])
        if not np.any(cand):
            continue
        score = np.minimum(np.abs(vi), np.abs(velocity[None, :]))
        score = np.where(cand, score, -np.inf)
        flat = int(np.argmax(score))
        ii, jj = np.unravel_index(flat, score.shape)
        sc = float(score[ii, jj])
        if best is None or sc > best[0]:
            rel = "coincide"
            if antipodal_ok and not coin[ii, jj]:
                rel = "antipodal"
            best = (sc, i0 + int(ii), int(jj), rel)
    return best


@st.composite
def matched_pair_cases(draw):
    """Positions and velocities rounded to 0-2 decimals, so that scores and
    position matches tie often."""
    m = draw(st.integers(3, 60))
    decimals = draw(st.integers(0, 2))
    modulus = draw(st.sampled_from([2 * math.pi, None]))
    span = 2 * math.pi if modulus is not None else 5.0
    pos = draw(st.lists(st.floats(-span, span), min_size=m, max_size=m))
    vel = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    tol = draw(st.floats(0.01, 2.5))
    return np.round(pos, decimals), np.round(vel, decimals), tol, modulus


@given(matched_pair_cases())
@settings(max_examples=300, deadline=None)
def test_matched_pair_scan_matches_oracle(case):
    position, velocity, tol, modulus = case
    first = None
    for scan_tol in (tol, 4 * tol):
        ref = oracle_matched_pair(position, velocity, True,
                                  modulus is not None, scan_tol, modulus)
        hit = _best_matched_pair(position, velocity, scan_tol, modulus)
        assert hit == (None if ref is None else ref[:3])
        if first is None and ref is not None:
            first = (scan_tol, ref)

    t = np.arange(len(position), dtype=float)
    w = _matched_witness(np.eye(2), t, position, velocity, tol, modulus,
                         theta=5.0, threshold=0.0, s_len=1.0)
    if first is None:
        assert w is None
        return
    scan_tol, (_, i, j, label) = first
    coincide = velocity[i] * velocity[j] < 0
    assert (w.tau1, w.tau2) == (i, j)
    assert w.match_tol == scan_tol
    assert w.relation == ("coincide" if coincide else "antipodal")
    assert w.v_proj_1 == velocity[i]
    assert w.v_proj_2 == (velocity[j] if coincide else -velocity[j])
    if label != w.relation:
        # the oracle reads the label from the position test, which a pair
        # can pass both ways only when the tolerance reaches a quarter turn
        assert modulus is not None and label == "coincide"
        assert 2 * scan_tol >= 0.5 * modulus - 1e-12


@pytest.mark.parametrize("modulus", [2 * math.pi, None])
def test_matched_pair_ties_across_chunks(modulus):
    # m = 2001 scans in chunks of 999 rows; unit speeds tie every score, so
    # the first chunk's pair must survive the later chunks
    rng = np.random.default_rng(5)
    m = 2001
    position = np.round(rng.uniform(0, 2 * math.pi, m), 2)
    velocity = rng.choice([-1.0, 1.0], m)
    ref = oracle_matched_pair(position, velocity, True, modulus is not None,
                              0.05, modulus)
    assert ref[1] < 999
    assert _best_matched_pair(position, velocity, 0.05, modulus) == ref[:3]


@st.composite
def boundary_matched_pair_cases(draw):
    """Positions exactly at k*M/2 +- tol (M the modulus, or 0.5 on the line)
    and nudged by 1e-17 or one ulp, so np.mod rounds to M and matches sit
    on the tolerance edge; tolerances up to two turns, so the 4x pass
    reaches tol >= M/2 and tol >= M; straight-line positions near 0, where
    the rounded difference of mixed-sign positions decides the edge, or
    near 1e6; and either one common speed, so every score ties, or rounded
    random speeds."""
    m = draw(st.integers(3, 24))
    modulus = draw(st.sampled_from([2 * math.pi, None]))
    tol = draw(st.one_of(st.floats(0.01, 4 * math.pi),
                         st.integers(1, 125).map(lambda k: k / 10)))
    ints = lambda lo, hi: np.array(draw(st.lists(
        st.integers(lo, hi), min_size=m, max_size=m)), dtype=float)
    if modulus is None:
        origin, step = draw(st.sampled_from([0.0, 1e6, -1e6])), 0.5
    else:
        origin, step = 0.0, 0.5 * modulus
    pos = origin + ints(-2, 4) * step + ints(-1, 1) * tol
    pos = pos + ints(-1, 1) * 1e-17
    pos = np.nextafter(pos, pos + ints(-1, 1))
    signs = np.where(ints(0, 1) > 0, 1.0, -1.0)
    if draw(st.booleans()):
        vel = signs * draw(st.sampled_from([1.0, 0.5]))
    else:
        vel = np.round(signs * ints(1, 30) / 10, 1)
    return pos, vel, tol, modulus


# found by search: each pair matches only through a rounded difference,
# 1e-17 past the unwidened window
@given(boundary_matched_pair_cases())
@example((np.array([-3.3, -4.3, 1e-17, -0.5]), np.array([1.0, -1, 1, 1]),
          4.3, None))
@example((np.array([1.1, 2.041592653589793, 1e-17, 13.666370614359172]),
          np.array([-1.0, 1, 1, 1]), 1.1, 2 * math.pi))
@settings(max_examples=300, deadline=None)
def test_matched_pair_boundary_cases_match_oracle(case):
    position, velocity, tol, modulus = case
    for scan_tol in (tol, 4 * tol):
        ref = oracle_matched_pair(position, velocity, True,
                                  modulus is not None, scan_tol, modulus)
        hit = _best_matched_pair(position, velocity, scan_tol, modulus)
        assert hit == (None if ref is None else ref[:3])


def test_range_max_matches_slices():
    # an overestimate would only slow the search, so check it directly
    rng = np.random.default_rng(3)
    for n in range(18):
        a = np.round(rng.uniform(0, 5, n), 1)
        lo, hi = np.divmod(np.arange((n + 1) ** 2), n + 1)
        got = _range_max(_range_max_table(a), lo, hi)
        want = [a[x:y].max() if y > x else -np.inf for x, y in zip(lo, hi)]
        assert got.tolist() == want


def test_matched_pair_constant_speed_loop_at_scale():
    # every score ties at 1, so the scan's pair is row 1's first match
    m, modulus = 200_001, 2 * math.pi
    position = np.mod(np.linspace(0, 100 * math.pi, m), modulus)
    velocity = np.ones(m)
    tol = modulus / math.sqrt(m)
    start = time.perf_counter()
    hit = _best_matched_pair(position, velocity, tol, modulus)
    elapsed = time.perf_counter() - start
    j = np.arange(2, m - 1)
    dd = np.mod(position[1] - position[j], modulus)
    vv = velocity[1] * velocity[j]
    cand = (np.minimum(dd, modulus - dd) <= tol) & (vv < 0)
    cand |= (np.abs(dd - 0.5 * modulus) <= tol) & (vv > 0)
    assert hit == (1.0, 1, int(j[cand][0]))
    assert elapsed < 5.0


@pytest.mark.parametrize("modulus", [2 * math.pi, None])
def test_matched_pair_random_speed_loop_matches_oracle(modulus):
    rng = np.random.default_rng(11)
    m = 8001
    t = np.linspace(0, 1, m)
    phi = np.cumsum(rng.uniform(-0.05, 0.2, m))
    if modulus is None:
        position, tol = np.cos(phi), 2.0 / math.sqrt(m)
    else:
        position, tol = np.mod(phi, modulus), modulus / math.sqrt(m)
    velocity = _centered_rate(phi if modulus else position, t)
    ref = oracle_matched_pair(position, velocity, True, modulus is not None,
                              tol, modulus)
    assert _best_matched_pair(position, velocity, tol, modulus) == ref[:3]


def test_witness_reports_relaxed_tolerance():
    # the only opposite-motion pair is 0.3 apart: no match at 0.1, one at 0.4
    position = np.array([0.0, 0.0, 0.3, 0.0])
    velocity = np.array([1.0, 1.0, -1.0, 1.0])
    t = np.arange(4.0)
    assert _best_matched_pair(position, velocity, 0.1, None) is None
    w = _matched_witness(np.eye(2), t, position, velocity, 0.1, None,
                         theta=9.0, threshold=0.5, s_len=1.0)
    assert w.match_tol == 4 * 0.1
    assert (w.tau1, w.tau2) == (1.0, 2.0)
    assert tr.find_circle_witness(uniform_loop(), 4.5).match_tol == \
        2 * math.pi / math.sqrt(4001)


def test_witness_rejects_fewer_than_one_trial():
    t = np.linspace(0, 1, 2001)
    phi = 12 * math.pi * t
    eq = tr.SphericalCurve(tr.Curve(
        t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1),
        closed=True))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            tr.find_equator_witness(eq, 4.5, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            tr.find_euclidean_witness(zigzag_curve(), 9.0, trials=trials)
