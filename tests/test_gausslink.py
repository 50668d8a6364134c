import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import dblquad

import trajrot as tr
from trajrot import gausslink

from conftest import (SINK_BETA, SINK_MATRIX, X_AXIS, Z_AXIS, axis_segment,
                      circle3d, helix_curve, kernel_passes, random_rotation,
                      ray_shortfall, sink_closed_form, transform, translate)


def hopf_pair(n=801):
    c1 = circle3d(n=n)
    c2 = circle3d(n=n, center=(1.0, 0.0, 0.0), plane="xz", phase=0.37)
    return c1, c2


def test_circle_line_value():
    circle = circle3d(n=1501)
    line = tr.Curve([-100.0, 100.0], [[0.0, 0.0, -100.0], [0.0, 0.0, 100.0]])
    rr = tr.gauss_rotation_pair(circle, line, "signed")
    assert abs(rr.value - 1.0) < 1e-3


def test_far_apart_segments_negligible():
    a = tr.Curve([0, 1], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = tr.Curve([0, 1], [[0.0, 100.0, 0.0], [1.0, 100.0, 0.5]])
    rr = tr.gauss_rotation_pair(a, b, "signed")
    assert abs(rr.value) < 1e-4


def test_twist_pair_mutualrotation_zero(twist_pair):
    w1, w2 = twist_pair
    gs = tr.gauss_rotation_pair(w1, w2, "signed")
    ga = tr.gauss_rotation_pair(w1, w2, "absolute")
    assert abs(gs.value) < 1e-4
    assert ga.value < 1e-4


def test_hopf_linking_and_topology():
    c1, c2 = hopf_pair()
    lk = tr.linking_coefficient(c1, c2)
    assert abs(lk.nearest_integer) == 1
    assert lk.residual < 0.02
    assert tr.topological_linking_planar(c1, c2) == lk.nearest_integer


def test_hopf_orientation_reversal():
    c1, c2 = hopf_pair()
    lk = tr.linking_coefficient(c1, c2)
    lkr = tr.linking_coefficient(c1, tr.reverse(c2))
    assert lkr.nearest_integer == -lk.nearest_integer
    assert abs(lkr.raw + lk.raw) < 1e-6


def test_separated_circles_unlinked():
    c1 = circle3d(n=501)
    c3 = circle3d(n=501, center=(3.0, 0.0, 0.0))
    lk = tr.linking_coefficient(c1, c3)
    assert lk.nearest_integer == 0
    assert abs(lk.raw) < 1e-6


def test_linking_requires_closed():
    c1 = circle3d(n=101)
    open_curve = helix_curve(n=101)
    with pytest.raises(tr.NotClosed):
        tr.linking_coefficient(c1, open_curve)


def test_curves_too_close():
    c1 = circle3d(n=301)
    c2 = circle3d(n=301, phase=0.005)  # same circle, tiny phase shift
    with pytest.raises(tr.CurvesTooClose):
        tr.gauss_rotation_pair(c1, c2, "signed")


def test_topological_crossings_above_plane():
    c1 = circle3d(n=301)
    t = np.linspace(0, 1, 50)
    above = tr.Curve(t, np.stack([t, 0.2 + 0 * t, 1.0 + t], axis=1))
    assert tr.topological_linking_planar(c1, above) == 0


def test_topological_crossings_cancel():
    c1 = circle3d(n=301)
    # dips through the disk and comes back: two opposite crossings
    t = np.linspace(0, 1, 201)
    z = 0.5 - 1.0 * np.sin(math.pi * t)
    c2 = tr.Curve(t, np.stack([0.1 + 0 * t, 0.0 * t, z], axis=1))
    assert tr.topological_linking_planar(c1, c2) == 0


def test_topological_nontransversal():
    c1 = circle3d(n=301)
    t = np.linspace(0, 1, 20)
    inplane = tr.Curve(t, np.stack([2 + t, t, np.zeros_like(t)], axis=1))
    with pytest.raises(tr.NonTransversal):
        tr.topological_linking_planar(c1, inplane)


def test_topological_nonplanar_guard():
    th = np.linspace(0, 2 * math.pi, 101)
    saddle = tr.Curve(np.linspace(0, 1, 101),
                      np.stack([np.cos(th), np.sin(th),
                                0.3 * np.sin(2 * th)], axis=1), closed=True)
    c2 = circle3d(n=101, center=(0.0, 0.0, 2.0))
    with pytest.raises(tr.NotPlanar):
        tr.topological_linking_planar(saddle, c2)


def figure_eight(s):
    """(sin s, sin s cos s, 0): crosses itself at the origin when s hits
    a multiple of pi."""
    pts = np.stack([np.sin(s), np.sin(s) * np.cos(s), 0 * s], axis=1)
    return tr.Curve(np.arange(len(s), dtype=float), pts, closed=True)


def lobe_ring(n=801):
    """Circle through the left lobe of the figure-eight at x = -0.7."""
    phi = np.linspace(0, 2 * math.pi, n) + 0.37
    pts = np.stack([0.5 + 1.2 * np.cos(phi), np.full(n, 1e-3),
                    1.2 * np.sin(phi)], axis=1)
    return tr.Curve(np.arange(n, dtype=float), pts, closed=True)


@pytest.mark.parametrize("s", [np.linspace(0, 2 * math.pi, 2001),
                               np.linspace(0, 2 * math.pi, 2000) + 0.3],
                         ids=["crossing_on_sample", "crossing_off_samples"])
def test_topological_self_crossing_planar_curve(s):
    c1, c2 = figure_eight(s), lobe_ring()
    lk = tr.linking_coefficient(c1, c2)
    assert lk.nearest_integer == -1
    assert tr.topological_linking_planar(c1, c2) == lk.nearest_integer


def test_topological_crossing_on_curve_too_close():
    # the segment pierces the plane at a vertex of the circle, where the
    # winding number is undefined
    segment = tr.Curve([0, 1], [[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])
    with pytest.raises(tr.DistanceTooSmall):
        tr.topological_linking_planar(circle3d(n=301), segment)


def closed_polygon_through(points):
    return tr.Curve(np.arange(len(points) + 1, dtype=float),
                    np.concatenate([points, points[:1]]), closed=True)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_topological_count_matches_gauss_integral(seed):
    # a planar polygon in a random plane, self-crossings allowed, against
    # a random closed polygon; both are exact curves, so the polyline
    # Gauss integral is the linking number up to roundoff
    rng = np.random.default_rng(seed)
    flat = np.zeros((rng.integers(3, 12), 3))
    flat[:, :2] = rng.uniform(-1.0, 1.0, (len(flat), 2))
    c1 = closed_polygon_through(flat @ random_rotation(rng).T
                                + rng.uniform(-0.3, 0.3, 3))
    c2 = closed_polygon_through(rng.uniform(-1.5, 1.5,
                                            (rng.integers(3, 12), 3)))
    try:
        want = round(tr.gauss_rotation_pair(c1, c2).value)
        got = tr.topological_linking_planar(c1, c2)
    except tr.NotPlanar:
        raise  # c1 is planar by construction
    except tr.PreconditionError:
        assume(False)
    assert got == want


def test_linking_refuses_a_snap_whose_error_bar_holds_two_integers():
    # the Gauss integral is -1, but the decimated pair links 0, so the
    # error estimate is 1: the bar reaches 0 as well as -1
    c1 = closed_polygon_through(np.array(
        [(-0.735, 0.25, 1.031), (0.161, -0.586, -1.341),
         (-1.402, 0.503, 0.99), (-0.164, -1.074, 0.873)]))
    c2 = closed_polygon_through(np.array(
        [(-1.795, -1.235, 0.755), (-2.765, -0.135, -0.447),
         (-0.406, -0.597, 0.336), (0.179, -1.28, 1.555),
         (0.211, 0.322, 1.299), (0.273, 0.323, 0.21),
         (-1.942, -0.657, -0.635), (-1.938, -0.263, -0.434)]))
    rr = tr.gauss_rotation_pair(c1, c2)
    assert round(rr.value) == -1 and abs(rr.value + 1) < 1e-12
    assert rr.error_estimate >= 0.5
    with pytest.raises(tr.QuadratureInconclusive):
        tr.linking_coefficient(c1, c2)


def test_symmetry_under_swap():
    c1, c2 = hopf_pair(n=301)
    for mode in ("signed", "absolute"):
        a = tr.gauss_rotation_pair(c1, c2, mode)
        b = tr.gauss_rotation_pair(c2, c1, mode)
        assert abs(a.value - b.value) < 1e-12


def test_signed_bounded_by_absolute():
    c1, c2 = hopf_pair(n=301)
    s = tr.gauss_rotation_pair(c1, c2, "signed")
    a = tr.gauss_rotation_pair(c1, c2, "absolute")
    assert abs(s.value) <= a.value + s.error_estimate + a.error_estimate


def test_rigid_motion_invariance():
    c1, c2 = hopf_pair(n=301)
    rng = np.random.default_rng(11)
    q = random_rotation(rng)
    shift = np.array([0.5, 2.0, -1.0])
    base = tr.gauss_rotation_pair(c1, c2, "signed")
    moved = tr.gauss_rotation_pair(transform(c1, q, shift),
                                   transform(c2, q, shift), "signed")
    assert abs(base.value - moved.value) < 1e-9


def test_additivity_in_second_argument():
    c1 = circle3d(n=301)
    c2 = translate(helix_curve(turns=1.5, n=401), [0.0, 0.0, 0.3])
    k = 200
    c2a = tr.Curve(c2.t[: k + 1], c2.x[: k + 1])
    c2b = tr.Curve(c2.t[k:], c2.x[k:])
    whole = tr.gauss_rotation_pair(c1, c2, "signed").value
    parts = (tr.gauss_rotation_pair(c1, c2a, "signed").value
             + tr.gauss_rotation_pair(c1, c2b, "signed").value)
    assert abs(whole - parts) < 1e-10


def test_deformation_invariance_closed_first_curve():
    # family of open arcs with fixed endpoints avoiding the closed curve
    c1 = circle3d(n=501)
    rng = np.random.default_rng(21)
    values, errors = [], []
    t = np.linspace(0.0, 1.0, 301)
    bump = np.sin(math.pi * t)
    for _ in range(10):
        amp = rng.uniform(-0.2, 0.2, size=2)
        x = 0.3 + amp[0] * bump
        y = amp[1] * bump
        z = -1.0 + 2.0 * t
        c2 = tr.Curve(t, np.stack([x, y, z], axis=1))
        rr = tr.gauss_rotation_pair(c1, c2, "signed")
        values.append(rr.value)
        errors.append(rr.error_estimate)
    spread = max(values) - min(values)
    assert spread <= 2 * max(errors) + 1e-6


# Against a whole straight line the Gauss integral is the signed rotation
# around the line in closed form (README, "Numerical design notes"), so
# the whole-line checks below measure it with rotation_around_subspace.


def test_helix_line_crosscheck():
    helix = helix_curve(turns=3.0, n=1200)
    proj = tr.rotation_around_subspace(helix, Z_AXIS, "signed")
    assert abs(proj.value - 3.0) <= proj.error_estimate < 1e-9


def test_crosscheck_absolute_mode():
    helix = helix_curve(turns=3.0, n=1200)
    proj = tr.rotation_around_subspace(helix, Z_AXIS, "absolute")
    # radians: three turns, each of them one way
    assert abs(proj.value - 6 * math.pi) <= proj.error_estimate < 1e-3


def test_crosscheck_sink_trajectory():
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.01,
                              chord_tol=1e-5)
    traj = tr.integrate_trajectory(tr.linear(SINK_MATRIX),
                                   np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)
    proj = tr.rotation_around_subspace(traj, X_AXIS, "signed")
    assert abs(abs(proj.value) - SINK_BETA * 3.0 / (2 * math.pi)) < 1e-3


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_pair_kernel_on_long_axis_segment_helix(mode):
    # the whole-line value is the projection by construction; the segment
    # pair kernel is checked against it independently, up to what the
    # segment |z| <= 1000 misses of the line
    helix = helix_curve(turns=3.0, n=1200)
    gauss = tr.gauss_rotation_pair(axis_segment(Z_AXIS, 1000.0), helix, mode)
    proj = tr.rotation_around_subspace(helix, Z_AXIS, mode)
    scale = 2 * math.pi if mode == "absolute" else 1.0
    shortfall = ray_shortfall(helix, Z_AXIS, 1000.0)
    assert shortfall < 2e-6
    # the helix winds one way only, so the rays beyond the segment add to
    # the same side: the segment misses between 0 and the shortfall
    missed = proj.value / scale - gauss.value
    est = gauss.error_estimate + proj.error_estimate / scale
    assert -est <= missed <= shortfall + est


def test_pair_kernel_on_long_axis_segment_sink(sink_pair):
    traj = sink_pair[1]
    gauss = tr.gauss_rotation_pair(axis_segment(X_AXIS, 1000.0), traj)
    proj = tr.rotation_around_subspace(traj, X_AXIS, "signed")
    # the trajectory winds one way only, as the helix does
    missed = math.copysign(1.0, proj.value) * (proj.value - gauss.value)
    est = gauss.error_estimate + proj.error_estimate
    assert -est <= missed <= ray_shortfall(traj, X_AXIS, 1000.0) + est


def test_crosscheck_planar_curve_no_winding():
    t = np.linspace(0, 1, 301)
    c = tr.Curve(t, np.stack([1.0 + t, np.zeros_like(t), -1 + 2 * t], axis=1))
    proj = tr.rotation_around_subspace(c, Z_AXIS, "signed")
    assert abs(proj.value) < 5e-3


def projected_turns(q):
    """40-digit sum of the planar angle increments between consecutive
    rows of ``q``, divided by 2 pi."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for a, b in zip(q[:-1].tolist(), q[1:].tolist()):
            a0, a1, b0, b1 = map(mpmath.mpf, a + b)
            total += mpmath.atan2(a0 * b1 - a1 * b0, a0 * b0 + a1 * b1)
        return float(total / (2 * mpmath.pi))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=40),
       log_dist=st.floats(min_value=-9.0, max_value=0.0),
       log_height=st.floats(min_value=-2.0, max_value=4.0),
       shift=st.sampled_from([-1.5, 0.0, 1.5]))
@settings(max_examples=80, deadline=None)
# far along the line against the distance from it, above and below
@example(seed=3, n=40, log_dist=-9.0, log_height=4.0, shift=1.5)
@example(seed=4, n=40, log_dist=-9.0, log_height=4.0, shift=-1.5)
def test_whole_line_gauss_matches_mpmath(seed, n, log_dist, log_height,
                                         shift):
    # vertices at distance ~10^log_dist from the z-axis and heights
    # 10^log_height * (shift + [-1, 1]): all above, straddling, all below
    rng = np.random.default_rng(seed)
    q = 10.0 ** log_dist * rng.normal(size=(n, 2))
    h = 10.0 ** log_height * (shift + rng.uniform(-1.0, 1.0, size=n))
    c = tr.Curve(np.arange(n), np.column_stack([q, h]))
    whole_line = tr.rotation_around_subspace(c, Z_AXIS, "signed", guard=0.0)
    # within the roundoff term of the estimate, 1e-15 turns per sample
    assert abs(whole_line.value - projected_turns(q)) <= 1e-15 * n


def test_circle_against_whole_axis_is_one():
    proj = tr.rotation_around_subspace(circle3d(n=1501), Z_AXIS, "signed")
    assert abs(proj.value - 1.0) <= proj.error_estimate < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_crosscheck_under_rigid_motion(mode, seed):
    # helix and axis moved together: still exactly three turns
    rng = np.random.default_rng(seed)
    rot, shift = random_rotation(rng), 10.0 * rng.normal(size=3)
    helix = transform(helix_curve(turns=3.0, n=1200), rot, shift)
    axis = tr.AffineSubspace(shift, [rot @ Z_AXIS.basis[0]])
    proj = tr.rotation_around_subspace(helix, axis, mode)
    # the projection reports radians when absolute
    scale = 2 * math.pi if mode == "absolute" else 1.0
    assert abs(proj.value / scale - 3.0) <= proj.error_estimate / scale
    if mode == "signed":
        assert proj.error_estimate < 1e-9


@pytest.mark.parametrize("guard", [float("nan"), -1.0, float("inf")])
def test_pair_guard_must_be_finite_and_non_negative(guard):
    # unchecked, a NaN or negative guard lets a curve "link" itself 0 times
    c = circle3d(n=201)
    with pytest.raises(ValueError, match="guard"):
        tr.linking_coefficient(c, c, guard=guard)
    with pytest.raises(ValueError, match="guard"):
        tr.gauss_rotation_pair(c, translate(c, [5.0, 0.0, 0.0]),
                               guard=guard)


def test_zero_pair_guard_still_rejects_contact():
    c = circle3d(n=201)
    with pytest.raises(tr.CurvesTooClose):
        tr.linking_coefficient(c, c, guard=0.0)


# ---------------------------------------------------------------------------
# exact kernel against independent quadrature and closed forms


def segment_integral(p1, q1, p2, q2):
    """The pair's Gauss double integral (times 4 pi) by adaptive
    quadrature; its numerator <d1 x d2, x1 - x2> is constant."""
    p1, q1, p2, q2 = (np.asarray(v, dtype=float) for v in (p1, q1, p2, q2))
    d1, d2 = q1 - p1, q2 - p2
    numer = float(np.dot(np.cross(d1, d2), p1 - p2))

    def kernel(t, s):
        r = p1 + s * d1 - p2 - t * d2
        return numer / float(np.dot(r, r)) ** 1.5

    return dblquad(kernel, 0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0]


def polyline(points):
    return tr.Curve(np.arange(len(points), dtype=float), points)


_coord = st.floats(-1.0, 1.0)
_below = st.tuples(_coord, _coord, st.floats(-1.0, -0.1))
_above = st.tuples(_coord, _coord, st.floats(0.1, 1.0))


@given(st.tuples(_below, _below), st.tuples(_above, _above))
@settings(max_examples=30, deadline=None)
def test_segment_pair_matches_dblquad(seg1, seg2):
    want = segment_integral(*seg1, *seg2) / (4 * math.pi)
    c1, c2 = polyline(seg1), polyline(seg2)
    signed = tr.gauss_rotation_pair(c1, c2, "signed")
    absolute = tr.gauss_rotation_pair(c1, c2, "absolute")
    assert abs(signed.value - want) < 1e-12
    assert abs(absolute.value - abs(want)) < 1e-12
    assert abs(signed.value - want) <= signed.error_estimate


@given(st.lists(_below, min_size=3, max_size=4),
       st.lists(_above, min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_polyline_pair_matches_sum_of_dblquads(pts1, pts2):
    pair = [segment_integral(pts1[i], pts1[i + 1], pts2[j], pts2[j + 1])
            for i in range(len(pts1) - 1) for j in range(len(pts2) - 1)]
    c1, c2 = polyline(pts1), polyline(pts2)
    signed = tr.gauss_rotation_pair(c1, c2, "signed").value
    absolute = tr.gauss_rotation_pair(c1, c2, "absolute").value
    assert abs(signed - math.fsum(pair) / (4 * math.pi)) < 1e-11
    assert abs(absolute - math.fsum(map(abs, pair)) / (4 * math.pi)) < 1e-11


@pytest.mark.parametrize("h", [1.0, 1e-2, 1e-4, 1e-6])
def test_near_touching_perpendicular_pair_closed_form(h):
    # relative positions sweep a 2 x 2 square at distance h from the
    # origin; its solid angle is 4 atan(1 / (h sqrt(2 + h^2)))
    a = polyline([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = polyline([[0.0, -1.0, h], [0.0, 1.0, h]])
    want = -math.atan(1.0 / (h * math.sqrt(2.0 + h * h))) / math.pi
    got = tr.gauss_rotation_pair(a, b, "signed")
    # roundoff grows like length / distance and the estimate says so
    assert abs(got.value - want) <= got.error_estimate
    assert got.error_estimate < 1e-12 + 1e-14 / h


def test_coplanar_disjoint_pairs_exactly_zero():
    a = polyline([[0.0, 0.0, 0.0], [1.0, 0.3, 0.0], [2.0, -0.5, 0.0]])
    b = polyline([[0.0, 1.0, 0.0], [1.5, 2.0, 0.0], [3.0, 1.0, 0.0],
                  [4.0, -3.0, 0.0]])
    for mode in ("signed", "absolute"):
        assert tr.gauss_rotation_pair(a, b, mode).value == 0.0


def test_collinear_and_parallel_pairs_zero():
    on_axis = polyline([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ahead = polyline([[2.0, 0.0, 0.0], [3.5, 0.0, 0.0]])
    assert tr.gauss_rotation_pair(on_axis, ahead, "absolute").value == 0.0
    parallel = polyline([[0.2, 0.7, -0.4], [2.2, 0.7, -0.4]])
    for mode in ("signed", "absolute"):
        assert abs(tr.gauss_rotation_pair(on_axis, parallel, mode).value) \
            < 1e-15


def test_zero_length_segments_contribute_nothing():
    c1 = circle3d(n=201)
    c2 = translate(helix_curve(turns=1.0, n=101), [0.0, 0.0, 0.3])
    x = np.insert(c2.x, 50, c2.x[50], axis=0)  # one repeated vertex
    padded = tr.Curve(np.arange(len(x), dtype=float), x)
    for mode in ("signed", "absolute"):
        base = tr.gauss_rotation_pair(c1, c2, mode).value
        assert abs(tr.gauss_rotation_pair(c1, padded, mode).value - base) \
            < 1e-13
    point = polyline([[0.5, 0.5, 2.0], [0.5, 0.5, 2.0]])
    assert tr.gauss_rotation_pair(c1, point, "absolute").value == 0.0


def test_crossing_segments_far_vertices_too_close():
    a = polyline([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = polyline([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(tr.CurvesTooClose):
        tr.gauss_rotation_pair(a, b, "signed")
    near_miss = translate(b, [0.3, 0.0, 1e-9])
    with pytest.raises(tr.CurvesTooClose):
        tr.gauss_rotation_pair(a, near_miss, "absolute")
    clear = translate(b, [0.3, 0.0, 1e-3])
    assert abs(tr.gauss_rotation_pair(a, clear, "signed").value) > 0.2


@pytest.mark.parametrize("mode", ["signed", "absolute"])
def test_decimated_copy_is_not_guarded(mode):
    # the V stays 0.707 from the axis segment, but its decimated copy is
    # the chord from (-1, 0, 0) to (1, 0, 0), which passes through it
    v = polyline([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    axis = polyline([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    pair = [segment_integral(v.x[i], v.x[i + 1], *axis.x) for i in (0, 1)]
    want = math.fsum(pair if mode == "signed" else map(abs, pair))
    rr = tr.gauss_rotation_pair(v, axis, mode)
    assert abs(rr.value - want / (4 * math.pi)) < 1e-11
    # the chord itself passes through the axis: the real guard raises
    chord = polyline([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(tr.CurvesTooClose):
        tr.gauss_rotation_pair(chord, axis, mode)


def closed_polygon(n, center=(0.0, 0.0, 0.0), plane="xy", phase=0.0):
    """Regular n-gon on the unit circle whose last vertex repeats the
    first bit for bit."""
    th = 2 * math.pi * np.arange(n) / n + phase
    z = np.zeros_like(th)
    ring = {"xy": np.stack([np.cos(th), np.sin(th), z], axis=1),
            "xz": np.stack([np.cos(th), z, np.sin(th)], axis=1)}[plane]
    pts = np.asarray(center) + np.concatenate([ring, ring[:1]])
    return tr.Curve(np.arange(n + 1, dtype=float), pts, closed=True)


@pytest.mark.parametrize("n", [7, 64, 800])
def test_closed_polygon_hopf_exact_integer(n):
    c1 = closed_polygon(n)
    c2 = closed_polygon(n, center=(1.0, 0.0, 0.0), plane="xz", phase=0.37)
    lk = tr.linking_coefficient(c1, c2)
    assert abs(lk.nearest_integer) == 1
    assert lk.residual < 1e-9
    assert tr.topological_linking_planar(c1, c2) == lk.nearest_integer


def test_circle_line_error_covers_exact_value():
    circle = circle3d(n=1501)
    line = tr.Curve([-100.0, 100.0], [[0.0, 0.0, -100.0], [0.0, 0.0, 100.0]])
    rr = tr.gauss_rotation_pair(circle, line, "signed")
    exact = 100.0 / math.sqrt(10001.0)  # the segment |z| <= 100
    assert abs(rr.value - exact) <= rr.error_estimate
    assert abs(rr.value - exact) < 1e-9


def test_pair_budget_raises_before_work():
    t = np.linspace(0.0, 1.0, 40_001)
    a = tr.Curve(t, np.stack([t, 0 * t, 0 * t], axis=1))
    b = translate(a, [0.0, 1.0, 0.0])
    with pytest.raises(tr.SampleBudgetExceeded):
        tr.gauss_rotation_pair(a, b, "signed")


SAMPLE_END = st.integers(min_value=1, max_value=11).map(float)
CUT_END = st.one_of(SAMPLE_END, st.floats(min_value=0.05, max_value=11.0))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       ends=st.lists(st.tuples(CUT_END, CUT_END), min_size=1, max_size=4),
       mode=st.sampled_from(["signed", "absolute"]))
@settings(max_examples=60, deadline=None)
# cuts on samples (the end vertex is a sample, n_k - 1 even and odd),
# and between samples (n_k - 1 odd and even)
@example(seed=1, ends=[(4.0, 5.0), (5.0, 4.0), (11.0, 11.0)], mode="signed")
@example(seed=2, ends=[(4.5, 5.5), (5.5, 4.5), (0.3, 11.0)],
         mode="absolute")
# the shared pass's centering gives a different roundoff term
@example(seed=81, ends=[(3.0, 1.0), (4.0, 6.0)], mode="signed")
def test_nested_cuts_match_single_pairs(seed, ends, mode):
    rng = np.random.default_rng(seed)
    t = np.arange(12, dtype=float)
    c1 = tr.Curve(t, rng.normal(size=(12, 3)))
    c2 = tr.Curve(t, rng.normal(size=(12, 3)) + [0.0, 0.0, 0.5])
    pairs = [(tr.slice_time(c1, 0.0, a), tr.slice_time(c2, 0.0, b))
             for a, b in ends]
    guard = 1e-7
    try:
        with kernel_passes() as shared:
            got = gausslink.gauss_rotation_nested(pairs, mode, guard=guard)
    except tr.CurvesTooClose:
        # the shared pass checks the longest pair's whole grid
        longest = [max((p[i] for p in pairs), key=lambda c: c.n_samples)
                   for i in (0, 1)]
        with pytest.raises(tr.CurvesTooClose):
            tr.gauss_rotation_pair(*longest, mode, guard=guard)
        return
    assert len(shared) == 2
    for k, ((a, b), rr) in enumerate(zip(pairs, got)):
        with kernel_passes() as single:
            want = tr.gauss_rotation_pair(a, b, mode, guard=guard)
        # each pass's value lies within its own roundoff term of the exact
        # polyline integral; the error estimates add the full pass's term
        (_, ro), (_, ro_dec) = shared[0][k], shared[1][k]
        (_, ro1), (_, ro1_dec) = single[0][0], single[1][0]
        scale = 4 * math.pi
        assert abs(rr.value - want.value) <= (ro + ro1) / scale
        assert abs(rr.error_estimate - want.error_estimate
                   - (ro - ro1) / scale) \
            <= (ro + ro1 + ro_dec + ro1_dec) / scale


def test_nested_pairs_must_share_their_start():
    t = np.arange(6, dtype=float)
    c1 = tr.Curve(t, np.stack([t, 0 * t, 0 * t], axis=1))
    c2 = translate(c1, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        gausslink.gauss_rotation_nested(
            [(c1, c2), (tr.slice_time(c1, 1.0, 4.0),
                        tr.slice_time(c2, 0.0, 4.0))])


def test_nested_guard_raises_as_the_largest_pair():
    # c2 passes 1e-9 over c1 at t = 0.5, inside the innermost cut, and
    # leaves c1 behind after that
    t = np.linspace(0.0, 10.0, 41)
    c1 = tr.Curve(t, np.stack([t, 0 * t, 0 * t], axis=1))
    c2 = tr.Curve(t, np.stack([0 * t + 0.5, t - 0.5, 0 * t + 1e-9], axis=1))
    pairs = [(tr.slice_time(c1, 0.0, tb), tr.slice_time(c2, 0.0, tb))
             for tb in (1.3, 5.0, 10.0)]
    for pair in (pairs[0], pairs[-1]):
        with pytest.raises(tr.CurvesTooClose):
            tr.gauss_rotation_pair(*pair, "absolute")
    for mode in ("signed", "absolute"):
        with pytest.raises(tr.CurvesTooClose):
            gausslink.gauss_rotation_nested(pairs, mode)


# ---------------------------------------------------------------------------
# the chunked pass: one grid over many row chunks


def test_guard_raises_on_a_close_pair_in_the_last_chunk(monkeypatch):
    # c1 runs along the x-axis and its last segment passes 1e-9 under c2;
    # in tiles of 2 rows, one tile a stack, that segment is the last
    # stack's only row
    monkeypatch.setattr(gausslink, "_CHUNK_PAIRS", 8)
    t = np.arange(12, dtype=float)
    c1 = tr.Curve(t, np.stack([t, 0 * t, 0 * t], axis=1))
    y = np.linspace(-1.0, 1.0, 5)
    c2 = tr.Curve(y, np.stack([0 * y + 10.5, y, 0 * y + 1e-9], axis=1))
    s1, s2 = gausslink._Polyline(c1.x), gausslink._Polyline(c2.x)
    i0 = np.arange(0, 11, 2)
    tiles = (i0, np.minimum(i0 + 2, 11), 0 * i0, 0 * i0 + 4)
    starts = []
    with pytest.raises(tr.CurvesTooClose):
        for k, *_ in gausslink._direct_angles(s1, s2, False, 1e-7, tiles):
            starts += i0[k].tolist()
    assert starts == [0, 2, 4, 6, 8]
    for mode in ("signed", "absolute"):
        with pytest.raises(tr.CurvesTooClose):
            tr.gauss_rotation_pair(c1, c2, mode)
    clear = tr.Curve(t[:-1], c1.x[:-1])
    assert abs(tr.gauss_rotation_pair(clear, c2).value) < 0.1


def _walks(seed, n1, n2, offset):
    rng = np.random.default_rng(seed)
    x1 = np.cumsum(rng.normal(scale=0.3, size=(n1 + 1, 3)), axis=0)
    x2 = np.cumsum(rng.normal(scale=0.3, size=(n2 + 1, 3)), axis=0)
    return x1, x2 + offset


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n1=st.integers(min_value=1, max_value=14),
       n2=st.integers(min_value=1, max_value=14),
       offset=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       chunk=st.integers(min_value=1, max_value=60))
@settings(max_examples=150, deadline=None)
def test_chunked_close_pairs_match_the_whole_grid(seed, n1, n2, offset,
                                                  chunk):
    """The pairs each stack of tiles flags are those of the whole-grid
    test ``r00 <= reach1 + reach2``, tiles the screen skips and padded
    tiles included, so the roundoff term is that of one stack over the
    whole grid."""
    x1, x2 = _walks(seed, n1, n2, offset)
    guard = 1e-9
    s1, s2 = gausslink._Polyline(x1), gausslink._Polyline(x2)
    c = s1.y[:, :, None] - s2.y[:, None]
    r00 = np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])[:-1, :-1]
    want = np.nonzero(r00 <= (2.0 * s1.length + guard)[:, None]
                      + 2.0 * s2.length)
    cut = [((n1 + 1, None), (n2 + 1, None))]
    whole = gausslink._pair_solid_angles(x1, x2, False, guard, cut)
    with pytest.MonkeyPatch.context() as mp:
        # runs of 3 and 4 segments, padded to 4 in a stack
        mp.setattr(gausslink, "_TILE", 4)
        e1, e2 = gausslink._split({n1}), gausslink._split({n2})
        r, q = (v.ravel() for v in np.indices((len(e1) - 1, len(e2) - 1)))
        tiles = (e1[r], e1[r + 1], e2[q], e2[q + 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gausslink, "_CHUNK_PAIRS", chunk)
        flagged = [(i, j) for *_, i, j
                   in gausslink._direct_angles(s1, s2, False, guard, tiles)]
        chunked = gausslink._pair_solid_angles(x1, x2, False, guard, cut)
    i, j = map(np.concatenate, zip(*flagged))
    order = np.lexsort((j, i))
    for got, ref in zip((i[order], j[order]), want):
        assert np.array_equal(got, ref)
    assert chunked[0][1] == pytest.approx(whole[0][1], rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, 200, 1999])
def test_chunked_values_match_one_chunk(chunk):
    x1, x2 = _walks(3, 60, 40, (0.5, 0.0, 0.2))
    cut = [((61, None), (41, None))]
    for absolute in (False, True):
        one = gausslink._pair_solid_angles(x1, x2, absolute, 1e-9, cut)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gausslink, "_CHUNK_PAIRS", chunk)
            many = gausslink._pair_solid_angles(x1, x2, absolute, 1e-9, cut)
        (v1, ro1), (v, ro) = one[0], many[0]
        assert abs(v - v1) <= 1e-15 * abs(v1)
        assert ro == pytest.approx(ro1, rel=1e-12)


# ---------------------------------------------------------------------------
# tiles summed by their boundary fans


def _helices(seed, n1, n2):
    """Two helices about parallel axes 2.5 apart, with random lengths,
    phase and offset along the axes."""
    rng = np.random.default_rng(seed)
    s1 = np.linspace(0.0, rng.uniform(2.0, 12.0), n1 + 1)
    s2 = np.linspace(0.0, rng.uniform(2.0, 12.0), n2 + 1)
    phase, lift = rng.uniform(0.0, 2 * math.pi), rng.uniform(-1.0, 1.0)
    x1 = np.stack([np.cos(s1), np.sin(s1), 0.15 * s1], axis=1)
    x2 = np.stack([2.5 + np.cos(s2 + phase), np.sin(s2 + phase),
                   0.15 * s2 + lift], axis=1)
    return x1, x2


def _sink_windows(seed, n1, n2):
    """Two disjoint time windows of one trajectory of the reference sink."""
    rng = np.random.default_rng(seed)
    a, b, c, d = np.cumsum(rng.uniform([0.0, 0.2, 0.05, 0.2],
                                       [1.0, 1.5, 0.5, 1.5]))
    x0 = rng.normal(size=3)
    return (sink_closed_form(x0, np.linspace(a, b, n1 + 1)),
            sink_closed_form(x0, np.linspace(c, d, n2 + 1)))


def _arc(seed, n1, n2):
    """A segment of the x-axis against a circle arc in the plane x = 10,
    centered 3 above the axis: the numerator <p1 - p2, d1 x d2> is
    proportional to 1 + 3 sin(theta), so it changes sign along the arc."""
    rng = np.random.default_rng(seed)
    s = np.linspace(-1.0, 1.0, n1 + 1)
    th = np.linspace(0.0, 2 * math.pi, n2 + 1) + rng.uniform(0.0, 1.0)
    x1 = np.stack([s, 0 * s, 0 * s], axis=1)
    x2 = np.stack([10.0 + 0 * th, np.cos(th), 3.0 + np.sin(th)], axis=1)
    return x1, x2


def _walk_pair(seed, n1, n2):
    return _walks(seed, n1, n2, np.random.default_rng(seed).uniform(-3, 3, 3))


_TILE_INPUTS = {"walks": _walk_pair, "helices": _helices,
                "sink": _sink_windows, "arc": _arc}


def _nested_cuts(x1, x2, ends):
    """Cuts of ``x1`` and ``x2`` ending at the fractions ``ends`` of their
    parameter: on a sample, or inside a segment with an interpolated end
    vertex."""
    def cut(x, q):
        pos = q * (len(x) - 1)
        p = int(pos) + 1
        f = pos - (p - 1)
        if f == 0.0 or p == len(x):
            return max(p, 2), None
        return p, x[p - 1] + f * (x[p] - x[p - 1])

    return [(cut(x1, a), cut(x2, b)) for a, b in ends]


def _tiled_and_direct(x1, x2, absolute, guard, cuts, tile, min_tile=None,
                      levels=None, chunk=None):
    """``_pair_solid_angles`` with tiles of at most ``tile`` segments
    halved down to ``min_tile`` (by default the module's), and all direct
    (one level of tiles far above twice the grid), each a list of (value,
    roundoff) or the error it raised; and the number of pairs the tiled
    call evaluated directly.  ``levels``, when given, receives the number
    of fan-summed tiles of each level of the tiled call, by the longest
    side of the level's tile rows; ``chunk`` sets ``_CHUNK_PAIRS`` for it
    (so the tile rows are tested in groups)."""
    kernel, fans = gausslink._direct_angles, gausslink._fans
    direct = [0]

    def counting(s1, s2, absolute, guard, tiles):
        i0, i1, j0, j1 = tiles
        direct[0] += int(np.sum((i1 - i0) * (j1 - j0)))
        return kernel(s1, s2, absolute, guard, tiles)

    def fans_by_level(s1, s2, e1, e2, fan, unit):
        if levels is not None:
            side = int(np.max(e1[1:] - e1[:-1]))
            levels[side] = levels.get(side, 0) + int(fan.sum())
        return fans(s1, s2, e1, e2, fan, unit)

    out = []
    for t, m, probe, fan_probe, c in (
            (tile, min_tile or gausslink._MIN_TILE, counting, fans_by_level,
             chunk or gausslink._CHUNK_PAIRS),
            (10**9, 10**9, kernel, fans, gausslink._CHUNK_PAIRS)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gausslink, "_TILE", t)
            mp.setattr(gausslink, "_MIN_TILE", m)
            mp.setattr(gausslink, "_CHUNK_PAIRS", c)
            mp.setattr(gausslink, "_direct_angles", probe)
            mp.setattr(gausslink, "_fans", fan_probe)
            try:
                out.append(gausslink._pair_solid_angles(x1, x2, absolute,
                                                        guard, cuts))
            except tr.CurvesTooClose as exc:
                out.append(exc)
    return out[0], out[1], direct[0]


@given(kind=st.sampled_from(sorted(_TILE_INPUTS)),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       n1=st.integers(min_value=1, max_value=40),
       n2=st.integers(min_value=1, max_value=40),
       ends=st.lists(st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
                     min_size=1, max_size=3),
       tile=st.integers(min_value=2, max_value=16),
       min_tile=st.integers(min_value=1, max_value=2),
       absolute=st.booleans(),
       guard=st.sampled_from([-math.inf, 1e-9, 0.5, 2.0]),
       chunk=st.sampled_from([50_000, 300, 1]))
@settings(max_examples=150, deadline=None)
# the arc's sign change falls inside a tile of 8 and one of 4
@example(kind="arc", seed=0, n1=8, n2=32, ends=[(1.0, 1.0)], tile=8,
         min_tile=2, absolute=True, guard=1e-9, chunk=50_000)
@example(kind="arc", seed=1, n1=6, n2=40, ends=[(1.0, 1.0), (0.5, 0.77)],
         tile=4, min_tile=2, absolute=True, guard=1e-9, chunk=50_000)
# sub-tiles of 8 and 4 summed by fans, next to the arc's sign change in
# absolute mode
@example(kind="sink", seed=0, n1=40, n2=40, ends=[(1.0, 1.0), (0.6, 0.45)],
         tile=16, min_tile=2, absolute=True, guard=1e-9, chunk=50_000)
@example(kind="arc", seed=1, n1=40, n2=40, ends=[(1.0, 1.0), (0.6, 0.45)],
         tile=16, min_tile=2, absolute=True, guard=1e-9, chunk=50_000)
# tile rows tested one group at a time
@example(kind="sink", seed=0, n1=40, n2=40, ends=[(1.0, 1.0), (0.6, 0.45)],
         tile=8, min_tile=2, absolute=True, guard=1e-9, chunk=1)
def test_tiled_pass_matches_direct_pass(kind, seed, n1, n2, ends, tile,
                                        min_tile, absolute, guard, chunk):
    """A tile summed by its fan changes the value by less than the call's
    roundoff term, and neither that term nor the guard's verdict moves:
    with a wide guard, tiles the fan could sum hold flagged pairs."""
    x1, x2 = _TILE_INPUTS[kind](seed, n1, n2)
    cuts = _nested_cuts(x1, x2, ends)
    tiled, direct, _ = _tiled_and_direct(x1, x2, absolute, guard, cuts, tile,
                                         min_tile, chunk=chunk)
    if isinstance(direct, Exception):
        assert isinstance(tiled, tr.CurvesTooClose)
        return
    assert not isinstance(tiled, Exception)
    for (v, ro), (v_ref, ro_ref) in zip(tiled, direct):
        assert abs(v - v_ref) <= ro
        assert ro == pytest.approx(ro_ref, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(_TILE_INPUTS))
def test_tiles_are_summed_by_fans(kind):
    """Each kind of input of the test above has tiles summed by fans,
    signed and, except the random walks (whose N changes sign from pair to
    pair), absolute; the arc keeps the tiles where N changes sign direct
    in absolute mode only."""
    x1, x2 = _TILE_INPUTS[kind](4, 40, 40)
    cuts = _nested_cuts(x1, x2, [(1.0, 1.0), (0.61, 0.47)])
    n_direct = {}
    for absolute in (False, True):
        tiled, direct, n_direct[absolute] = _tiled_and_direct(
            x1, x2, absolute, 1e-9, cuts, 4)
        for (v, ro), (v_ref, ro_ref) in zip(tiled, direct):
            assert abs(v - v_ref) <= ro
            assert ro == pytest.approx(ro_ref, rel=1e-12)
    # the second cut's end strips hold 19 + 24 pairs
    assert n_direct[False] < 40 * 40
    if kind != "walks":
        assert n_direct[True] < 40 * 40
    if kind == "arc":
        assert n_direct[False] == 19 + 24 < n_direct[True]


@pytest.mark.parametrize("kind, seed, absolute", [
    ("sink", 0, False), ("sink", 0, True), ("helices", 0, False),
    ("helices", 0, True), ("arc", 1, True), ("walks", 1, False)])
def test_sub_tiles_are_summed_by_fans(kind, seed, absolute):
    """Tiles of 16 halved down to 4: tiles of both refinement levels (8
    and 4 segments a side) are summed by fans, within the roundoff term
    of the all-direct pass."""
    x1, x2 = _TILE_INPUTS[kind](seed, 40, 40)
    cuts = _nested_cuts(x1, x2, [(1.0, 1.0), (0.6, 0.45)])
    levels = {}
    tiled, direct, n_direct = _tiled_and_direct(x1, x2, absolute, 1e-9, cuts,
                                                16, 4, levels)
    for (v, ro), (v_ref, ro_ref) in zip(tiled, direct):
        assert abs(v - v_ref) <= ro
        assert ro == pytest.approx(ro_ref, rel=1e-12)
    assert levels.get(8, 0) > 0 and levels.get(4, 0) > 0
    assert n_direct < 40 * 40


def test_bare_tile_row_sums_its_sub_tiles_by_fans():
    """Absolute mode on one tile row of 16 x 16 segments (two
    perpendicular lines 2.5 apart, so every numerator has one sign) whose
    tile fails the fan's conditioning while its four 8 x 8 sub-tiles
    pass: the sub-tiles take their signs from the numerator bounds though
    the row has no candidate of its own, and are summed by their fans
    within the all-direct pass's roundoff term."""
    s = np.linspace(-1.0, 1.0, 17)
    x1 = np.stack([s, 0 * s, 0 * s], axis=1)
    x2 = np.stack([0 * s, s, 0 * s + 2.5], axis=1)
    cuts = [((17, None), (17, None))]
    levels = {}
    tiled, direct, n_direct = _tiled_and_direct(x1, x2, True, 1e-9, cuts,
                                                16, 8, levels)
    assert levels == {8: 4} and n_direct == 0
    (v, ro), (v_ref, ro_ref) = tiled[0], direct[0]
    assert abs(v - v_ref) <= ro
    assert ro == pytest.approx(ro_ref, rel=1e-12)


@given(kind=st.sampled_from(sorted(_TILE_INPUTS)),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       n1=st.integers(min_value=1, max_value=60),
       n2=st.integers(min_value=1, max_value=60),
       ends=st.lists(st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
                     max_size=3),
       tile=st.integers(min_value=8, max_value=16),
       min_tile=st.integers(min_value=2, max_value=4),
       per=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_bounds_match_the_cells(kind, seed, n1, n2, ends, tile, min_tile,
                                per):
    """Each finest tile's numerator bounds are the least and largest
    ``N = s1.ad @ s2.da`` over its cells, up to the rounding of one 6-term
    sum, on grids cut into levels and into groups of ``per`` tile rows of
    level 0, as :func:`_tile_sums` cuts them."""
    x1, x2 = _TILE_INPUTS[kind](seed, n1, n2)
    s1, s2 = gausslink._Polyline(x1), gausslink._Polyline(x2)
    rows = {n1} | {math.ceil(a * n1) for a, _ in ends}
    cols = {n2} | {math.ceil(b * n2) for _, b in ends}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gausslink, "_TILE", tile)
        mp.setattr(gausslink, "_MIN_TILE", min_tile)
        cuts1, cuts2 = gausslink._level_cuts(rows), gausslink._level_cuts(cols)
    numer = s1.ad[:n1] @ s2.da[:, :n2]
    size = np.abs(s1.ad[:n1]) @ np.abs(s2.da[:, :n2])
    e1, f2 = cuts1[0], cuts2[-1]
    starts = np.append(e1[:-1:per], e1[-1])
    for first, last in zip(starts[:-1], starts[1:]):
        group = [c[(c >= first) & (c <= last)] for c in cuts1]
        lo, hi = gausslink._bounds(s1, s2, group, cuts2)
        f1 = group[-1]
        assert lo.shape == hi.shape == (len(f1) - 1, len(f2) - 1)
        for a in range(len(f1) - 1):
            for b in range(len(f2) - 1):
                cells = np.s_[f1[a]:f1[a + 1], f2[b]:f2[b + 1]]
                tol = 8.0 * np.finfo(float).eps * size[cells].max()
                assert abs(lo[a, b] - numer[cells].min()) <= tol
                assert abs(hi[a, b] - numer[cells].max()) <= tol


def test_direct_share_of_the_sink_pair_grid():
    """verify's sink-pair scenario measures thm3_8 on a 578 x 578 grid in
    absolute mode, and its decimated copy on 289 x 289.  Counted through
    the direct kernel, not timed: at most 8% and 15% of their pairs are
    evaluated cell by cell (with tiles of 64 summed by fans but none
    refined, 24.1% and 44.0%), so a regression in the certification of
    sub-tiles fails here."""
    from trajrot.cli import SINK_START_PAIR, _sink_curves

    _, (t1, t2) = _sink_curves(SINK_START_PAIR)
    assert t1.n_samples == t2.n_samples == 579
    kernel, passes = gausslink._direct_angles, gausslink._pair_solid_angles
    counts = []

    def counting(s1, s2, absolute, guard, tiles):
        i0, i1, j0, j1 = tiles
        counts[-1] += int(np.sum((i1 - i0) * (j1 - j0)))
        return kernel(s1, s2, absolute, guard, tiles)

    def per_pass(*args):
        counts.append(0)
        return passes(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gausslink, "_direct_angles", counting)
        mp.setattr(gausslink, "_pair_solid_angles", per_pass)
        tr.gauss_rotation_pair(t1, t2, "absolute")
    full, decimated = counts
    assert full <= 0.08 * 578 ** 2
    assert decimated <= 0.15 * 289 ** 2


def test_tiled_pass_raises_on_the_same_close_pair():
    # c2 passes 1e-9 over c1 inside one tile of a grid of many tiles
    t = np.linspace(0.0, 10.0, 41)
    x1 = np.stack([t, 0 * t, 0 * t], axis=1)
    x2 = np.stack([0 * t + 5.1, t - 5.0, 0 * t + 1e-9], axis=1)
    cuts = [((41, None), (41, None))]
    for absolute in (False, True):
        tiled, direct, _ = _tiled_and_direct(x1, x2, absolute, 1e-7, cuts, 4)
        assert isinstance(tiled, tr.CurvesTooClose)
        assert isinstance(direct, tr.CurvesTooClose)
        clear, _, n_direct = _tiled_and_direct(x1, x2 + [0, 0, 1.0],
                                               absolute, 1e-7, cuts, 4)
        assert not isinstance(clear, Exception) and n_direct < 40 * 40


@pytest.mark.parametrize("absolute", [False, True])
def test_wide_guard_keeps_flagged_pairs_direct(absolute):
    """Two skew lines 1 apart in segments of about 0.05, guard 0.9: the
    nearest pairs lie within the guard plus their own length, so they are
    flagged (their distance is checked and their condition numbers enter
    the roundoff term), though the fans of their 8 x 8 tiles would be
    well conditioned.  Only tiles beyond the reach are summed by fans."""
    s = np.linspace(0.0, 2.0, 41)
    x1 = np.stack([s, 0 * s, 0 * s], axis=1)
    x2 = np.stack([s + 1.2, 0 * s + 1.0, 0.3 * (s - 0.8)], axis=1)
    cuts = [((41, None), (41, None))]
    tiled, direct, n_direct = _tiled_and_direct(x1, x2, absolute, 0.9, cuts,
                                                8)
    (v, ro), (v_ref, ro_ref) = tiled[0], direct[0]
    assert abs(v - v_ref) <= ro
    assert ro == pytest.approx(ro_ref, rel=1e-12)
    assert ro > 32 * math.ulp(1.0) * 40 * 40  # flagged pairs count more
    assert 0 < n_direct < 40 * 40


def _near_threshold_tiles():
    """Two runs of 16 segments of the reference sink, the second moved
    along the line through the centers of their balls until ``c = gap /
    (gap + 2 rho)`` lies a factor 1 + 1e-3 above the least ``c`` of a 16 x
    16 tile's fan, ``c (1 + c) = 1/4``."""
    x1, x2 = _sink_windows(5, 16, 16)
    e = gausslink._split({16})
    (c1, rho1, *_), (c2, rho2, *_) = (
        gausslink._runs(gausslink._Polyline(x), e) for x in (x1, x2))
    rho = rho1[0] + rho2[0]
    c = (math.sqrt(2.0) - 1.0) / 2.0 * (1.0 + 1e-3)
    apex = c1[0] - c2[0]
    dist = float(np.linalg.norm(apex))
    return x1, x2 - apex / dist * (rho + 2.0 * rho * c / (1.0 - c) - dist)


def test_fan_matches_cell_sum_at_40_digits():
    """On one tile whose corners lie in the half-space of its apex, the
    cells' 40-digit sum equals the 40-digit boundary fan, and the float
    fan lies within the cells' roundoff budget of it: an 8 x 8 tile of two
    sink windows, and a 16 x 16 tile just inside the fan's conditioning
    test, which the pass sums by its fan as a tile of the first
    refinement level."""
    _check_fan_at_40_digits(8, *_sink_windows(5, 8, 8))
    _check_fan_at_40_digits(16, *_near_threshold_tiles())


def _check_fan_at_40_digits(n, x1, x2):
    center = 0.5 * (x1.mean(axis=0) + x2.mean(axis=0))
    s1, s2 = gausslink._Polyline(x1 - center), gausslink._Polyline(x2 - center)
    e = gausslink._split({n})
    assert list(e) == [0, n]
    (c1, rho1, *_), (c2, rho2, *_) = (gausslink._runs(s, e) for s in (s1, s2))
    apex = c1[0] - c2[0]
    dist, rho = np.linalg.norm(apex), rho1[0] + rho2[0]
    assert dist > rho
    if n == 16:
        c = (dist - rho) / (dist + rho)
        assert 1.0 < c * (1.0 + c) * 4.0 < 1.0 + 3e-3
        tiles, _, leaves = gausslink._tile_sums(s1, s2, False, {n}, {n}, 0.0)
        assert [list(v) for v in tiles] == [[0], [n], [0], [n]]
        assert len(leaves[0]) == 0
    unit = apex / np.linalg.norm(apex)
    got = float(gausslink._fans(s1, s2, e, e, np.ones((1, 1), dtype=bool),
                                unit[None, None])[0])

    with mpmath.workdps(40):
        def vec(v):
            return mpmath.matrix([mpmath.mpf(float(c)) for c in v])

        y1, y2, p = [vec(v) for v in s1.x], [vec(v) for v in s2.x], vec(unit)

        def dot(a, b):
            return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

        def cross(a, b):
            return mpmath.matrix([a[1] * b[2] - a[2] * b[1],
                                  a[2] * b[0] - a[0] * b[2],
                                  a[0] * b[1] - a[1] * b[0]])

        def half_angle(a, b, c):
            na, nb, nc = (mpmath.sqrt(dot(v, v)) for v in (a, b, c))
            den = (na * nb * nc + dot(a, b) * nc + dot(a, c) * nb
                   + dot(b, c) * na)
            return mpmath.atan2(dot(a, cross(b, c)), den)

        def r(i, j):
            return y1[i] - y2[j]

        # a cell is minus the half solid angle of r00 -> r10 -> r11 -> r01
        cells = -mpmath.fsum(half_angle(r(i, j), r(i + 1, j), r(i + 1, j + 1))
                             + half_angle(r(i, j), r(i + 1, j + 1),
                                          r(i, j + 1))
                             for i in range(n) for j in range(n))
        loop = ([(i, 0) for i in range(n)] + [(n, j) for j in range(n)]
                + [(i, n) for i in range(n, 0, -1)]
                + [(0, j) for j in range(n, 0, -1)])
        assert all(dot(r(*k), p) > 0 for k in loop)
        fan = -mpmath.fsum(half_angle(p, r(*a), r(*b))
                           for a, b in zip(loop, loop[1:] + loop[:1]))
        assert abs(cells - fan) < mpmath.mpf(10) ** -35
        budget = gausslink._ROUNDOFF_ULPS * math.ulp(1.0) * n * n
        assert abs(got - float(cells)) <= budget
