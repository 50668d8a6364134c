import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import trajrot as tr
from trajrot import rotation

from conftest import (SINK_BETA, SINK_MATRIX, X_AXIS, Z_AXIS, circle2d,
                      helix_curve, random_rotation, resample, transform)


def test_circle_absolute_rotation():
    c = circle2d(n=1200)
    rr = tr.absolute_rotation_point(c, np.zeros(2))
    assert abs(rr.value - 2 * math.pi) < 1e-5
    assert rr.convention == "absolute_radians"


def test_radial_segment_zero_rotation():
    c = tr.Curve([0, 1], [[1.0, 0.0], [2.0, 0.0]])
    assert tr.absolute_rotation_point(c, np.zeros(2)).value == 0.0


def test_spiral_unit_rate(spiral_traj):
    rr = tr.absolute_rotation_point(spiral_traj, np.zeros(2))
    assert abs(rr.value - 10.0) / 10.0 < 1e-3


def test_signed_winding_circle_directions():
    ccw = circle2d(n=800)
    cw = tr.reverse(ccw)
    half = circle2d(n=400, turns=0.5)
    assert abs(tr.signed_winding_plane(ccw, np.zeros(2)).value - 1.0) < 1e-12
    assert abs(tr.signed_winding_plane(cw, np.zeros(2)).value + 1.0) < 1e-12
    assert abs(tr.signed_winding_plane(half, np.zeros(2)).value - 0.5) < 1e-12


def test_signed_requires_planar():
    with pytest.raises(tr.DimensionMismatch):
        tr.signed_winding_plane(helix_curve(n=50), np.zeros(3))


def test_closed_winding_is_integer():
    c = circle2d(n=1001, turns=3.0, center=(0.2, -0.1), radius=0.8)
    rr = tr.signed_winding_plane(c, np.array([0.2, -0.1]))
    assert abs(rr.value - round(rr.value)) <= rr.error_estimate + 1e-12


# polylines that touch the origin: one at a sample, one between samples
CONTACT = [[[-1.0, -1.0], [0.0, 0.0], [1.0, -1.0]],
           [[-1.0, -1.0], [2.0, 2.0], [2.0, 3.0]]]


def _raises_at_distance_zero(call):
    """``call`` raises DistanceTooSmall reporting distance 0, and no
    RuntimeWarning (a 0/0 direction would give NaN)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tr.DistanceTooSmall,
                           match=r"within 0\.00e\+00 of"):
            call()


def test_distance_guard():
    c = circle2d(n=100)
    with pytest.raises(tr.DistanceTooSmall):
        tr.absolute_rotation_point(c, np.array([1.0, 0.0]))
    for x in CONTACT:
        c = tr.Curve(np.arange(3.0), x)
        _raises_at_distance_zero(
            lambda: tr.absolute_rotation_point(c, np.zeros(2)))
        _raises_at_distance_zero(
            lambda: tr.signed_winding_plane(c, np.zeros(2)))


@pytest.mark.parametrize("guard", [float("nan"), -1.0, float("inf")])
def test_guard_must_be_finite_and_non_negative(guard):
    # unchecked, guard -1 lets a polyline through the center measure 3.93
    c = tr.Curve([0, 1, 2], [[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="guard"):
        tr.absolute_rotation_point(c, np.zeros(2), guard=guard)
    with pytest.raises(ValueError, match="guard"):
        tr.absolute_rotation_point(circle2d(n=100), np.zeros(2), guard=guard)


def test_zero_guard_checks_only_contact():
    c = tr.Curve([0, 1, 2], [[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(tr.DistanceTooSmall):
        tr.absolute_rotation_point(c, np.zeros(2), guard=0.0)
    rr = tr.absolute_rotation_point(circle2d(n=100), np.zeros(2), guard=0.0)
    assert abs(rr.value - 2 * math.pi) < 1e-2
    for x in CONTACT:
        c = tr.Curve(np.arange(3.0), x)
        _raises_at_distance_zero(
            lambda: tr.absolute_rotation_point(c, np.zeros(2), guard=0.0))
        _raises_at_distance_zero(
            lambda: tr.spherical_blowup(c, np.zeros(2), guard=0.0))


def _through_center(dim, offset):
    """Polyline whose first segment passes ``offset`` from the origin (and
    from the z-axis) while every sample stays at distance >= 1."""
    x = np.zeros((3, dim))
    x[:, 0] = [-1.0, 1.0, 1.0]
    x[:, 1] = [offset, offset, 1.0]
    if dim == 3:
        x[:, 2] = [0.0, 0.0, 1.0]
    return tr.Curve([0.0, 1.0, 2.0], x)


GUARDED = {
    "signed_winding_plane":
        (2, lambda c: tr.signed_winding_plane(c, np.zeros(2))),
    "absolute_rotation_point":
        (2, lambda c: tr.absolute_rotation_point(c, np.zeros(2))),
    "rotation_around_subspace":
        (3, lambda c: tr.rotation_around_subspace(c, Z_AXIS, "signed")),
    "spherical_blowup":
        (3, lambda c: tr.spherical_blowup(c, np.zeros(3))),
}


@pytest.mark.parametrize("offset", [0.0, 1e-9])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_guard_sees_segments_not_only_samples(name, offset):
    dim, call = GUARDED[name]
    with pytest.raises(tr.DistanceTooSmall):
        call(_through_center(dim, offset))


def _angle_sum(x, center):
    """Sum of the angles the polyline's segments subtend at ``center``,
    in 40-digit arithmetic."""
    with mp.workdps(40):
        d = [[mp.mpf(float(a)) - mp.mpf(float(b)) for a, b in zip(p, center)]
             for p in x]
        total = mp.mpf(0)
        for u, v in zip(d[:-1], d[1:]):
            dot = mp.fsum(a * b for a, b in zip(u, v))
            uu = mp.fsum(a * a for a in u)
            vv = mp.fsum(b * b for b in v)
            total += mp.atan2(mp.sqrt(max(uu * vv - dot * dot, 0)), dot)
        return total


def _roundoff(n, value):
    """The roundoff term of an ``n``-sample absolute rotation."""
    return n * (2e-15 + np.finfo(np.float64).eps * value)


def test_decimated_chord_through_center_enters_error_estimate():
    # samples 0, 2 and 4 survive decimation; the chord from sample 0 to
    # sample 2 runs through the origin, while the polyline stays 0.159 away
    x = [[-1.0, 0.0], [30.0, 5.0], [62.0, 0.0], [62.0, 5.0], [62.0, 10.0]]
    c = tr.Curve(np.arange(5.0), x)
    rr = tr.absolute_rotation_point(c, np.zeros(2))
    assert abs(rr.value - float(_angle_sum(x, (0.0, 0.0)))) <= rr.error_estimate
    # the decimated polyline subtends pi on that chord
    decimated = math.pi + float(_angle_sum(x[2:], (0.0, 0.0)))
    assert rr.error_estimate >= abs(rr.value - decimated)


def test_zigzag_of_close_flybys():
    # 40 000 segments, each passing 1e-3 from the center: every one
    # subtends almost pi there
    n = 40_001
    x = np.zeros((n, 2))
    x[:, 0] = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    x[:, 1] = 1e-3
    rr = tr.absolute_rotation_point(tr.Curve(np.arange(float(n)), x),
                                    np.zeros(2))
    with mp.workdps(40):
        want = float(40_000 * 2 * mp.atan(1000))
    assert abs(rr.value - want) <= _roundoff(n, rr.value)


@st.composite
def _polyline_and_center(draw):
    dim = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[st.floats(-1.0, 1.0)] * dim)
    return draw(st.lists(point, min_size=2, max_size=30)), draw(point)


@given(_polyline_and_center())
@settings(max_examples=100, deadline=None)
def test_absolute_rotation_matches_angle_sum(case):
    x, center = case
    c = tr.Curve(np.arange(float(len(x))), x)
    try:
        rr = tr.absolute_rotation_point(c, np.array(center))
    except tr.DistanceTooSmall:
        assume(False)
    miss = abs(rr.value - float(_angle_sum(x, center)))
    assert miss <= rr.error_estimate
    assert miss <= _roundoff(len(x), rr.value)


def test_line_crosscheck_guard_between_samples():
    c = tr.Curve([0.0, 1.0, 2.0], [[-1.0, 0.0, -0.5], [1.0, 0.0, 0.5],
                                   [1.0, 1.0, 1.0]])
    # the first segment crosses the z-axis between its samples
    for mode in ("signed", "absolute"):
        with pytest.raises(tr.DistanceTooSmall):
            tr.rotation_around_subspace(c, Z_AXIS, mode)


def test_helix_around_axis():
    k = 3
    c = helix_curve(turns=k, n=1500)
    rr = tr.rotation_around_subspace(c, Z_AXIS, "absolute")
    rs = tr.rotation_around_subspace(c, Z_AXIS, "signed")
    assert abs(rr.value - 2 * math.pi * k) < 1e-4
    assert abs(rs.value - k) < 1e-9


def test_twist_blowup_window():
    # from a = 0.025 on the winding radii exp(-1/a^2) (1e-3016 at 0.012)
    # need longdouble, and the guard's distances must not underflow; the
    # samples are uniform in the winding angle 1/x1, so the polyline's
    # angles sum to 1/a - 1/b up to roundoff
    for a in (0.05, 0.025, 0.012):
        c = tr.twist_invariant_curve(a, 0.2)
        rr = tr.rotation_around_subspace(c, X_AXIS, "absolute", guard=0.0)
        want = 1.0 / a - 1.0 / 0.2
        assert abs(rr.value - want) / want < 0.01
        assert abs(rr.value - want) <= _roundoff(c.n_samples, rr.value)


def test_sink_rotation_rate_around_axis():
    cfg = tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, max_step=0.01,
                              chord_tol=1e-5)
    c = tr.integrate_trajectory(tr.linear(SINK_MATRIX),
                                np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)
    rr = tr.rotation_around_subspace(c, X_AXIS, "absolute")
    assert abs(rr.value - SINK_BETA * 3.0) < 1e-3


def test_signed_mode_codim_guard():
    point = tr.AffineSubspace(np.zeros(3))
    with pytest.raises(tr.CodimensionError):
        tr.rotation_around_subspace(helix_curve(n=60), point, "signed")


def test_signed_bounded_by_absolute():
    c = circle2d(n=600, turns=1.7, center=(0.4, 0.0))
    x0 = np.zeros(2)
    w = tr.signed_winding_plane(c, x0)
    a = tr.absolute_rotation_point(c, x0)
    slack = 2 * math.pi * w.error_estimate + a.error_estimate
    assert 2 * math.pi * abs(w.value) <= a.value + slack


def test_rigid_motion_invariance():
    rng = np.random.default_rng(3)
    q = random_rotation(rng)
    shift = np.array([0.3, -1.2, 2.0])
    c = helix_curve(turns=2.2, n=700)
    x0 = np.array([0.1, -0.2, 0.5])
    base = tr.absolute_rotation_point(c, x0)
    moved = transform(c, q, shift)
    x0m = q @ x0 + shift
    same = tr.absolute_rotation_point(moved, x0m)
    assert abs(base.value - same.value) < 1e-9


def test_concat_additivity():
    c = helix_curve(turns=2.0, n=801)
    k = 400
    c1 = tr.Curve(c.t[: k + 1], c.x[: k + 1])
    c2 = tr.Curve(c.t[k:], c.x[k:])
    x0 = np.array([0.0, 0.0, -1.0])
    whole = tr.absolute_rotation_point(c, x0)
    parts = (tr.absolute_rotation_point(c1, x0).value
             + tr.absolute_rotation_point(c2, x0).value)
    assert abs(whole.value - parts) < 1e-10


def test_monotone_resampling_invariance():
    c = helix_curve(turns=2.0, n=900)
    x0 = np.array([0.0, 0.0, -1.0])
    a = tr.absolute_rotation_point(c, x0)
    b = tr.absolute_rotation_point(resample(c, 450), x0)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def _stacked_matches_one_by_one(c, centers, block_rows):
    """The stacked kernel around ``centers``, with ``block_rows`` rows per
    block (None: the default), equals one ``absolute_rotation_point``
    call per center bit for bit: value, error estimate and whether the
    center is too close.  Returns the too-close flags."""
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(rotation, "_BLOCK_ROWS", block_rows)
        value, err, rmin = rotation._absolute_rotations(c, centers)
    close = ~(rmin > c.default_guard())
    for q, v, e, near in zip(centers, value, err, close):
        try:
            rr = tr.absolute_rotation_point(c, q)
        except tr.DistanceTooSmall:
            assert near
            continue
        assert not near
        assert np.float64(rr.value).tobytes() == v.tobytes()
        assert np.float64(rr.error_estimate).tobytes() == e.tobytes()
    return close


# one row per block, blocks of a few centers, the default, and all
# centers in one block
_BLOCKS = [1, 64, None, 2 ** 40]


@st.composite
def _polyline_and_centers(draw):
    """A random polyline in 2-4 dimensions, float64 or longdouble, with
    centers off it, on one of its samples, and within the guard of a
    segment's interior (each a float64 row, as the cor3_10 grid is)."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(2, 40))
    coord = st.floats(-10.0, 10.0)
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    dtype = draw(st.sampled_from([np.float64, np.longdouble]))
    c = tr.Curve(np.arange(float(n)), np.array(rows, dtype=dtype))
    x = c.x.astype(np.float64)
    free = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
    i = draw(st.integers(0, n - 2))
    inside = 0.5 * (x[i] + x[i + 1]) + 1e-3 * c.default_guard()
    centers = np.array([*free, x[draw(st.integers(0, n - 1))], inside])
    order = draw(st.permutations(range(len(centers))))
    return c, centers[list(order)]


@pytest.mark.parametrize("block_rows", _BLOCKS)
@given(_polyline_and_centers())
@settings(max_examples=100, deadline=None)
def test_stacked_rotation_is_bitwise_one_by_one(block_rows, case):
    c, centers = case
    close = _stacked_matches_one_by_one(c, centers, block_rows)
    assert close.any()  # the center on a sample, at least


@pytest.mark.parametrize("block_rows", _BLOCKS)
def test_stacked_rotation_on_longdouble_twist_curve(block_rows):
    """The twist curve's radii around the x1-axis reach 1e-3016, which
    only longdouble holds.  Its projection is measured around points
    beyond its outer winding, the axis (nearer than the default guard),
    two samples and a point beside a segment."""
    c = tr.project_to_complement(tr.twist_invariant_curve(0.012, 0.2),
                                 X_AXIS)
    assert c.x.dtype == np.longdouble
    x = c.x.astype(np.float64)
    outer = float(np.max(np.abs(x)))
    centers = np.concatenate([outer * np.array([[2.0, 0.0], [0.0, -3.0],
                                                [1.5, 1.5]]),
                              [[0.0, 0.0]], x[[-1, -300]],
                              [0.5 * (x[-200] + x[-199])]])
    close = _stacked_matches_one_by_one(c, centers, block_rows)
    assert list(close) == [False] * 3 + [True] * 4
