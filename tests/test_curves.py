import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import trajrot as tr
from trajrot.curves import (_row_max, _row_sum, _stacked_directions,
                            center_directions, point_segment_distances,
                            safe_unit_rows, segment_angles)

from conftest import X_AXIS, Z_AXIS, circle2d, concat, helix_curve, resample


def test_curve_validation():
    with pytest.raises(ValueError):
        tr.Curve([0.0], [[0.0, 0.0]])  # too few samples
    with pytest.raises(ValueError):
        tr.Curve([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]])  # non-increasing t
    with pytest.raises(ValueError):
        tr.Curve([0.0, 1.0], [[0.0], [1.0]])  # dim < 2
    with pytest.raises(ValueError):
        tr.Curve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], closed=True)


@pytest.mark.parametrize("t", [[0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0],
                               [0.0, math.nan, 1.0]])
def test_curve_rejects_non_finite_times(t):
    with pytest.raises(ValueError, match="t contains non-finite"):
        tr.Curve(t, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_closed_autodetection():
    c = circle2d(n=500)
    assert c.closed
    open_c = tr.Curve([0, 1], [[0.0, 0.0], [1.0, 0.0]])
    assert not open_c.closed


def test_curve_immutable():
    c = circle2d(n=50)
    with pytest.raises(ValueError):
        c.x[0, 0] = 5.0


def test_length_pythagorean_segment():
    c = tr.Curve([0, 1], [[0.0, 0.0], [3.0, 4.0]])
    assert tr.curve_length(c) == 5.0


def test_length_unit_circle():
    c = circle2d(n=1000)
    assert abs(tr.curve_length(c) - 2 * math.pi) < 1e-4


def test_length_twist_refinement_oracle():
    coarse = tr.twist_invariant_curve(0.1, 0.5, max_angle_step=0.02)
    fine = tr.twist_invariant_curve(0.1, 0.5, max_angle_step=0.002)
    lc, lf = tr.curve_length(coarse), tr.curve_length(fine)
    assert abs(lc - lf) / lf < 1e-3


def test_length_additive_over_concat():
    c = helix_curve(n=400)
    k = 173
    c1 = tr.Curve(c.t[: k + 1], c.x[: k + 1])
    c2 = tr.Curve(c.t[k:], c.x[k:])
    whole = tr.curve_length(concat(c1, c2))
    parts = tr.curve_length(c1) + tr.curve_length(c2)
    # fsum keeps the split/whole sums equal up to one final rounding each
    assert abs(whole - parts) <= 4 * np.finfo(float).eps * whole


def test_spherical_blowup_radial_segment():
    c = tr.Curve([0, 1], [[1.0, 0.0], [2.0, 0.0]])
    s = tr.spherical_blowup(c, np.zeros(2))
    assert np.allclose(s.curve.x, [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(s.curve.t, c.t)


def test_spherical_blowup_circle_identity():
    c = circle2d(n=500)
    s = tr.spherical_blowup(c, np.zeros(2))
    assert np.allclose(s.curve.x, c.x, atol=1e-12)


def test_spherical_blowup_unit_norm_invariant():
    c = helix_curve()
    s = tr.spherical_blowup(c, np.array([0.0, 0.0, -2.0]))
    norms = np.linalg.norm(s.curve.x, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_spherical_blowup_guard():
    c = tr.Curve([0, 1, 2], [[1.0, 0.0], [1e-12, 0.0], [-1.0, 0.0]])
    with pytest.raises(tr.DistanceTooSmall):
        tr.spherical_blowup(c, np.zeros(2))


def test_spherical_blowup_rows_unit_to_rounding():
    c = tr.Curve([0, 1, 2], [[3.0, 4.0, 12.0], [1e-5, 2e-5, 0.0],
                             [-7.0, 1e-3, 2.0]])
    s = tr.spherical_blowup(c, np.zeros(3), guard=0.0)
    norms = np.linalg.norm(s.curve.x, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("gap", [1e-12, 1e-6, 0.3, 2.0, math.pi - 1e-6,
                                 math.pi - 1e-12])
def test_segment_angles_closed_form(gap):
    # endpoints at polar angles 0.4 and 0.4 + gap, at unequal radii
    phi = np.array([0.4, 0.4 + gap])
    r = np.array([[2.0], [0.5]])
    pts = np.array([0.3, -0.2]) + r * np.stack([np.cos(phi), np.sin(phi)], 1)
    theta = segment_angles(pts[:1], pts[1:], [0.3, -0.2])
    assert theta.shape == (1,)
    # the half-chord arcsin formula is 3e-8 off at pi - 1e-12
    assert abs(float(theta[0]) - gap) <= 4 * np.finfo(float).eps * (1 + gap)


def test_spiral_blowup_unit_speed(spiral_traj):
    s = tr.spherical_blowup(spiral_traj, np.zeros(2))
    length = tr.curve_length(s.curve)
    assert abs(length - 10.0) / 10.0 < 1e-3


def test_project_helix_to_unit_circle():
    c = helix_curve(turns=1.0, pitch=1.0, n=400)
    p = tr.project_to_complement(c, Z_AXIS)
    assert p.dim == 2
    assert np.max(np.abs(np.linalg.norm(p.x, axis=1) - 1.0)) < 1e-12


def test_project_curve_inside_subspace_is_origin():
    t = np.linspace(0, 1, 30)
    c = tr.Curve(t, np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1))
    x_axis = tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])
    p = tr.project_to_complement(c, x_axis)
    assert np.max(np.abs(p.x)) == 0.0


def test_project_twist_polar_angle():
    c = tr.twist_invariant_curve(0.1, 0.3)
    p = tr.project_to_complement(
        c, tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])]))
    ang = np.arctan2(p.x[:, 1], p.x[:, 0])
    want = np.mod(1.0 / c.x[:, 0].astype(float), 2 * math.pi)
    got = np.mod(ang.astype(float), 2 * math.pi)
    diff = np.abs(got - want)
    diff = np.minimum(diff, 2 * math.pi - diff)
    assert np.max(diff) < 1e-9


def test_projection_idempotent():
    c = helix_curve(n=200)
    p = tr.project_to_complement(c, Z_AXIS)
    origin_point = tr.AffineSubspace(np.zeros(2))
    again = tr.project_to_complement(p, origin_point)
    assert np.max(np.abs(again.x - p.x)) < 1e-12


def test_projection_codim_guard():
    plane = tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0, 0]),
                                            np.array([0.0, 1, 0])])
    with pytest.raises(tr.CodimensionError):
        tr.project_to_complement(helix_curve(n=50), plane)


def test_complement_basis_right_handed():
    comp = Z_AXIS.complement_basis()
    cross = np.cross(comp[0], comp[1])
    assert np.allclose(cross, [0.0, 0.0, 1.0])


def test_affine_subspace_validation():
    with pytest.raises(ValueError):
        tr.AffineSubspace(np.zeros(3), [np.array([1.0, 1.0, 0.0])])


@pytest.mark.parametrize("base, basis", [
    (np.zeros(3), [[math.nan, math.nan, math.nan]]),
    (np.zeros(3), [[math.nan, 0.0, 0.0]]),
    (np.array([math.inf, 0.0, 0.0]), [[1.0, 0.0, 0.0]]),
    (np.array([0.0, math.nan, 0.0]), []),
])
def test_affine_subspace_rejects_non_finite(base, basis):
    with pytest.raises(ValueError, match="finite"):
        tr.AffineSubspace(base, basis)


def test_resample_segment():
    c = tr.Curve([0, 1], [[0.0, 0.0], [1.0, 2.0]])
    r = resample(c, 5)
    assert r.n_samples == 5
    assert np.allclose(r.x, np.linspace([0, 0], [1, 2], 5))


def test_resample_circle_length():
    c = circle2d(n=1000)
    r = resample(c, 500)
    assert abs(tr.curve_length(r) - tr.curve_length(c)) < 1e-3
    assert r.closed


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_resample_preserves_endpoints(n):
    c = helix_curve(n=57)
    r = resample(c, n)
    assert np.allclose(r.x[0], c.x[0])
    assert np.allclose(r.x[-1], c.x[-1])
    assert np.all(np.diff(r.t) > 0)


def test_resample_rotation_invariance(spiral_traj):
    # restrict to a window where arc-length-uniform sampling still
    # resolves every coil; deep coils carry almost no arc length
    c = tr.slice_time(spiral_traj, 0.0, 5.0)
    rot = tr.absolute_rotation_point(c, np.zeros(2))
    half = resample(c, c.n_samples // 2)
    rot2 = tr.absolute_rotation_point(half, np.zeros(2))
    assert abs(rot.value - rot2.value) < rot.error_estimate + rot2.error_estimate


def test_resample_keeps_longdouble_precision():
    # the twist profile's (x2, x3) sit far below the float64 range
    c = tr.twist_invariant_curve(0.025, 0.2)
    assert c.x.dtype == np.longdouble
    r = resample(c, 4000)
    assert r.x.dtype == np.longdouble
    assert np.all(np.any(r.x[:, 1:] != 0, axis=1))
    x1_axis = tr.AffineSubspace(np.zeros(3), [[1.0, 0.0, 0.0]])
    rr = tr.rotation_around_subspace(r, x1_axis, "absolute", guard=0.0)
    assert abs(rr.value - (1 / 0.025 - 1 / 0.2)) <= rr.error_estimate


_coord = st.floats(-10.0, 10.0, allow_nan=False)
_vec3 = st.tuples(_coord, _coord, _coord)


@given(st.lists(st.tuples(_vec3, _vec3, _vec3), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_point_segment_distances_dense_sampling(rows):
    q, p, d = (np.array([r[k] for r in rows]) for k in range(3))
    dist = point_segment_distances(q, p, d)
    n = 10_001
    s = np.linspace(0.0, 1.0, n)
    pts = p[:, None, :] + s[None, :, None] * d[:, None, :]
    dense = np.min(np.linalg.norm(q[:, None, :] - pts, axis=2), axis=1)
    # the closest sample lies within half a sample spacing of the minimizer
    half_step = 0.5 * np.linalg.norm(d, axis=1) / (n - 1)
    assert np.all(dist <= dense + 1e-12)
    assert np.all(dense <= dist + half_step + 1e-12)
    # far below the float64 range, unscaled squares would underflow to 0
    scale = np.longdouble("1e-3000")
    tiny = point_segment_distances(*(a.astype(np.longdouble) * scale
                                     for a in (q, p, d)))
    assert np.allclose((tiny / scale).astype(np.float64), dist,
                       rtol=1e-12, atol=1e-12)


def _mp_polyline_distance(x, center):
    """Exact distance from ``center`` to the polyline through the rows of
    ``x`` (float64): the squared distance in rationals, which sees offsets
    of any dynamic range, and its square root in 50-digit arithmetic."""
    q = [Fraction(float(v)) for v in center]
    d = [[Fraction(float(v)) - qi for v, qi in zip(row, q)] for row in x]
    best = None
    for a, b in zip(d[:-1], d[1:]):
        e = [bi - ai for ai, bi in zip(a, b)]
        ee = sum(v * v for v in e)
        t = Fraction(0)
        if ee > 0:
            t = min(max(-sum(ai * ei for ai, ei in zip(a, e)) / ee, t), 1)
        dist2 = sum((ai + t * ei) ** 2 for ai, ei in zip(a, e))
        best = dist2 if best is None else min(best, dist2)
    with mp.workdps(50):
        return mp.sqrt(mp.mpf(best.numerator) / best.denominator)


@st.composite
def _guarded_polylines(draw):
    """A 2-d or 3-d polyline and a center, with one segment that passes
    the center at a drawn miss distance from 1e-14 to 1 (its foot may lie
    inside or outside the segment)."""
    dim = draw(st.sampled_from([2, 3]))
    vec = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=dim,
                   max_size=dim)
    center = np.array(draw(vec))
    rows = [np.array(v) for v in draw(st.lists(vec, min_size=1, max_size=5))]
    w = np.array(draw(vec))
    n = np.array(draw(vec))
    n = n - (n @ w) / max(w @ w, 1e-300) * w
    if not (np.linalg.norm(w) > 1e-3 and np.linalg.norm(n) > 1e-3):
        w, n = np.eye(dim)[0], np.eye(dim)[1]
    w, n = w / np.linalg.norm(w), n / np.linalg.norm(n)
    miss = 10.0 ** draw(st.floats(-14.0, 0.0))
    ta, tb = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    near = [center + miss * n + ta * w, center + miss * n + tb * w]
    at = draw(st.integers(0, len(rows)))
    return np.array(rows[:at] + near + rows[at:]), center


@given(_guarded_polylines())
@settings(max_examples=200, deadline=None)
def test_center_directions_guard_matches_mpmath(case):
    """The guard distance of :func:`center_directions` against the exact
    distance: it passes a guard 4 eps max|d| below it and rejects one
    4 eps max|d| above it.  The scales are powers of two (about 1e-200,
    1e+200 and, in longdouble, 1e-3000), so the scaled inputs and the
    exact distance scale exactly."""
    x, center = case
    eps = np.finfo(np.float64).eps
    ref = _mp_polyline_distance(x, center)
    tol = 4 * eps * float(np.max(np.linalg.norm(x - center, axis=1)))
    t = np.arange(float(len(x)))
    for dtype, k in ((np.float64, 0), (np.float64, -664), (np.float64, 664),
                     (np.longdouble, 0)):
        scale = dtype(2.0) ** k
        c = tr.Curve(t, x.astype(dtype) * scale)
        q = center.astype(dtype) * scale
        lo, hi = (float(mp.ldexp(ref, k)) + sign * math.ldexp(tol, k)
                  for sign in (-1, 1))
        if lo > 0:
            center_directions(c, q, guard=lo)
        with pytest.raises(tr.DistanceTooSmall):
            center_directions(c, q, guard=hi)
    # at 1e-3000, below the float64 range, the curve keeps its closedness
    # and its default guard (both taken in longdouble), a longdouble guard
    # is checked as given, the directions are those at scale 1, and guard
    # 0 passes exactly when ref > 0
    k = -9966
    scale = np.longdouble(2.0) ** k
    one = tr.Curve(t, x.astype(np.longdouble))
    tiny = tr.Curve(t, x.astype(np.longdouble) * scale)
    q = center.astype(np.longdouble)
    assert tiny.closed == one.closed
    assert tiny.default_guard() == one.default_guard() * scale > 0
    lo, hi = (np.longdouble(mp.nstr(mp.ldexp(ref, k), 25))
              + sign * np.ldexp(np.longdouble(tol), k) for sign in (-1, 1))
    if lo > 0:
        center_directions(tiny, q * scale, guard=lo)
    with pytest.raises(tr.DistanceTooSmall) as exc:
        center_directions(tiny, q * scale, guard=hi)
    # the message keeps the scale: the guard and a positive distance do
    # not read 0
    within, shown = re.fullmatch(r"curve comes within (\S+) of the center "
                                 r"\(guard (\S+)\)", str(exc.value)).groups()
    assert abs(np.longdouble(shown) / hi - 1) < 0.01
    assert (np.longdouble(within) > 0) == (ref > 0)
    if ref > 0:
        assert np.array_equal(center_directions(tiny, q * scale, guard=0.0),
                              center_directions(one, q, guard=0.0))
    else:
        with pytest.raises(tr.DistanceTooSmall):
            center_directions(tiny, q * scale, guard=0.0)


def _polyline_distance(x, q):
    """Distance from ``q`` to the polyline through the rows of ``x`` by
    :func:`point_segment_distances`, in the dtype of ``x``."""
    p = x[:-1]
    return np.min(point_segment_distances(np.broadcast_to(q, p.shape), p,
                                          x[1:] - p))


def test_rounding_level_segment_keeps_its_distance():
    """A pair of samples near 1e-31 of the projected twist curve, seen
    from 6.5e-12 away: their directions round to one unit vector, so
    ``s`` reads 0 while ``cos theta`` reads below 1 and the height formula
    put the center at distance 0.  The segment counts as radial."""
    c = tr.project_to_complement(tr.twist_invariant_curve(0.012, 0.2),
                                 X_AXIS)
    q = np.array([-3.3075525486942936e-12, 5.5992737807803175e-12],
                 dtype=c.x.dtype)
    rmin = _stacked_directions(c.x, q[None])[3][0]
    ref = _polyline_distance(c.x, q)
    assert abs(rmin - ref) <= 8 * np.finfo(np.longdouble).eps * ref
    assert float(rmin) == pytest.approx(6.503212339e-12, rel=1e-9)
    center_directions(c, q)  # clears the default guard, 1.4e-18


@st.composite
def _short_segments(draw):
    """A center and a segment from 1e-21 to 1e-1 of its distance long,
    in float64 or longdouble, at scale 1 or 1e-30, either in a random
    direction or nearly across the line of sight."""
    dtype = draw(st.sampled_from([np.float64, np.longdouble]))
    dim = draw(st.integers(2, 4))
    vec = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    q, a, w = (np.array(draw(vec), dtype=dtype) for _ in range(3))
    d = a - q
    if not np.linalg.norm(d) > 1e-3:
        d = np.eye(dim, dtype=dtype)[0]
        a = q + d
    if draw(st.booleans()):
        tilt = dtype(draw(st.floats(-1.0, 1.0))) * dtype(10.0) ** -draw(
            st.integers(0, 18))
        w = w - (w @ d) / (d @ d) * d + tilt * d
    if not np.linalg.norm(w) > 1e-3:
        w = np.eye(dim, dtype=dtype)[np.argmin(np.abs(d))]
    length = dtype(10.0) ** dtype(draw(st.floats(-21.0, -1.0)))
    b = a + length * np.linalg.norm(d) / np.linalg.norm(w) * w
    scale = dtype(draw(st.sampled_from([1.0, 1e-30])))
    return np.array([a, b]) * scale, q * scale


@given(_short_segments())
@settings(max_examples=300, deadline=None)
def test_short_segment_distance_matches_point_segment(case):
    """The guard distance of a segment seen under a small angle, down to
    rounding level, agrees with :func:`point_segment_distances` in the
    curve's dtype to a few eps of the segment's radii; the height
    formula alone reads any height down to 0 near rounding level."""
    x, q = case
    rmin = _stacked_directions(x, q[None])[3][0]
    ref = _polyline_distance(x, q)
    big = np.max(np.linalg.norm(x - q, axis=1))
    assert abs(rmin - ref) <= 8 * np.finfo(x.dtype).eps * big


def _scalar_unit_rows(d):
    """Unit rows of ``d`` row by row on scalars of its dtype: the largest
    |coordinate| and the sum of squares taken left to right."""
    out = np.empty_like(d)
    for i, row in enumerate(d):
        m = abs(row[0])
        for x in row[1:]:
            m = max(m, abs(x))
        dn = [x / m for x in row]
        ss = dn[0] * dn[0]
        for x in dn[1:]:
            ss = ss + x * x
        r = np.sqrt(ss)
        out[i] = [x / r for x in dn]
    return out


@pytest.mark.parametrize("dtype, scale", [
    (np.float64, 1.0), (np.float64, 2.0 ** -600),
    (np.longdouble, np.ldexp(np.longdouble(1), -9966))],
    ids=["float64", "float64-tiny", "longdouble-2^-9966"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_row_reductions_fold_left_to_right(dtype, scale, dim):
    rng = np.random.default_rng(dim)
    d = rng.standard_normal((200, dim)).astype(dtype) * scale
    d[:7, 0] = 0  # rows where a later column holds the maximum
    want_max = [max(abs(x) for x in row) for row in d]
    want_sum = []
    for row in d:
        acc = row[0]
        for x in row[1:]:
            acc = acc + x
        want_sum.append(acc)
    for got, want in ((_row_max(np.abs(d)), want_max),
                      (_row_sum(d), want_sum)):
        assert got.dtype == dtype
        assert np.array_equal(got, np.array(want, dtype))
    assert np.array_equal(safe_unit_rows(d), _scalar_unit_rows(d))
    # from row 7 on: the rows with a zero first coordinate can make a
    # segment through the center in the plane
    center = np.full(dim, 9 * scale, dtype)
    c = tr.Curve(np.arange(193.0), d[7:] + center)
    assert np.array_equal(center_directions(c, center, guard=0.0),
                          _scalar_unit_rows(c.x - center))


def test_slice_and_reverse():
    c = helix_curve(n=301)
    mid = tr.slice_time(c, 1.0, 2.5)
    assert mid.t[0] == 1.0 and mid.t[-1] == 2.5
    r = tr.reverse(c)
    assert np.allclose(r.x[0], c.x[-1])
    assert np.all(np.diff(r.t) > 0)


def test_csv_roundtrip(tmp_path):
    c = helix_curve(n=37)
    path = tmp_path / "c.csv"
    tr.curve_to_csv(c, str(path))
    back = tr.curve_from_csv(str(path))
    assert np.array_equal(back.t, c.t)
    assert np.array_equal(back.x, c.x)


def test_csv_header_validation():
    bad = io.StringIO("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        tr.curve_from_csv(bad)
