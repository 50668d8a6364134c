import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajrot as tr
from trajrot.curves import point_segment_distances, segment_angles

from conftest import circle2d, helix_curve, Z_AXIS


def test_curve_validation():
    with pytest.raises(ValueError):
        tr.Curve([0.0], [[0.0, 0.0]])  # too few samples
    with pytest.raises(ValueError):
        tr.Curve([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]])  # non-increasing t
    with pytest.raises(ValueError):
        tr.Curve([0.0, 1.0], [[0.0], [1.0]])  # dim < 2
    with pytest.raises(ValueError):
        tr.Curve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], closed=True)


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
    whole = tr.curve_length(tr.concat(c1, c2))
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
    r = tr.resample(c, 5)
    assert r.n_samples == 5
    assert np.allclose(r.x, np.linspace([0, 0], [1, 2], 5))


def test_resample_circle_length():
    c = circle2d(n=1000)
    r = tr.resample(c, 500)
    assert abs(tr.curve_length(r) - tr.curve_length(c)) < 1e-3
    assert r.closed


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_resample_preserves_endpoints(n):
    c = helix_curve(n=57)
    r = tr.resample(c, n)
    assert np.allclose(r.x[0], c.x[0])
    assert np.allclose(r.x[-1], c.x[-1])
    assert np.all(np.diff(r.t) > 0)


def test_resample_rotation_invariance(spiral_traj):
    # restrict to a window where arc-length-uniform sampling still
    # resolves every coil; deep coils carry almost no arc length
    c = tr.slice_time(spiral_traj, 0.0, 5.0)
    rot = tr.absolute_rotation_point(c, np.zeros(2))
    half = tr.resample(c, c.n_samples // 2)
    rot2 = tr.absolute_rotation_point(half, np.zeros(2))
    assert abs(rot.value - rot2.value) < rot.error_estimate + rot2.error_estimate


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
