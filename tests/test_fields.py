import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajrot as tr
from trajrot.fields import TWIST_SMALL_X1, twist_profile

from conftest import negated


def test_spiral_stationary_at_origin():
    assert np.array_equal(tr.eval_field(tr.spiral2d(), [0.0, 0.0]), [0.0, 0.0])


def test_spiral_on_unit_circle():
    v = tr.eval_field(tr.spiral2d(), [1.0, 0.0])
    assert np.allclose(v, [0.0, 1.0])


def test_spiral_formula_generic_point():
    x, y = 0.3, -0.7
    r2 = x * x + y * y
    v = tr.eval_field(tr.spiral2d(), [x, y])
    assert np.allclose(v, [(r2 - 1) * x - y, (r2 - 1) * y + x])


_COORD = st.floats(-1e3, 1e3)
# both sides of the twist's identity-branch cutoff, and the cutoff itself
_TWIST_X1 = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(0.5 * TWIST_SMALL_X1, 2.0 * TWIST_SMALL_X1),
    st.sampled_from([TWIST_SMALL_X1, np.nextafter(TWIST_SMALL_X1, 0.0),
                     np.nextafter(TWIST_SMALL_X1, 1.0), 0.0, -0.0]))


@st.composite
def field_and_point(draw, kind):
    dim = {"spiral2d": 2, "twist3d": 3}.get(kind) or draw(st.integers(1, 4))
    entries = st.lists(_COORD, min_size=dim, max_size=dim)
    if kind == "spiral2d":
        f = tr.spiral2d()
    elif kind == "twist3d":
        f = tr.twist3d()
    elif kind == "constant":
        f = tr.constant(draw(entries))
    else:
        m = [draw(entries) for _ in range(dim)]
        f = (tr.linear(m) if kind == "linear"
             else tr.affine(m, draw(entries)))
    p = draw(entries)
    if kind == "twist3d":
        p[0] = draw(_TWIST_X1)
    return f, np.array(p)


@pytest.mark.parametrize("kind", ["spiral2d", "twist3d", "constant",
                                  "linear", "affine"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_point_matches_batched_row_bitwise(kind, data):
    f, p = data.draw(field_and_point(kind))
    one, batch = tr.field_values(f, p), tr.field_values(f, p[None])
    assert one.dtype == batch.dtype == np.float64
    assert one.shape == p.shape and batch.shape == (1,) + p.shape
    assert one.tobytes() == batch[0].tobytes()


def test_twist_identity_branch():
    assert np.array_equal(tr.eval_field(tr.twist3d(), [-1.0, 0.3, 0.4]),
                          [1.0, 0.0, 0.0])


def test_twist_matches_profile_derivative():
    # centered finite difference of the profile vs the closed form
    f = tr.twist3d()
    for x1 in (0.2, 0.35, 0.6, 1.3):
        h = 1e-6
        w_p = np.array(twist_profile(np.array([x1 + h]))).ravel()
        w_m = np.array(twist_profile(np.array([x1 - h]))).ravel()
        fd = (w_p - w_m) / (2 * h)
        v = tr.eval_field(f, [x1, 0.0, 0.0])
        assert np.allclose(v[1:], fd, rtol=1e-7, atol=1e-10)


def test_twist_continuous_at_zero():
    f = tr.twist3d()
    for eps in (1e-2, 1e-3):
        v = tr.eval_field(f, [eps, 0.0, 0.0])
        assert np.linalg.norm(v - [1.0, 0.0, 0.0]) < 1e-12


def test_parse_field_spec():
    assert tr.parse_field_spec("spiral2d").kind == "spiral2d"
    assert tr.parse_field_spec("twist3d").dim == 3
    f = tr.parse_field_spec("linear:1,2,3,4")
    assert f.matrix.shape == (2, 2) and f.matrix[1, 0] == 3
    g = tr.parse_field_spec("constant:0,0,1")
    assert np.array_equal(tr.eval_field(g, [5.0, 5.0, 5.0]), [0, 0, 1])
    h = tr.parse_field_spec("affine:1,0,0,1,3,4")
    assert np.array_equal(tr.eval_field(h, [1.0, 1.0]), [4.0, 5.0])
    with pytest.raises(ValueError):
        tr.parse_field_spec("linear:1,2,3")
    with pytest.raises(ValueError):
        tr.parse_field_spec("whatever")


@pytest.mark.parametrize("dim, kind, parts", [
    (2, "linear", {}),
    (2, "linear", {"matrix": np.eye(2), "offset": np.zeros(2)}),
    (2, "affine", {"matrix": np.eye(2)}),
    (2, "affine", {"offset": np.zeros(2)}),
    (2, "constant", {}),
    (2, "constant", {"matrix": np.eye(2), "offset": np.zeros(2)}),
    (3, "spiral2d", {}),
    (2, "spiral2d", {"matrix": np.eye(2)}),
    (2, "twist3d", {}),
    (3, "twist3d", {"offset": np.zeros(3)}),
])
def test_field_spec_rejects_parts_its_kind_lacks(dim, kind, parts):
    # rejected when built, not with AttributeError/TypeError when evaluated
    with pytest.raises(ValueError, match="field kind"):
        tr.FieldSpec(dim, kind, **parts)


@pytest.mark.parametrize("build", [
    lambda: tr.linear(5.0), lambda: tr.constant(5.0),
    lambda: tr.affine(5.0, 1.0)], ids=["linear", "constant", "affine"])
def test_field_spec_rejects_scalar_parts(build):
    # a ValueError, not an IndexError from reading the dimension
    with pytest.raises(ValueError, match="not a scalar"):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_spec_rejects_non_finite_entries(bad):
    # rejected when built, before integration (StepUnderflow) or
    # estimate_lipschitz (numpy's LinAlgError) could see it
    m = np.array([[bad, 0.0], [0.0, -1.0]])
    for build in (lambda: tr.linear(m),
                  lambda: tr.affine(m, np.zeros(2)),
                  lambda: tr.affine(np.eye(2), [0.0, bad]),
                  lambda: tr.constant([bad, 0.0]),
                  lambda: tr.parse_field_spec(f"linear:{bad},0,0,-1")):
        with pytest.raises(ValueError, match="finite"):
            build()
    # the field keeps a read-only copy, so no later write reaches it
    m = np.eye(2)
    f = tr.linear(m)
    m[0, 0] = bad
    assert np.array_equal(f.matrix, np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        f.matrix[0, 0] = bad


def test_lipschitz_constant_field():
    est = tr.estimate_lipschitz(tr.constant([1.0, 2.0]),
                                tr.Ball([0.0, 0.0], 1.0))
    assert est.K == 0.0 and est.method == "analytic"


def test_lipschitz_diagonal_linear():
    est = tr.estimate_lipschitz(tr.linear(-np.eye(3)), tr.Ball(np.zeros(3), 2.0))
    assert abs(est.K - 1.0) < 1e-12


@pytest.mark.parametrize("radius", [np.inf, 1e300])
def test_lipschitz_sampled_needs_finite_pairs(radius):
    # an infinite ball leaves no usable pair; a huge one gives NaN quotients
    with pytest.warns(RuntimeWarning), pytest.raises(tr.NumericalError):
        tr.estimate_lipschitz(tr.spiral2d(), tr.Ball([0.0, 0.0], radius))


def test_lipschitz_for_overflowing_region():
    with pytest.warns(RuntimeWarning), pytest.raises(tr.NumericalError):
        tr.lipschitz_for(tr.spiral2d(), [[0.0, 0.0], [1e160, 0.0]])


def test_lipschitz_spiral_close_to_dense_oracle():
    ball = tr.Ball(np.zeros(2), 1.2)
    oracle = tr.estimate_lipschitz(tr.spiral2d(), ball, n=1_000_000, seed=99)
    est = tr.estimate_lipschitz(tr.spiral2d(), ball, n=50_000, seed=7)
    assert abs(est.K - oracle.K) / oracle.K < 0.05


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_lipschitz_sampled_below_analytic_linear(seed):
    m = np.array([[0.3, -1.2], [0.8, 0.5]])
    f = tr.linear(m)
    ball = tr.Ball(np.zeros(2), 1.5)
    sampled = tr.estimate_lipschitz(f, ball, n=2000, seed=seed,
                                    method="sampled")
    analytic = tr.estimate_lipschitz(f, ball)
    assert sampled.K <= analytic.K + 1e-9


def test_lipschitz_inequality_spot_check():
    m = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    f = tr.linear(m)
    k = tr.estimate_lipschitz(f, tr.Ball(np.zeros(3), 3.0)).K
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(200, 3))
    ys = rng.normal(size=(200, 3))
    dv = np.linalg.norm(tr.field_values(f, xs) - tr.field_values(f, ys), axis=1)
    dx = np.linalg.norm(xs - ys, axis=1)
    assert np.all(dv <= (k + 1e-12) * dx)


def test_sample_ball_inside():
    rng = np.random.default_rng(0)
    ball = tr.Ball([1.0, -2.0, 0.5], 0.7)
    pts = tr.fields.sample_ball(rng, ball, 5000)
    assert np.max(np.linalg.norm(pts - ball.center, axis=1)) <= ball.radius


def test_twist_invariant_curve_dtype_switch():
    c64 = tr.twist_invariant_curve(0.05, 0.2)
    assert c64.x.dtype == np.float64
    c128 = tr.twist_invariant_curve(0.025, 0.2)
    assert c128.x.dtype == np.longdouble
    assert float(np.min(np.abs(c128.x[:, 1:]).max(axis=1))) >= 0.0
    # amplitudes strictly positive in extended precision
    amp = np.hypot(c128.x[:, 1].astype(np.longdouble),
                   c128.x[:, 2].astype(np.longdouble))
    assert np.all(amp > 0)


def test_negated_roundtrip():
    f = tr.affine(np.eye(2), np.array([1.0, 0.0]))
    g = negated(f)
    x = np.array([0.3, 0.4])
    assert np.allclose(tr.eval_field(f, x) + tr.eval_field(g, x), 0.0)
