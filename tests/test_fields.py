import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajrot as tr


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


@pytest.mark.parametrize("f", [
    tr.spiral2d(), tr.twist3d(), tr.constant([1.0, -2.0, 0.5]),
    tr.linear([[0.0, 1.0], [-2.0, 0.3]]),
    tr.affine([[0.0, 1.0], [-2.0, 0.3]], [0.5, 1.0])], ids=lambda f: f.kind)
def test_field_evaluator_matches_field_values(f):
    from trajrot.fields import field_evaluator

    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (4, 6, f.dim))
    pts[0, 0, 0] = 0.0       # twist3d: the identity branch
    pts[0, 1, 0] = 1e-3      # and its edge
    got = field_evaluator(f)(pts)
    assert got.shape == pts.shape
    assert np.array_equal(got.reshape(-1, f.dim),
                          tr.field_values(f, pts.reshape(-1, f.dim)))
    assert np.array_equal(field_evaluator(f)(pts[1, 2]),
                          tr.eval_field(f, pts[1, 2]))


def test_twist_identity_branch():
    assert np.array_equal(tr.eval_field(tr.twist3d(), [-1.0, 0.3, 0.4]),
                          [1.0, 0.0, 0.0])


def test_twist_matches_profile_derivative():
    # centered finite difference of the profile vs the closed form
    f = tr.twist3d()
    for x1 in (0.2, 0.35, 0.6, 1.3):
        h = 1e-6
        w_p = np.array(tr.twist_profile(np.array([x1 + h]))).ravel()
        w_m = np.array(tr.twist_profile(np.array([x1 - h]))).ravel()
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


def test_lipschitz_constant_field():
    est = tr.estimate_lipschitz(tr.constant([1.0, 2.0]),
                                tr.Ball([0.0, 0.0], 1.0))
    assert est.K == 0.0 and est.method == "analytic"


def test_lipschitz_diagonal_linear():
    est = tr.estimate_lipschitz(tr.linear(-np.eye(3)), tr.Ball(np.zeros(3), 2.0))
    assert abs(est.K - 1.0) < 1e-12


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
    g = tr.negated(f)
    x = np.array([0.3, 0.4])
    assert np.allclose(tr.eval_field(f, x) + tr.eval_field(g, x), 0.0)
