import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import trajrot as tr
from trajrot import fields
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
def test_lipschitz_spiral_needs_finite_region(radius):
    # |J| = rho + hypot(2 rho - 1, 1) is infinite at rho = radius^2; the
    # closed form overflows silently, with no warning
    with pytest.raises(tr.NumericalError):
        tr.estimate_lipschitz(tr.spiral2d(), tr.Ball([0.0, 0.0], radius))


def test_lipschitz_for_overflowing_region():
    with pytest.warns(RuntimeWarning), pytest.raises(tr.NumericalError):
        tr.lipschitz_for(tr.spiral2d(), [[0.0, 0.0], [1e160, 0.0]])


def test_lipschitz_twist_below_the_identity_branch():
    # the field is (1, 0, 0) for x1 <= TWIST_SMALL_X1: K = 0, no warning
    for c1 in (TWIST_SMALL_X1 - 0.5, -3.0):
        est = tr.estimate_lipschitz(tr.twist3d(),
                                    tr.Ball([c1, 2.0, -1.0], 0.5))
        assert est.K == 0.0 and est.method == "analytic"
    with pytest.raises(tr.NumericalError):
        tr.estimate_lipschitz(tr.twist3d(), tr.Ball([0.5, 0.0, 0.0], np.inf))


def _ball_points(rng, center, radius, count):
    """Uniform draws in a ball: Gaussian direction, radius^(1/dim) scaling."""
    center = np.asarray(center, dtype=np.float64)
    g = rng.standard_normal((count, len(center)))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / len(center))
    return center + g * r[:, None]


def _max_quotient(f, xs, ys):
    dv = np.linalg.norm(tr.field_values(f, xs) - tr.field_values(f, ys),
                        axis=1)
    return float(np.max(dv / np.linalg.norm(xs - ys, axis=1)))


def test_lipschitz_spiral_close_to_dense_oracle():
    # the sampled cross-check as an oracle: difference quotients over
    # random chords of length 1e-4 are lower bounds of K (up to their
    # rounding, 1e-11), and the largest of 20 000 comes within 5% of it
    ball = tr.Ball(np.zeros(2), 1.2)
    rng = np.random.default_rng(99)
    xs = _ball_points(rng, ball.center, ball.radius, 20_000)
    step = rng.standard_normal((20_000, 2))
    ys = xs + 1e-4 * step / np.linalg.norm(step, axis=1, keepdims=True)
    oracle = _max_quotient(tr.spiral2d(), xs, ys)
    k = tr.estimate_lipschitz(tr.spiral2d(), ball).K
    assert oracle <= k * (1 + 1e-9) and k < 1.05 * oracle


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_lipschitz_sampled_below_analytic_linear(seed):
    m = np.array([[0.3, -1.2], [0.8, 0.5]])
    f = tr.linear(m)
    ball = tr.Ball(np.zeros(2), 1.5)
    rng = np.random.default_rng(seed)
    xs, ys = (_ball_points(rng, ball.center, ball.radius, 2000)
              for _ in range(2))
    assert _max_quotient(f, xs, ys) <= tr.estimate_lipschitz(f, ball).K + 1e-9


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


# 40-digit oracles of |J|_2 for the catalog fields, from formulas checked
# against mpmath's own derivatives and singular values below


def _mp_twist_w(x):
    return mp.exp(-1 / x ** 2 + 1j / x)


def _mp_twist_g(u):
    """|w''| at x1 = 1/u."""
    return u ** 2 * mp.exp(-u * u) * mp.sqrt(
        16 * u ** 8 - 40 * u ** 6 + 33 * u ** 4 + 4 * u ** 2)


def _mp_spiral_norm(rho):
    """|J|_2 of spiral2d on |x|^2 = rho: the square root of f(rho)."""
    return mp.sqrt(5 * rho ** 2 - 4 * rho + 2
                   + 2 * rho * mp.sqrt(4 * rho ** 2 - 4 * rho + 2))


def _mp_twist_u_star():
    return mp.findroot(lambda u: mp.diff(_mp_twist_g, u), 1.8)


def test_twist_peak_and_profile_match_mpmath():
    with mp.workdps(40):
        u_star = _mp_twist_u_star()
        assert abs(fields._TWIST_U_STAR - u_star) <= 1e-16 * u_star
        # the quartic whose sign g' has: one positive root, at u*^2
        roots = np.roots([16, -88, 133, -62, -6])
        positive = roots[(abs(roots.imag) < 1e-12) & (roots.real > 0)].real
        assert positive == pytest.approx([float(u_star) ** 2], rel=1e-12)
        for x in ("0.05", "0.3", "0.5", "0.6", "1", "2"):
            x = mp.mpf(x)
            exact = abs(mp.diff(_mp_twist_w, x, 2))
            assert abs(_mp_twist_g(1 / x) - exact) <= mp.mpf(10) ** -30 * exact
            # a tiny ball around x: K is |w''(x)| to within its width
            k = tr.estimate_lipschitz(
                tr.twist3d(), tr.Ball([float(x), 0.0, 0.0], 1e-15)).K
            assert abs(k - exact) <= 1e-9 * exact


def test_spiral_norm_matches_mpmath_singular_values():
    with mp.workdps(40):
        for x, y in ((0.0, 0.0), (0.3, -0.7), (1.0, 0.0), (-1.5, 2.0)):
            x, y = mp.mpf(x), mp.mpf(y)
            rho = x * x + y * y
            jac = mp.matrix([[rho - 1 + 2 * x * x, 2 * x * y - 1],
                             [2 * x * y + 1, rho - 1 + 2 * y * y]])
            sigma = max(mp.svd_r(jac, compute_uv=False))
            assert (abs(_mp_spiral_norm(rho) - sigma)
                    <= mp.mpf(10) ** -35 * sigma)


def _mp_sup(kind, center, radius):
    """The 40-digit sup of |J|_2 over the ball, and a grid of values
    inside it that must not exceed it."""
    radius = mp.mpf(radius)
    if kind == "spiral2d":
        a = mp.sqrt(mp.mpf(center[0]) ** 2 + mp.mpf(center[1]) ** 2)
        lo, hi = max(mp.mpf(0), a - radius) ** 2, (a + radius) ** 2
        ends = [_mp_spiral_norm(lo), _mp_spiral_norm(hi)]
        grid = [_mp_spiral_norm(lo + (hi - lo) * i / 64) for i in range(65)]
        return max(ends), grid
    small = mp.mpf(TWIST_SMALL_X1)
    x_lo, x_hi = mp.mpf(center[0]) - radius, mp.mpf(center[0]) + radius
    if x_hi <= small:
        return mp.mpf(0), []
    u_lo, u_hi = 1 / x_hi, (1 / x_lo if x_lo > small else mp.inf)
    u_star = _mp_twist_u_star()
    cands = [_mp_twist_g(u_lo)]
    if u_hi < mp.inf:
        cands.append(_mp_twist_g(u_hi))
    if u_lo < u_star < u_hi:
        cands.append(_mp_twist_g(u_star))
    top = min(u_hi, u_lo + 40)  # g < 1e-300 beyond u = 27
    grid = [_mp_twist_g(u_lo + (top - u_lo) * i / 64) for i in range(65)]
    return max(cands), grid


_BALLS = {
    "spiral2d": (tr.spiral2d(), st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                 st.floats(1e-6, 2.5)),
    "twist3d": (tr.twist3d(),
                st.tuples(st.floats(-0.5, 2.5), st.floats(-1, 1),
                          st.floats(-1, 1)),
                st.floats(1e-6, 2.0)),
}


@pytest.mark.parametrize("kind", sorted(_BALLS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lipschitz_catalog_is_the_40_digit_sup(kind, data):
    f, centers, radii = _BALLS[kind]
    center, radius = data.draw(centers), data.draw(radii)
    k = tr.estimate_lipschitz(f, tr.Ball(center, radius)).K
    with mp.workdps(40):
        sup, grid = _mp_sup(kind, center, radius)
        assert all(g <= sup * (1 + mp.mpf(10) ** -35) for g in grid)
        # the twist's |w''| may underflow: then K is short of the sup by
        # at most twice the float minimum
        floor = 2 * math.ulp(0.0) if kind == "twist3d" else 0.0
        assert sup - floor <= k <= sup * (1 + mp.mpf(1e-12)) + floor


def _random_field(kind, rng):
    dim = int(rng.integers(2, 5))
    m = rng.normal(size=(dim, dim)) * rng.uniform(0.1, 5.0)
    return {"spiral2d": tr.spiral2d, "twist3d": tr.twist3d,
            "linear": lambda: tr.linear(m),
            "affine": lambda: tr.affine(m, rng.normal(size=dim)),
            "constant": lambda: tr.constant(rng.normal(size=dim))}[kind]()


@given(st.sampled_from(["spiral2d", "twist3d", "linear", "affine",
                        "constant"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_lipschitz_bounds_every_difference_quotient(kind, seed):
    rng = np.random.default_rng(seed)
    f = _random_field(kind, rng)
    center = rng.uniform(-1.5, 1.5, f.dim)
    if kind == "twist3d":
        center[0] = rng.uniform(0.0, 1.5)
    radius = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
    k = tr.estimate_lipschitz(f, tr.Ball(center, radius)).K
    xs = _ball_points(rng, center, radius, 2000)
    # far pairs, and short chords that probe |J| where they sit
    ys = np.concatenate([_ball_points(rng, center, radius, 1000),
                         xs[1000:] + _ball_points(rng, np.zeros(f.dim),
                                                  1e-4 * radius, 1000)])
    vx, vy = tr.field_values(f, xs), tr.field_values(f, ys)
    dv = np.linalg.norm(vx - vy, axis=1)
    dx = np.linalg.norm(xs - ys, axis=1)
    rounding = 8 * np.finfo(np.float64).eps * (
        np.linalg.norm(vx, axis=1) + np.linalg.norm(vy, axis=1))
    assert np.all(dv <= k * dx + rounding)


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
