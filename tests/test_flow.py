import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import trajrot as tr
from trajrot import flow
from trajrot.curves import segment_angles
from trajrot.fields import TWIST_SMALL_X1, twist_profile
from trajrot.flow import _dense_output

from conftest import SINK_MATRIX, negated, sink_closed_form


def test_constant_field_endpoint():
    c = tr.integrate_trajectory(tr.constant([1.0, 0.0, 0.0]), np.zeros(3),
                                0.0, 1.0, tr.IntegratorConfig())
    assert np.linalg.norm(c.x[-1] - [1.0, 0.0, 0.0]) < 1e-12
    assert np.all(np.diff(c.t) > 0)


def test_sink_endpoint_matches_closed_form():
    cfg = tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, chord_tol=1e-4)
    c = tr.integrate_trajectory(tr.linear(SINK_MATRIX),
                                np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)
    want = sink_closed_form([1.0, 1.0, 0.0], 3.0)
    assert np.linalg.norm(c.x[-1] - want) < 1e-8


def test_sink_endpoint_matches_expm():
    cfg = tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, chord_tol=1e-4)
    x0 = np.array([0.3, -1.0, 0.7])
    c = tr.integrate_trajectory(tr.linear(SINK_MATRIX), x0, 0.0, 2.0, cfg)
    want = scipy.linalg.expm(2.0 * SINK_MATRIX) @ x0
    assert np.linalg.norm(c.x[-1] - want) < 1e-9


def test_spiral_radius_decreasing():
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    c = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                0.0, 10.0, cfg)
    r2 = np.sum(c.x * c.x, axis=1)
    assert np.all(np.diff(r2) < 0)
    assert r2[-1] > 0


def test_validation_and_errors():
    with pytest.raises(ValueError, match="t1 must exceed t0"):
        tr.integrate_trajectory(tr.constant([1.0, 0.0]), np.zeros(2), 1.0, 0.0)
    with pytest.raises(ValueError):
        tr.IntegratorConfig(rel_tol=2.0)
    with pytest.raises(tr.StepUnderflow):
        tr.integrate_trajectory(tr.linear(-1e16 * np.eye(2)),
                                np.array([1.0, 1.0]), 0.0, 1.0)
    # e^1000 overflows: the grid raises rather than return inf samples
    with pytest.raises(tr.NumericalError, match="overflows"):
        tr.integrate_trajectory(tr.linear(np.eye(2)), [1.0, 0.0], 0.0, 1e3)
    with pytest.raises(tr.SampleBudgetExceeded):
        cfg = tr.IntegratorConfig(max_samples=20, chord_tol=1e-9)
        tr.integrate_trajectory(tr.linear(SINK_MATRIX),
                                np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)


@pytest.mark.parametrize("kw", [{"max_step": float("nan")},
                                {"chord_tol": 0.0}, {"chord_tol": -1e-6},
                                {"chord_tol": float("nan")},
                                {"max_samples": float("nan")}])
def test_config_rejects_nan_and_non_positive_settings(kw):
    # a NaN max_step would never advance t, chord_tol <= 0 can never hold
    # and a NaN max_samples would never exceed the budget
    with pytest.raises(ValueError):
        tr.IntegratorConfig(**kw)


@pytest.mark.parametrize("t0, t1, x0", [
    (0.0, float("nan"), [0.5, 0.0]), (float("-inf"), 1.0, [0.5, 0.0]),
    (0.0, float("inf"), [0.5, 0.0]), (0.0, 1.0, [float("nan"), 0.0]),
    (0.0, 1.0, [0.5, float("inf")])])
def test_non_finite_window_or_start_rejected(t0, t1, x0):
    with pytest.raises(ValueError, match="finite"):
        tr.integrate_trajectory(tr.spiral2d(), np.array(x0), t0, t1)


def test_spiral_far_outside_blows_up_at_once():
    # the field overflows at the start point, and the flow blows up
    # 5e-207 after it: the window is refused before any node is evaluated
    with pytest.raises(tr.NumericalError, match="blows up 5e-207 after t0"):
        tr.integrate_trajectory(tr.spiral2d(), [1e103, 0.0], 0.0, 1.0)


@pytest.mark.parametrize("field, x0, t0, centers, message", [
    # t0 + 0.01 rounds back to t0: the first step does not advance t
    (tr.spiral2d(), [0.5, 0.0], 1e15, (), "does not advance t"),
    # the steps advance, but angle-refinement samples round onto each other
    (tr.spiral2d(), [0.5, 0.0], 1e13, [np.zeros(2)], "float spacing"),
], ids=["spiral-1e15", "spiral-1e13"])
def test_window_below_time_resolution_raises_step_underflow(field, x0, t0,
                                                            centers, message):
    # these raised a bare ValueError from Curve on repeated sample times
    with pytest.raises(tr.StepUnderflow, match=message):
        tr.integrate_trajectory(field, x0, t0, t0 + 1.0, obs_centers=centers)


def test_constant_window_far_from_zero_is_one_exact_step():
    # a field with M = 0 takes the whole window as one step, so the
    # window's span, not the float spacing at t0, sets its resolution
    c = tr.integrate_trajectory(tr.constant([1.0, -0.5]), [2.0, 3.0], 1e15,
                                1e15 + 1.0)
    assert c.t.tolist() == [1e15, 1e15 + 1.0]
    assert c.x.tolist() == [[2.0, 3.0], [3.0, 2.5]]


@settings(max_examples=300, deadline=None)
@given(t0=st.floats(-1e3, 1e3), span=st.floats(1e-3, 1e3),
       kind=st.sampled_from(["constant", "linear"]),
       max_step=st.one_of(st.none(), st.floats(0.01, 0.5)))
def test_last_step_lands_on_t1(t0, span, kind, max_step):
    # t + (t1 - t) can round off t1: below it, the leftover was stepped
    # or raised StepUnderflow; above it, the last sample left the window
    t1 = t0 + span
    f = (tr.constant([1.0, -0.5]) if kind == "constant"
         else tr.linear([[-0.1, -1.0], [1.0, -0.1]]))
    cfg = tr.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, chord_tol=0.5,
                              max_step=math.inf if max_step is None
                              else max_step * span)
    c = tr.integrate_trajectory(f, [1.0, 0.0], t0, t1, cfg)
    assert c.t[0] == t0 and c.t[-1] == t1
    assert np.all(np.diff(c.t) > 0)


def test_time_reversal():
    f = tr.linear(SINK_MATRIX)
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-8, chord_tol=0.9)
    x0 = np.array([1.0, 1.0, 0.0])
    fwd = tr.integrate_trajectory(f, x0, 0.0, 2.0, cfg)
    back = tr.integrate_trajectory(negated(f), fwd.x[-1], 0.0, 2.0, cfg)
    assert np.linalg.norm(back.x[-1] - x0) < 100 * cfg.abs_tol


def test_obs_center_angle_refinement():
    # motion past the origin: every output segment must subtend <= 0.05 rad
    f = tr.constant([1.0, 0.0])
    x0 = np.array([-1.0, 0.01])
    center = np.zeros(2)
    c = tr.integrate_trajectory(f, x0, 0.0, 2.0,
                                tr.IntegratorConfig(chord_tol=0.5),
                                obs_centers=[center])
    assert float(np.max(segment_angles(c.x[:-1], c.x[1:], center))) <= 0.05 + 1e-12


def test_deterministic_given_config():
    cfg = tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-9, chord_tol=1e-4)
    a = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]), 0.0,
                                5.0, cfg)
    b = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]), 0.0,
                                5.0, cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)


def _oracle_cases():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    lin = tr.linear(1.5 * m / np.linalg.norm(m, 2))
    # a rotating sink like the benchmark's sweep jobs: a slow plane that
    # turns 41 rad in T = 8, conjugated by a rotation, refined at the sink
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    block = np.array([[-1.2, 0.0, 0.0], [0.0, -0.4, -41 / 8],
                      [0.0, 41 / 8, -0.4]])
    return [
        ("spiral2d", tr.spiral2d(), np.array([0.5, 0.0]), 10.0,
         tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5),
         []),
        ("twist3d", tr.twist3d(), np.array([0.05, 0.5, 0.0]), 0.15,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6),
         []),
        ("linear3d", lin, rng.standard_normal(3), 5.0,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4),
         []),
        ("sweep-sink", tr.linear(q @ block @ q.T), q @ [0.3, 0.8, -0.52],
         8.0, tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                  chord_tol=1e-4), [np.zeros(3)]),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_every_sample_on_scipy_path(case):
    _, f, x0, T, cfg, centers = case
    c = tr.integrate_trajectory(f, x0, 0.0, T, cfg, obs_centers=centers)
    sol = solve_ivp(lambda t, x: tr.eval_field(f, x), (0.0, T), x0,
                    method="DOP853", dense_output=True, rtol=1e-13, atol=1e-13)
    want = sol.sol(c.t).T
    step_tol = cfg.abs_tol + cfg.rel_tol * np.max(np.abs(want), axis=1)
    dist = np.linalg.norm(c.x - want, axis=1)
    assert np.all(dist <= cfg.chord_tol + 100 * step_tol)
    assert c.t[0] == 0.0 and c.t[-1] == T and np.all(np.diff(c.t) > 0)


def _spiral_flow(x0, s):
    """The spiral's exact flow from ``x0`` after times ``s``: it turns at
    unit angular speed, and ``r' = (r^2 - 1) r`` gives
    ``r(s)^2 = 1 / (1 + (1/r0^2 - 1) e^(2s))``."""
    r0_sq = float(x0 @ x0)
    angle = math.atan2(x0[1], x0[0]) + s
    r = np.sqrt(1.0 / (1.0 + (1.0 / r0_sq - 1.0) * np.exp(2.0 * s)))
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)


def _twist_flow(x0, s):
    """The twist's exact flow from ``x0`` after times ``s``: it crosses
    the planes ``x1 = c`` at unit speed, so every trajectory is a
    translate of the profile ``w`` (``s`` starts at 0).  Below
    ``TWIST_SMALL_X1`` the profile's amplitude ``exp(-1/x1^2)`` is 0 in
    any float format, and ``1/x1^2`` could overflow."""
    x1 = x0[0] + s
    w1, w2 = twist_profile(np.where(x1 > TWIST_SMALL_X1, x1, 0.0))
    return np.stack([x1, x0[1] + w1 - w1[0], x0[2] + w2 - w2[0]], axis=1)


# the settings the package integrates its closed-form fields with: the
# spiral-point scenario and paper-repro's spirals, the twist-line
# scenario, and paper-repro's twist pair
_CLOSED_FORM_CFGS = [
    tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5),
    tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6),
    tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, chord_tol=1e-6),
]


def _assert_on_exact_flow(f, x0, t0, span, cfg, flow_from):
    """Every sample lies within ``chord_tol + 100 step_tol`` of the exact
    flow, the bound of :func:`test_every_sample_on_scipy_path`."""
    c = tr.integrate_trajectory(f, x0, t0, t0 + span, cfg)
    want = flow_from(x0, c.t - t0)
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else cfg.chord_tol
    step_tol = cfg.abs_tol + cfg.rel_tol * np.max(np.abs(want), axis=1)
    dist = np.linalg.norm(c.x - want, axis=1)
    assert np.all(dist <= chord_tol + 100 * step_tol)


# the unit circle repels: the flow multiplies a radial error by
# e^(2s) r(s)^3 / r0^3, which stays below 20 for r0 <= 0.99 and grows
# without bound near the circle, where the rounding of 1 - r0^2, done
# differently here and in the program, moves the orbit
@settings(max_examples=25, deadline=None)
@given(r0=st.floats(0.05, 0.99), angle=st.floats(-math.pi, math.pi),
       t0=st.floats(-5.0, 5.0), span=st.floats(0.05, 10.0),
       cfg=st.sampled_from(_CLOSED_FORM_CFGS))
def test_spiral_samples_on_exact_flow(r0, angle, t0, span, cfg):
    x0 = r0 * np.array([math.cos(angle), math.sin(angle)])
    _assert_on_exact_flow(tr.spiral2d(), x0, t0, span, cfg, _spiral_flow)


@settings(max_examples=25, deadline=None)
@given(x0=st.tuples(st.floats(-0.5, 1.5), st.floats(-1.0, 1.0),
                    st.floats(-1.0, 1.0)),
       t0=st.floats(-5.0, 5.0), span=st.floats(0.05, 2.0),
       cfg=st.sampled_from(_CLOSED_FORM_CFGS))
def test_twist_samples_on_exact_flow(x0, t0, span, cfg):
    _assert_on_exact_flow(tr.twist3d(), np.array(x0), t0, span, cfg,
                          _twist_flow)


@pytest.mark.parametrize("f, x0, span, flow_from", [
    (tr.spiral2d(), [-0.2638486, 0.68933983], 4.942138009472403,
     _spiral_flow),
    (tr.twist3d(), [0.70727303, -0.98240944, -0.89482776],
     0.40276057118741887, _twist_flow),
], ids=["spiral2d", "twist3d"])
def test_default_settings_samples_on_exact_flow(f, x0, span, flow_from):
    _assert_on_exact_flow(f, np.array(x0), 0.0, span, tr.IntegratorConfig(),
                          flow_from)


def _mp_spiral(t, y):
    """The spiral's field on mpf coordinates."""
    x, z = y
    r2m1 = x * x + z * z - 1
    return [r2m1 * x - z, r2m1 * z + x]


def _mp_twist(t, y):
    """The twist's field on mpf coordinates: (1, w1', w2') at x1 > 0."""
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    if y[0] <= 0:
        return [one, zero, zero]
    inv = 1 / y[0]
    amp = mpmath.exp(-inv * inv)
    c, s = mpmath.cos(inv), mpmath.sin(inv)
    return [one, amp * (2 * inv ** 3 * c + inv ** 2 * s),
            amp * (2 * inv ** 3 * s - inv ** 2 * c)]


def _some_samples(c, k=16):
    """About k samples of ``c``, the first and the last among them."""
    return np.unique(np.linspace(0, c.n_samples - 1, k).astype(int))


# 64 eps of |x| covers a few roundings of each term of the closed forms;
# the spiral's 1 - r0^2 rounds to within eps, and near the blow-up the
# flow magnifies that by c e^(2s) / (1 + c expm1(2s)), 45 at s = 0.29
# from r0 = 1.5
@pytest.mark.parametrize("f, x0, t0, span, cfg, centers", [
    # the README's CLI example, at the default settings
    (tr.spiral2d(), [0.5, 0.0], 0.0, 10.0, tr.IntegratorConfig(), []),
    (tr.spiral2d(), 0.9 * np.array([math.cos(2.0), math.sin(2.0)]), 3.0,
     4.0, tr.IntegratorConfig(chord_tol=1e-5), [np.zeros(2)]),
    # outside the unit circle, up to just short of s* = 0.2939
    (tr.spiral2d(), [1.5, 0.0], 0.0, 0.29, tr.IntegratorConfig(), []),
    (tr.twist3d(), [0.3, -0.2, 0.4], 0.0, 0.3,
     tr.IntegratorConfig(chord_tol=1e-6), []),
], ids=["spiral-readme", "spiral-late", "spiral-outside", "twist"])
def test_flow_samples_match_mpmath_odefun(f, x0, t0, span, cfg, centers):
    # an oracle independent of the closed forms: mpmath's Taylor-series
    # solver on the field itself, at 30 digits
    c = tr.integrate_trajectory(f, x0, t0, t0 + span, cfg,
                                obs_centers=centers)
    idx = _some_samples(c)
    with mpmath.workdps(30):
        sol = mpmath.odefun(_mp_spiral if f.kind == "spiral2d" else _mp_twist,
                            t0, [mpmath.mpf(float(v)) for v in x0])
        want = np.array([[float(v) for v in sol(mpmath.mpf(float(t)))]
                         for t in c.t[idx]])
    eps = np.finfo(np.float64).eps
    dist = np.linalg.norm(c.x[idx] - want, axis=1)
    assert np.all(dist <= 64 * eps * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("x0, t0, span", [
    ([-0.05, 0.5, 0.0], 0.0, 0.6),      # from x1 < 0 across the level
    ([5e-4, 0.5, 0.2], 1.0, 0.4),       # from below the level
    ([TWIST_SMALL_X1, -0.3, 0.1], 0.0, 0.3),   # from the level itself
    ([5e-324, 0.2, 0.0], 0.0, 0.2),     # 1/x1 overflows at the start
], ids=["negative", "below", "at", "subnormal"])
def test_twist_across_small_x1_matches_mpmath_quad(x0, t0, span):
    # odefun's Taylor steps see the flat profile near x1 = 0 as constant
    # and step past where it grows: the twist moves x2 and x3 by the
    # integrals of its field along x1, which mpmath.quad takes at 30
    # digits, splitting at 0.1 and 0.2 where the profile rises
    c = tr.integrate_trajectory(tr.twist3d(), x0, t0, t0 + span,
                                tr.IntegratorConfig(chord_tol=1e-6))
    assert np.all(np.isfinite(c.x))
    idx, want = _some_samples(c), []
    with mpmath.workdps(30):
        a = mpmath.mpf(x0[0])
        for t in c.t[idx]:
            b = a + mpmath.mpf(float(t)) - t0
            cuts = [a] + [p for p in map(mpmath.mpf, ("0.1", "0.2"))
                          if a < p < b] + [b]
            want.append([float(b)] + [
                float(x0[k] + mpmath.quad(lambda u: _mp_twist(0, [u])[k],
                                          cuts)) for k in (1, 2)])
    eps = np.finfo(np.float64).eps
    dist = np.linalg.norm(c.x[idx] - want, axis=1)
    assert np.all(dist <= 64 * eps * np.linalg.norm(want, axis=1))


def test_twist_below_small_x1_moves_x1_only():
    c = tr.integrate_trajectory(tr.twist3d(), [-1.0, 0.3, -0.4], 0.0, 0.5)
    assert np.all(c.x[:, 1:] == [0.3, -0.4])
    assert np.allclose(c.x[:, 0], c.t - 1.0, rtol=0.0, atol=1e-15)


def test_spiral_from_origin_stays_there():
    c = tr.integrate_trajectory(tr.spiral2d(), [0.0, 0.0], 0.0, 400.0,
                                tr.IntegratorConfig(chord_tol=1e-3))
    assert np.all(c.x == 0.0)


@pytest.mark.parametrize("x0", [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
def test_spiral_unit_circle_is_invariant(x0):
    # 1 - |x0|^2 is 0 in floats, so the radius stays 1 to rounding, also
    # past s = 354 where c expm1(2s) would be 0 * inf
    assert x0[0] * x0[0] + x0[1] * x0[1] == 1.0
    c = tr.integrate_trajectory(tr.spiral2d(), x0, 0.0, 400.0,
                                tr.IntegratorConfig(chord_tol=1e-3))
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(np.linalg.norm(c.x, axis=1) - 1.0) <= 4 * eps)


def test_spiral_inside_reaches_origin_past_expm1_overflow():
    # c expm1(2s) overflows to inf past s = 354, where the radius is 0
    c = tr.integrate_trajectory(tr.spiral2d(), [0.5, 0.0], 0.0, 400.0,
                                tr.IntegratorConfig(chord_tol=1e-3))
    assert np.all(np.isfinite(c.x)) and np.all(c.x[-1] == 0.0)
    r = np.linalg.norm(c.x, axis=1)
    assert np.all(np.diff(r) <= 0)


def test_spiral_outside_blows_up_at_s_star():
    # from r0 = 1.5 the radius blows up at s* = -ln(1 - 1/r0^2) / 2
    s_star = -0.5 * math.log(1.0 - 1.0 / 1.5 ** 2)
    assert abs(s_star - 0.2939) < 1e-4
    for t0 in (0.0, 7.0):
        with pytest.raises(tr.NumericalError,
                           match="blows up 0.293893 after t0"):
            tr.integrate_trajectory(tr.spiral2d(), [0.0, 1.5], t0, t0 + 0.3)
        c = tr.integrate_trajectory(tr.spiral2d(), [0.0, 1.5], t0,
                                    t0 + 0.29)
        r = np.linalg.norm(c.x, axis=1)
        assert np.all(np.diff(r) > 0) and 11 < r[-1] < 12


@pytest.mark.parametrize("chord_tol, centers", [
    (1e-6, [np.zeros(3)]),     # dense output adds most samples
    (0.9, []),                 # one sample per accepted step
])
def test_sample_budget_boundary(chord_tol, centers):
    cfg = tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=chord_tol)
    args = (tr.linear(SINK_MATRIX), np.array([1.0, 1.0, 0.0]), 0.0, 3.0)
    full = tr.integrate_trajectory(*args, cfg, obs_centers=centers)
    n = full.n_samples
    exact = tr.integrate_trajectory(
        *args, dataclasses.replace(cfg, max_samples=n), obs_centers=centers)
    assert np.array_equal(exact.t, full.t) and np.array_equal(exact.x, full.x)
    with pytest.raises(tr.SampleBudgetExceeded):
        tr.integrate_trajectory(
            *args, dataclasses.replace(cfg, max_samples=n - 1),
            obs_centers=centers)


@pytest.mark.parametrize("x_start", [-1.0, -1.3])
def test_path_through_center_hits_split_cap(x_start):
    # the path runs exactly through the center: only the segment holding
    # it keeps failing the angle test, until the 24-level cap stops it.
    # The window is one step, and the center is passed at t = 1 or 1.3,
    # fractions 2/3 and 13/15 of it: never a dyadic midpoint, where the
    # NaN angle of an endpoint on the center would stop the splitting
    center = np.zeros(2)
    c = tr.integrate_trajectory(tr.constant([1.0, 0.0]),
                                np.array([x_start, 0.0]), 0.0, 1.5,
                                tr.IntegratorConfig(chord_tol=0.5),
                                obs_centers=[center])
    assert c.n_samples == 26
    assert np.all(np.diff(c.t) > 0)
    a, b = c.x[:-1], c.x[1:]
    holds = (a[:, 0] <= 0.0) & (b[:, 0] >= 0.0)
    assert np.count_nonzero(holds) == 1
    assert float(np.diff(c.t)[holds][0]) <= 1.5 * 2.0 ** -24
    angles = segment_angles(a[~holds], b[~holds], center)
    assert float(np.max(angles)) <= 0.05


def test_angle_refinement_at_two_centers():
    centers = [np.zeros(2), np.array([0.5, -0.02])]
    f, x0 = tr.constant([1.0, 0.0]), np.array([-1.0, 0.01])
    cfg = tr.IntegratorConfig(chord_tol=0.5)
    both = tr.integrate_trajectory(f, x0, 0.0, 2.0, cfg, obs_centers=centers)
    for center in centers:
        alone = tr.integrate_trajectory(f, x0, 0.0, 2.0, cfg,
                                        obs_centers=[center])
        assert both.n_samples > alone.n_samples
        assert float(np.max(segment_angles(both.x[:-1], both.x[1:],
                                            center))) <= 0.05


def _hermite(y0, f0, y1, f1, h, theta):
    """Cubic Hermite interpolant on steps, row-wise: ``y0``..``f1`` are
    (n, dim), ``h`` and ``theta`` in [0, 1] are (n,).  A midpoint off the
    exact flow, to test the subdivision on."""
    t2 = theta * theta
    h00 = 2 * t2 * theta - 3 * t2 + 1
    h10 = t2 * theta - 2 * t2 + theta
    h01 = -2 * t2 * theta + 3 * t2
    h11 = t2 * theta - t2
    return (h00[:, None] * y0 + (h10 * h)[:, None] * f0 + h01[:, None] * y1
            + (h11 * h)[:, None] * f1)


def _hermite_midpoint(hs, ys, fs):
    """Midpoints in increment form, as the matrix flows take them: the
    left end ``ya`` plus the cubic Hermite interpolant's change over the
    ``half`` of a step before ``theta``.  They use both of the callback's
    extra arguments and still lie off the exact flow."""
    def at(step, theta):
        return _hermite(ys[step], fs[step], ys[step + 1], fs[step + 1],
                        hs[step], theta)

    return lambda step, theta, ya, half: ya + (at(step, theta)
                                               - at(step, theta - half))


def _dense_output_reference(ts, hs, ys, fs, centers, chord_tol):
    """The per-step depth-first subdivision the vectorized pass replaced,
    on the same arithmetic: one stack per step, emitting in time order."""
    times, points = [ts[0]], [ys[0]]
    for j, (t, h) in enumerate(zip(ts, hs)):
        rows = (ys[j:j + 1], fs[j:j + 1], ys[j + 1:j + 2], fs[j + 1:j + 2])

        def at(theta):
            return _hermite(*rows, np.array([h]), np.array([theta]))[0]

        stack = [(0.0, ys[j], 1.0, ys[j + 1], 0)]
        while stack:
            ta, ya, tb, yb, depth = stack.pop()
            split = False
            if depth < 24:
                tm = 0.5 * (ta + tb)
                ym = ya + (at(tm) - at(ta))
                d = (ym - 0.5 * (ya + yb))[None]
                split = np.sqrt(np.einsum("ij,ij->i", d, d))[0] > chord_tol
                split |= any(segment_angles(ya[None], yb[None], c)[0] > 0.05
                             for c in centers)
            if split:
                stack.append((tm, ym, tb, yb, depth + 1))
                stack.append((ta, ya, tm, ym, depth + 1))
            else:
                times.append(t + tb * h)
                points.append(yb)
    return np.array(times), np.array(points)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_output_matches_per_step_reference(seed):
    rng = np.random.default_rng(seed)
    n = 40
    hs = rng.uniform(0.01, 0.5, n)
    ts = np.concatenate([[0.0], np.cumsum(hs)[:-1]])
    ys = np.cumsum(rng.normal(0.0, 0.3, (n + 1, 3)), axis=0)
    fs = rng.normal(0.0, 2.0, (n + 1, 3))
    centers = [ys[n // 2] + 1e-3, np.zeros(3)]
    want_t, want_x = _dense_output_reference(ts, hs, ys, fs, centers, 1e-3)
    got_t, got_x = _dense_output(ts, hs, ys, _hermite_midpoint(hs, ys, fs),
                                 centers, 1e-3, 10**6)
    assert len(want_t) > 4 * n
    assert np.array_equal(got_t, want_t) and np.array_equal(got_x, want_x)


def _reference_grid(t0, t1, h):
    """The steps from t0 + j h found one at a time: the last is the first
    to leave less than 1e-14 (t1 - t0) to go, stretched to t1."""
    h_min = 1e-14 * (t1 - t0)
    ts, hs, j = [], [], 0
    while True:
        ts.append(t0 + j * h)
        if t1 - (t0 + (j + 1) * h) < h_min:
            hs.append(t1 - ts[-1])
            return ts, hs
        hs.append(h)
        j += 1


def _taylor_grid_reference(f, x0, t0, t1, cfg, centers):
    """The grid of the matrix-backed kinds written out plainly, row by
    row.  The steps of h = min(max_step, t1 - t0, 1 / (2 |M|_inf)) are
    found one at a time, as in :func:`_reference_grid`.  The propagator
    over a length s takes y to y + (G y + c), with G = P sM, c = P sb and
    P = I + sM/2 (I + sM/3 (... (I + sM/(Q+1)))), built afresh for every
    use; G y is summed column by column, as in the code.  Node j is node
    j - k advanced by the propagator over k steps, with k the largest
    power of two up to j whose doublings from one step were all taken.
    The doubling to 2k steps is (G, c) -> (2G + G^2, 2c + Gc) while 2k h
    |M|_inf <= 1, and (F, c) -> (F^2, Fc + c) past that, F = I + G the
    full propagator, y -> F y + c; it is taken if finite and, for an F,
    if its largest entry is a normal float.  The last node is the one
    before plus the propagator over the last step.  The midpoint of a
    segment spanning 2 half of step j is its left end plus the
    propagator over half hs[j]."""
    dim, deg = f.dim, flow._TAYLOR_DEGREE
    m = np.zeros((dim, dim)) if f.matrix is None else f.matrix
    b = np.zeros(dim) if f.offset is None else f.offset
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else float(cfg.chord_tol)
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    h = min(cfg.max_step, t1 - t0, 0.5 / norm if norm else math.inf)
    ts, hs = _reference_grid(t0, t1, h)

    def propagator(s):
        a = s * m
        p = np.eye(dim)
        for q in range(deg + 1, 1, -1):
            p = np.eye(dim) + np.dot(a, p) / q
        return np.dot(p, a), np.dot(p, s * b)

    def advance(y, g, c, full=False):
        gy = g[:, 0] * y[0]
        for k in range(1, dim):
            gy = gy + g[:, k] * y[k]
        return gy + c if full else y + (gy + c)

    # (G or F, c, full) over 1, 2, 4, ... steps while each doubling is taken
    doublings = [(*propagator(h), False)]
    capped = False
    ys = [np.asarray(x0, dtype=np.float64)]
    for j in range(1, len(hs)):
        i = j.bit_length() - 1  # k = 2^i <= j < 2^(i+1)
        if len(doublings) <= i and not capped:
            g, c, full = doublings[-1]
            wide = 2 ** i * h * norm > 1
            with np.errstate(over="ignore", invalid="ignore"):
                if wide:
                    p = g if full else g + np.eye(dim)
                    g, c = np.dot(p, p), np.dot(p, c) + c
                else:
                    g, c = 2 * g + np.dot(g, g), 2 * c + np.dot(g, c)
            if (np.isfinite(g).all() and np.isfinite(c).all()
                    and not (wide and np.abs(g).max() < np.finfo(float).tiny)):
                doublings.append((g, c, wide))
            else:
                capped = True
        i = min(i, len(doublings) - 1)
        ys.append(advance(ys[j - 2 ** i], *doublings[i]))
    ys.append(advance(ys[-1], *propagator(hs[-1])))
    ts, hs, ys = np.array(ts), np.array(hs), np.array(ys)

    def midpoint(steps, thetas, yas, half):
        return np.array([advance(ya, *propagator(half * hs[j]))
                         for j, ya in zip(steps, yas)])

    times, points = _dense_output(ts, hs, ys, midpoint, centers, chord_tol,
                                  cfg.max_samples)
    times[-1] = t1
    return times, points


def _one(fn, x):
    """``fn`` on the float ``x`` as a one-entry array: numpy's SIMD
    ``expm1`` and ``exp`` can differ from :mod:`math`'s by an ulp."""
    return float(fn(np.array([x]))[0])


def _exact_flow_reference(f, x0, t0, t1, cfg, centers):
    """The grid of ``spiral2d`` and ``twist3d`` written out plainly, point
    by point on Python floats.  The steps of h = min(max_step, (t1 -
    t0) / 100) are found one at a time, as in :func:`_reference_grid`.
    A point a fraction theta past the step from ts[j] is the flow's
    formula at the elapsed time s = ts[j] - t0 + theta hs[j]: for the
    spiral, x0 turned by s and scaled by 1 / sqrt(1 + c expm1(2s)), c = 1
    - |x0|^2 (1 where c = 0); for the twist, x1 + s and x0[1:] moved by
    w(x1 + s) - w(x1), with w of x1 <= TWIST_SMALL_X1 taken at 0."""
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else float(cfg.chord_tol)
    ts, hs = _reference_grid(t0, t1, min(cfg.max_step, (t1 - t0) / 100.0))
    x0 = [float(v) for v in x0]

    def twist_w(x1):
        w1, w2 = twist_profile(np.array([x1 if x1 > TWIST_SMALL_X1 else 0.0]))
        return float(w1[0]), float(w2[0])

    def point(s):
        if f.kind == "spiral2d":
            a, b = x0
            c = 1.0 - (a * a + b * b)
            ratio = (1.0 / math.sqrt(1.0 + c * _one(np.expm1, 2.0 * s))
                     if c else 1.0)
            cos, sin = _one(np.cos, s), _one(np.sin, s)
            return [ratio * (a * cos - b * sin), ratio * (a * sin + b * cos)]
        (w1, w2), (v1, v2) = twist_w(x0[0] + s), twist_w(x0[0])
        return [x0[0] + s, x0[1] + (w1 - v1), x0[2] + (w2 - v2)]

    def midpoint(steps, thetas, yas, half):
        return np.array([point(ts[j] - t0 + theta * hs[j])
                         for j, theta in zip(steps, thetas)])

    ys = np.concatenate([[x0], [point(ts[j] - t0 + hs[j])
                                for j in range(len(hs))]])
    times, points = _dense_output(np.array(ts), np.array(hs), ys, midpoint,
                                  centers, chord_tol, cfg.max_samples)
    times[-1] = t1
    return times, points


def _stepping_cases():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((3, 3))
    sink_cfg = tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                   chord_tol=1e-4)
    return [
        ("sink", tr.linear(SINK_MATRIX), [1.0, 1.0, 0.0], 0.0, 3.0, sink_cfg,
         [np.zeros(3)]),
        ("sink-no-centers", tr.linear(SINK_MATRIX), [0.3, -1.0, 0.7], 0.0,
         2.0, sink_cfg, []),
        # eight steps of max_step leave 5e-15 < h_min to go: the last one
        # is stretched to t1
        ("sink-stretched", tr.linear(SINK_MATRIX), [0.3, -1.0, 0.7], 0.0,
         1.0, dataclasses.replace(sink_cfg, max_step=(1.0 - 5e-15) / 8), []),
        ("affine", tr.affine(m / np.linalg.norm(m, 2), [0.5, -1.0, 0.2]),
         rng.standard_normal(3), 0.0, 2.0,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4),
         [rng.standard_normal(3)]),
        ("constant", tr.constant([1.0, 0.0]), [-1.0, 0.01], 0.0, 2.0,
         tr.IntegratorConfig(chord_tol=0.5), [np.zeros(2)]),
        ("spiral2d", tr.spiral2d(), [0.5, 0.0], 0.0, 10.0,
         tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5),
         [np.zeros(2)]),
        ("spiral2d-max-step", tr.spiral2d(), [0.9, 0.1], 0.0, 4.0,
         tr.IntegratorConfig(max_step=0.05, chord_tol=1e-3), []),
        # from outside the unit circle, its window short of the blow-up,
        # late enough that ts - t0 rounds off j h
        ("spiral2d-outside-late", tr.spiral2d(), [0.6, -1.0], 1e3, 0.3,
         tr.IntegratorConfig(chord_tol=1e-6), [np.zeros(2)]),
        # from x1 < 0, across TWIST_SMALL_X1
        ("twist3d", tr.twist3d(), [-0.05, 0.5, 0.0], 0.0, 0.6,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6),
         [np.array([0.1, 0.5, 0.0])]),
        # the doubling stops at 1024 steps, where e^(600 k h) would
        # overflow, and the nodes go on in blocks of 1024
        ("capped", tr.linear(np.diag([-1.0, 600.0])), [1.0, 0.0], 0.0, 3.0,
         tr.IntegratorConfig(chord_tol=1e-8), []),
        # the doubling to 2048 steps, e^-731, would be subnormal: the
        # nodes go on in blocks of 1024
        ("floored", tr.linear([[-1.0, -0.4], [0.4, -1.0]]), [2.0 ** 500, 0.0],
         0.0, 760.0, tr.IntegratorConfig(chord_tol=2.0 ** 500),
         [np.zeros(2)]),
    ]


@pytest.mark.parametrize("case", _stepping_cases(), ids=lambda c: c[0])
def test_stepping_matches_reference_loop(case):
    _, f, x0, t0, T, cfg, centers = case
    c = tr.integrate_trajectory(f, x0, t0, t0 + T, cfg, obs_centers=centers)
    reference = (_exact_flow_reference if f.kind in ("spiral2d", "twist3d")
                 else _taylor_grid_reference)
    want_t, want_x = reference(f, x0, t0, t0 + T, cfg, centers)
    assert np.array_equal(c.t, want_t) and np.array_equal(c.x, want_x)


def test_taylor_degree_is_the_smallest_below_half_an_ulp():
    # every propagator spans at most one step, so |sM|_inf <= 1/2; at 1/2
    # the sum to degree Q leaves out of s f the terms t_q = 2^-q / (q+1)!,
    # q > Q, whose ratios t_(q+1) / t_q = 1/(2(q+2)) are at most
    # 1/(2(Q+3)): the tail is at most t_(Q+1) / (1 - that).  A doubled
    # propagator is exact algebra on the one-step sum, so adds no
    # truncation
    half_ulp = Fraction(1, 2 ** 53)

    def term(q):
        return Fraction(1, 2 ** q * math.factorial(q + 1))

    deg = flow._TAYLOR_DEGREE
    assert term(deg + 1) / (1 - Fraction(1, 2 * (deg + 3))) < half_ulp
    # one degree less leaves out t_Q alone, already above eps/2
    assert term(deg) >= half_ulp


# every sample of a matrix-backed kind lies within a bound fixed from eps,
# the node count n and the growth G = e^(max(mu, 0) T), mu the log-norm
# of M: with X = G (|x0| + T |b|) bounding |x| on the window, a step
# rounds to within a few dim eps X of the exact flow (the Taylor sum's
# truncation is below eps/2 |h f|, and P is summed with |hM| <= 1/2),
# each of at most n such errors grows by at most G, and 64 dim covers the
# count per step with room; sample times round by up to 8 eps (|t0| + T),
# which moves a point by that times |x'| <= |M| X + |b|
def _rounding_bound(m, b, x0, t0, span, n):
    dim = len(x0)
    mu = float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])
    growth = math.exp(max(mu, 0.0) * span)
    x_max = growth * (np.linalg.norm(x0) + span * np.linalg.norm(b))
    v_max = np.linalg.norm(m, 2) * x_max + np.linalg.norm(b)
    eps = np.finfo(np.float64).eps
    return eps * (64 * dim * n * growth * x_max
                  + 8 * (abs(t0) + span) * v_max)


# on long windows, max_step 0.002 takes the grid past 1 000 nodes and
# chord_tol 1e-8 the midpoints past 8 levels, where the rounding of the
# doubled and sub-step propagators would compound; on every run the two
# examples take 1 500 nodes with 6 levels, and 15 nodes with 12 levels
@example(kind="affine", dim=3, seed=0, norm=1.5, t0=-10.0, span=3.0,
         max_step=0.002, chord_tol=1e-8)
@example(kind="linear", dim=3, seed=0, norm=1.5, t0=10.0, span=3.0,
         max_step=None, chord_tol=1e-8)
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["linear", "affine", "constant"]),
       dim=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       norm=st.floats(0.1, 1.5), t0=st.floats(-10.0, 10.0),
       span=st.floats(1e-3, 3.0),
       max_step=st.one_of(st.none(), st.just(0.002), st.floats(0.01, 1.0)),
       chord_tol=st.sampled_from([1e-8, 1e-4, 1e-2, 0.5]))
def test_matrix_samples_on_exact_flow(kind, dim, seed, norm, t0, span,
                                      max_step, chord_tol):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m = (np.zeros((dim, dim)) if kind == "constant"
         else norm * m / np.linalg.norm(m, 2))
    b = np.zeros(dim) if kind == "linear" else rng.standard_normal(dim)
    f = {"linear": lambda: tr.linear(m), "affine": lambda: tr.affine(m, b),
         "constant": lambda: tr.constant(b)}[kind]()
    x0 = rng.standard_normal(dim)
    cfg = tr.IntegratorConfig(chord_tol=chord_tol, max_step=(
        math.inf if max_step is None else max_step))
    c = tr.integrate_trajectory(f, x0, t0, t0 + span, cfg)
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim], aug[:dim, dim] = m, b
    want = (scipy.linalg.expm((c.t - t0)[:, None, None] * aug)
            @ np.append(x0, 1.0))[:, :dim]
    inf_norm = float(np.max(np.sum(np.abs(m), axis=1)))
    n = span / min(cfg.max_step, span, 0.5 / inf_norm if inf_norm
                   else math.inf) + 2
    bound = _rounding_bound(m, b, x0, t0, span, n)
    assert np.all(np.linalg.norm(c.x - want, axis=1) <= bound)


def test_doubling_stops_where_it_overflows():
    # e^(600 k h) - 1, h = 1/1200, overflows past k = 1024 steps, and a
    # doubling without a cap multiplies that inf by the start's 0 (NaN);
    # with the cap the curve is the 3 600-step grid, as before doubling.
    # The growing mode never enters, so the rounding bound is that of the
    # decaying block, with the grid's node count
    f = tr.linear(np.diag([-1.0, 600.0]))
    c = tr.integrate_trajectory(f, [1.0, 0.0], 0.0, 3.0,
                                tr.IntegratorConfig(chord_tol=1e-3))
    assert c.n_samples == 3601 and np.all(c.x[:, 1] == 0.0)
    want = scipy.linalg.expm(-c.t[:, None, None] * np.ones((1, 1)))[:, 0, 0]
    bound = _rounding_bound(-np.ones((1, 1)), np.zeros(1), [1.0], 0.0, 3.0,
                            3600 + 2)
    assert np.all(np.abs(c.x[:, 0] - want) <= bound)


# a sink's samples stay accurate relative to their own size |x(t)| =
# e^-t |x0|, where the flow turns at omega about the origin: each of the
# n steps rounds by a few eps |x|, and the times by up to 8 eps T, which
# moves a point by |M|_2 |x| times that.  Doubling in increment form, y +
# G y with G near -I, left an absolute error near eps |x0|: node 256 of
# [0, 60] came out at 1e-16 against its true 3e-19.  On the last window
# the doubled propagator over 2048 steps, e^-731, is subnormal, so it is
# not taken
@pytest.mark.parametrize("omega, x0, span, max_step", [
    (2.0, 1.0, 40.0, math.inf), (2.0, 1.0, 60.0, math.inf),
    (2.0, 1.0, 60.0, 0.002), (0.4, 2.0 ** 500, 760.0, math.inf)])
def test_sink_samples_accurate_relative_to_their_size(omega, x0, span,
                                                       max_step):
    m = np.array([[-1.0, -omega], [omega, -1.0]])
    # the angle criterion at the sink splits every step; the chord one
    # never does
    c = tr.integrate_trajectory(
        tr.linear(m), [x0, 0.0], 0.0, span,
        tr.IntegratorConfig(max_step=max_step, chord_tol=x0),
        obs_centers=[np.zeros(2)])
    size = np.square(np.exp(-c.t / 2) * math.sqrt(x0))
    want = size[:, None] * np.stack([np.cos(omega * c.t),
                                     np.sin(omega * c.t)], axis=1)
    n = span / min(max_step, 0.5 / (1.0 + omega)) + 2
    eps = np.finfo(np.float64).eps
    bound = eps * (8 * n + 8 * span * math.hypot(1.0, omega))
    # divided first, as the squares of the last points' errors underflow
    assert np.all(np.linalg.norm((c.x - want) / size[:, None], axis=1)
                  <= bound)


@pytest.mark.parametrize("k", [-600, 0, 300, 600])
@pytest.mark.parametrize("kind", ["linear", "affine"])
def test_polynomial_steps_are_scale_invariant(k, kind):
    # 2^k M over T / 2^k: every scaling is by a power of two, and the
    # Taylor steps are written in hM and hb, so the same grid is taken
    # and the points agree bit for bit
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = q @ np.array([[-1.2, 0.0, 0.0], [0.0, -0.4, -3.0],
                      [0.0, 3.0, -0.4]]) @ q.T
    b = rng.standard_normal(3) if kind == "affine" else np.zeros(3)
    x0, cfg = [0.3, -1.0, 0.7], tr.IntegratorConfig(
        rel_tol=1e-11, abs_tol=1e-13, chord_tol=1e-4)

    def run(scale, span):
        return tr.integrate_trajectory(
            tr.affine(scale * m, scale * b), x0, 0.0, span, cfg,
            obs_centers=[np.zeros(3)])

    base, scaled = run(1.0, 4.0), run(2.0 ** k, math.ldexp(4.0, -k))
    assert np.array_equal(scaled.x, base.x)
    assert np.array_equal(scaled.t, np.ldexp(base.t, -k))


@pytest.mark.parametrize("center", [
    [float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0],
    [0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]]])
def test_obs_centers_must_be_finite_vectors_of_field_dim(center):
    # a NaN center turned the angle refinement off, and a 1-entry center
    # broadcast against every point
    with pytest.raises(ValueError, match="obs_centers"):
        tr.integrate_trajectory(tr.linear(SINK_MATRIX), [1.0, 1.0, 0.0],
                                0.0, 1.0, obs_centers=[np.zeros(3), center])
