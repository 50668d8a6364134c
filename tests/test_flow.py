import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import trajrot as tr
from trajrot import flow
from trajrot.curves import segment_angles
from trajrot.fields import (TWIST_SMALL_X1, _point_formula, field_evaluator,
                            twist_profile)
from trajrot.flow import _A, _E, _POLY, _dense_output, _hermite

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
    with pytest.raises(tr.SampleBudgetExceeded):
        cfg = tr.IntegratorConfig(max_samples=20, chord_tol=1e-9)
        tr.integrate_trajectory(tr.linear(SINK_MATRIX),
                                np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg)
    # squared error ratios beyond the float range reject the step; they
    # must not raise OverflowError
    with pytest.raises(tr.NumericalError):
        cfg = tr.IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
        tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]), 0.0, 1.0,
                                cfg)


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


def test_field_overflow_ends_in_step_underflow():
    # the field overflows at the start point, so every error norm is NaN:
    # each step must be rejected and shrunk until the step underflows
    start = time.perf_counter()
    with pytest.raises(tr.StepUnderflow), np.errstate(all="ignore"):
        tr.integrate_trajectory(tr.spiral2d(), [1e103, 0.0], 0.0, 1.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field, x0, t0, centers, message", [
    # t0 + 0.01 rounds back to t0: the first step does not advance t
    (tr.constant([1.0, 0.0]), [0.0, 0.0], 1e15, (), "does not advance t"),
    # the steps advance, but angle-refinement samples round onto each other
    (tr.spiral2d(), [0.5, 0.0], 1e13, [np.zeros(2)], "float spacing"),
], ids=["constant-1e15", "spiral-1e13"])
def test_window_below_time_resolution_raises_step_underflow(field, x0, t0,
                                                            centers, message):
    # these raised a bare ValueError from Curve on repeated sample times
    with pytest.raises(tr.StepUnderflow, match=message):
        tr.integrate_trajectory(field, x0, t0, t0 + 1.0, obs_centers=centers)


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


def test_tolerance_halving_consistency():
    f = tr.linear(SINK_MATRIX)
    x0 = np.array([1.0, 1.0, 0.0])
    coarse_cfg = tr.IntegratorConfig(rel_tol=1e-7, abs_tol=1e-7, chord_tol=0.9)
    fine_cfg = tr.IntegratorConfig(rel_tol=5e-8, abs_tol=5e-8, chord_tol=0.9)
    coarse = tr.integrate_trajectory(f, x0, 0.0, 2.0, coarse_cfg)
    fine = tr.integrate_trajectory(f, x0, 0.0, 2.0, fine_cfg)
    # coarse local error per step is below abs_tol + rel_tol*|y|
    n_steps = coarse.n_samples - 1
    est = n_steps * (coarse_cfg.abs_tol + coarse_cfg.rel_tol)
    assert np.linalg.norm(coarse.x[-1] - fine.x[-1]) < 10 * est


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
# without bound on the circle itself, where no step tolerance bounds the
# distance to the exact orbit
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="at the "
                   "default chord_tol = abs_tol the cubic Hermite samples "
                   "between steps are off by more than the chord criterion "
                   "sees; the step ends are within 6e-10")
@pytest.mark.parametrize("f, x0, span, flow_from", [
    (tr.spiral2d(), [-0.2638486, 0.68933983], 4.942138009472403,
     _spiral_flow),
    (tr.twist3d(), [0.70727303, -0.98240944, -0.89482776],
     0.40276057118741887, _twist_flow),
], ids=["spiral2d", "twist3d"])
def test_default_settings_samples_on_exact_flow(f, x0, span, flow_from):
    _assert_on_exact_flow(f, np.array(x0), 0.0, span, tr.IntegratorConfig(),
                          flow_from)


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
    # it keeps failing the angle test, until the 24-level cap stops it
    center = np.zeros(2)
    c = tr.integrate_trajectory(tr.constant([1.0, 0.0]),
                                np.array([x_start, 0.0]), 0.0, 2.0,
                                tr.IntegratorConfig(chord_tol=0.5),
                                obs_centers=[center])
    assert c.n_samples == 29
    assert np.all(np.diff(c.t) > 0)
    a, b = c.x[:-1], c.x[1:]
    holds = (a[:, 0] <= 0.0) & (b[:, 0] >= 0.0)
    assert np.count_nonzero(holds) == 1
    assert float(np.diff(c.t)[holds][0]) <= 2.0 * 2.0 ** -24
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


def _dense_output_reference(ts, hs, ys, fs, centers, chord_tol):
    """The per-step depth-first subdivision the vectorized pass replaced,
    on the same arithmetic: one stack per step, emitting in time order."""
    times, points = [ts[0]], [ys[0]]
    for j, (t, h) in enumerate(zip(ts, hs)):
        rows = (ys[j:j + 1], fs[j:j + 1], ys[j + 1:j + 2], fs[j + 1:j + 2])
        stack = [(0.0, ys[j], 1.0, ys[j + 1], 0)]
        while stack:
            ta, ya, tb, yb, depth = stack.pop()
            split = False
            if depth < 24:
                tm = 0.5 * (ta + tb)
                ym = _hermite(*rows, np.array([h]), np.array([tm]))[0]
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
    got_t, got_x = _dense_output(ts, hs, ys, fs, centers, 1e-3, 10**6)
    assert len(want_t) > 4 * n
    assert np.array_equal(got_t, want_t) and np.array_equal(got_x, want_x)


def _reference_powers(f):
    """The polynomial form's scale ``s`` and stacked weights, written out:
    block q holds ``_POLY[0, q] N^q`` over ``_POLY[1, q] N^q``."""
    m = np.zeros((f.dim, f.dim)) if f.matrix is None else f.matrix
    big = float(np.max(np.abs(m)))
    s = 2.0 ** (math.frexp(big)[1] - 1) if big > 0 else 1.0
    npow = np.eye(f.dim)
    blocks = []
    for q in range(7):
        blocks += [_POLY[0, q] * npow, _POLY[1, q] * npow]
        npow = np.dot(m / s, npow)
    return s, np.concatenate(blocks)


def _stepping_reference(f, x0, t0, t1, cfg, centers):
    """The stepping loop written out plainly.  Closed-form fields run the
    stages on floats: each stage point is y plus the terms
    (h A[i, j]) k[j] over the nonzero weights, added one at a time from
    j = 0 up, and each error component h times the same sum of
    _E[j] k[j].  Matrix-backed fields evaluate the polynomial: the powers
    h (hs)^q times the block of ``_POLY[r, q] N^q f(y)``, built afresh on
    every attempt.  Returns the curve's (t, x), the number of step
    attempts and of rejected steps."""
    y = np.asarray(x0, dtype=np.float64).copy()
    chord_tol = cfg.abs_tol if cfg.chord_tol is None else float(cfg.chord_tol)
    rel_tol, abs_tol, dim = cfg.rel_tol, cfg.abs_tol, f.dim
    v = field_evaluator(f)
    poly = f.kind in ("linear", "affine", "constant")
    if poly:
        s, stacked = _reference_powers(f)
    span = t1 - t0
    h_min = 1e-14 * span
    h = min(cfg.max_step, span / 100.0)
    t = t0
    k = np.empty((7, dim))
    k[0] = v(y)
    ts, hs, ys, fs = [], [], [y], [k[0].copy()]
    attempts = rejects = 0
    while t < t1:
        h = min(h, cfg.max_step)
        last = t1 - (t + h) < h_min
        if last:
            h = t1 - t
        attempts += 1
        if poly:
            block = np.dot(stacked, k[0]).reshape(7, 2 * dim)
            powers = [h]
            for _ in range(6):
                powers.append(powers[-1] * (h * s))
            d = np.dot(np.array(powers), block)
            y_new, errs = y + d[:dim], d[dim:].tolist()
            k[6] = v(y_new)
        else:
            for i in range(1, 7):
                point = y.tolist()
                for j in range(i):
                    if _A[i, j]:
                        w = h * float(_A[i, j])
                        point = [p + w * d for p, d in zip(point, k[j])]
                y_new = np.array(point)
                k[i] = v(y_new)
            terms = [[float(e) * d for d in k[j]]
                     for j, e in enumerate(_E) if e]
            errs = terms[0]
            for term in terms[1:]:
                errs = [a + b for a, b in zip(errs, term)]
            errs = [h * e for e in errs]
        err2 = 0.0
        for e, a, b in zip(errs, y.tolist(), y_new.tolist()):
            q = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
            err2 += q * q
        err = math.sqrt(err2 / dim)
        if err <= 1.0:
            ts.append(t)
            hs.append(h)
            ys.append(y_new)
            fs.append(k[6].copy())
            t, y = t1 if last else t + h, y_new
            k[0] = k[6]
        else:
            rejects += 1
        if err > 0:
            factor = 0.9 * (err ** -0.2)
        elif err == 0:
            factor = 5.0
        else:
            factor = 0.2
        h *= min(5.0, max(0.2, factor))
    times, points = _dense_output(np.array(ts), np.array(hs), np.array(ys),
                                  np.array(fs), centers, chord_tol,
                                  cfg.max_samples)
    times[-1] = t1
    return times, points, attempts, rejects


def _stepping_cases():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((3, 3))
    sink_cfg = tr.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                   chord_tol=1e-4)
    return [
        ("sink", tr.linear(SINK_MATRIX), [1.0, 1.0, 0.0], 3.0, sink_cfg,
         [np.zeros(3)]),
        ("sink-no-centers", tr.linear(SINK_MATRIX), [0.3, -1.0, 0.7], 2.0,
         sink_cfg, []),
        ("affine", tr.affine(m / np.linalg.norm(m, 2), [0.5, -1.0, 0.2]),
         rng.standard_normal(3), 2.0,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4),
         [rng.standard_normal(3)]),
        ("constant", tr.constant([1.0, 0.0]), [-1.0, 0.01], 2.0,
         tr.IntegratorConfig(chord_tol=0.5), [np.zeros(2)]),
        ("spiral2d", tr.spiral2d(), [0.5, 0.0], 10.0,
         tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5),
         [np.zeros(2)]),
        ("spiral2d-max-step", tr.spiral2d(), [0.9, 0.1], 4.0,
         tr.IntegratorConfig(max_step=0.05, chord_tol=1e-3), []),
        ("twist3d", tr.twist3d(), [-0.05, 0.5, 0.0], 0.6,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6),
         [np.array([0.1, 0.5, 0.0])]),
    ]


@pytest.mark.parametrize("case", _stepping_cases(), ids=lambda c: c[0])
def test_stepping_matches_reference_loop(case, monkeypatch):
    _, f, x0, T, cfg, centers = case
    want_t, want_x, attempts, rejects = _stepping_reference(
        f, x0, 0.0, T, cfg, centers)
    calls = []

    def counting(formula_for):
        def counted_formula(spec):
            v = formula_for(spec)

            def counted(*p):
                calls.append(None)
                return v(*p)
            return counted
        return counted_formula

    # both functions that hand a stepper its field formula
    monkeypatch.setattr(flow, "field_evaluator", counting(field_evaluator))
    monkeypatch.setattr(flow, "_point_formula", counting(_point_formula))
    c = tr.integrate_trajectory(f, x0, 0.0, T, cfg, obs_centers=centers)
    assert np.array_equal(c.t, want_t) and np.array_equal(c.x, want_x)
    if f.kind in ("spiral2d", "twist3d"):
        assert len(calls) == 1 + 6 * attempts
    else:  # one evaluation per accepted step
        assert len(calls) == 1 + attempts - rejects


def test_stepping_reference_cases_reject_steps():
    # the bitwise comparison covers the rejection branch too
    rejects = [_stepping_reference(f, x0, 0.0, T, cfg, centers)[3]
               for _, f, x0, T, cfg, centers in _stepping_cases()]
    assert max(rejects) > 0


def _exact(x):
    """The small rational whose nearest double the tableau holds."""
    r = Fraction(x).limit_denominator(10**6)
    assert float(r) == x
    return r


def test_polynomial_coefficients_match_tableau():
    a = [[_exact(x) for x in row] for row in _A.tolist()]
    e = [_exact(x) for x in _E.tolist()]
    # f(y + d) = f(y) + M d, so stage i is k_i = sum_q alpha[i][q] (hM)^q f(y)
    alpha = []
    for i in range(7):
        coef = [Fraction(1)] + [Fraction(0)] * 7
        for j in range(i):
            for q in range(7):
                coef[q + 1] += a[i][j] * alpha[j][q]
        alpha.append(coef)
    inc = [sum(a[6][i] * alpha[i][q] for i in range(7)) for q in range(8)]
    err = [sum(e[i] * alpha[i][q] for i in range(7)) for q in range(8)]
    # seven coefficients hold both; the error of a 5(4) pair starts at h^5
    assert inc[6:] == [0, 0] and err[7] == 0
    assert err[:4] == [0, 0, 0, 0]
    assert inc[:6] == [Fraction(1, n) for n in (1, 2, 6, 24, 120, 600)]
    assert err[4:7] == [Fraction(-97, 120000), Fraction(13, 40000),
                        Fraction(-1, 24000)]
    assert [float(c) for c in inc[:7]] == _POLY[0].tolist()
    assert [float(c) for c in err[:7]] == _POLY[1].tolist()


def _stage_error_bound(m, b, y, h):
    """Running forward-error bound of one stage step: the rounding of
    the increment and of the error vector ``h (_E . k)``.

    Each stage point is y plus at most 6 products ``(h A[i, j]) k_j``
    added one at a time: each term takes at most 9 roundings (the
    weight, the product and 6 additions, and a tableau entry within
    half an ulp of its rational), and each slope is a dot product of
    ``dim`` terms plus the offset; an error in an earlier slope reaches
    a point through ``h |A|``, and an error in a point reaches its slope
    through ``|M|``."""
    eps, dim = np.finfo(np.float64).eps, len(y)
    am, ab = np.abs(m), np.abs(b)
    k, e_k = np.zeros((7, dim)), np.zeros((7, dim))
    for i in range(7):
        point = y + h * np.dot(_A[i, :i], k[:i])
        size = np.abs(y) + h * np.dot(np.abs(_A[i, :i]), np.abs(k[:i]))
        e_pt = 9 * eps * size + h * np.dot(np.abs(_A[i, :i]), e_k[:i])
        k[i] = np.dot(m, point) + b
        e_k[i] = (dim + 2) * eps * (am @ np.abs(point) + ab) + am @ e_pt
    ae = np.abs(_E)
    e_err = h * (9 * eps * np.dot(ae, np.abs(k)) + np.dot(ae, e_k))
    return e_pt, e_err + eps * np.abs(h * np.dot(_E, k))


def _poly_error_bound(m, b, y, h):
    """Rounding bound of one polynomial step, per row: the powers of N by
    at most 6 dot products of ``dim`` terms, one more for the slope
    block, at most 7 roundings in each power ``h (hs)^q`` and 8 in the
    final dot product of 7 terms, plus half an ulp in each ``_POLY``
    entry; the increment also rounds once when added to ``y``."""
    eps, dim = np.finfo(np.float64).eps, len(y)
    an = np.abs(m)
    f = np.abs(np.dot(m, y) + b)
    terms = np.zeros((2, dim))
    vec = f
    for q in range(7):
        terms += np.abs(_POLY[:, q])[:, None] * h ** (q + 1) * vec
        vec = an @ vec
    bound = (7 * dim + 17) * eps * terms
    bound[0] += eps * (np.abs(y) + terms[0])
    return bound


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("hm", [0.01, 0.3, 1.5])
def test_one_polynomial_step_matches_stages(seed, hm):
    # the two forms of one step from the same (y, h) agree to the sum of
    # their rounding bounds, fixed above from eps and the summed terms
    rng = np.random.default_rng(seed)
    m, b, y = (rng.standard_normal((3, 3)), rng.standard_normal(3),
               rng.standard_normal(3))
    f = tr.affine(m, b)
    h = hm / np.linalg.norm(m, np.inf)
    v = field_evaluator(f)
    _, stage_attempt, _ = flow._stage_stepper(
        lambda *p: v(np.array(p)).tolist(), y.tolist())
    _, poly_attempt, _ = flow._matrix_stepper(f, v, y)
    y_stage, e_stage = stage_attempt(h)
    y_poly, e_poly = poly_attempt(h)
    y_stage, y_poly = np.array(y_stage), np.array(y_poly)
    e_pt, e_err = _stage_error_bound(m, b, y, h)
    bound = _poly_error_bound(m, b, y, h)
    assert np.all(np.abs(y_stage - y_poly) <= e_pt + bound[0])
    assert np.all(np.abs(np.subtract(e_stage, e_poly)) <= e_err + bound[1])


@pytest.mark.parametrize("k", [-600, 0, 300, 600])
@pytest.mark.parametrize("kind", ["linear", "affine"])
def test_polynomial_steps_are_scale_invariant(k, kind):
    # 2^k M over T / 2^k: every scaling is by a power of two, so the same
    # steps are taken and the points agree bit for bit
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
