import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

import trajrot as tr
from trajrot.curves import segment_angles, subtended_angles
from trajrot.flow import _dense_output, _hermite

from conftest import SINK_MATRIX, sink_closed_form


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
    back = tr.integrate_trajectory(tr.negated(f), fwd.x[-1], 0.0, 2.0, cfg)
    assert np.linalg.norm(back.x[-1] - x0) < 100 * cfg.abs_tol


def test_obs_center_angle_refinement():
    # motion past the origin: every output segment must subtend <= 0.05 rad
    f = tr.constant([1.0, 0.0])
    x0 = np.array([-1.0, 0.01])
    center = np.zeros(2)
    c = tr.integrate_trajectory(f, x0, 0.0, 2.0,
                                tr.IntegratorConfig(chord_tol=0.5),
                                obs_centers=[center])
    assert float(np.max(subtended_angles(c.x, center))) <= 0.05 + 1e-12


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
    return [
        ("spiral2d", tr.spiral2d(), np.array([0.5, 0.0]), 10.0,
         tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)),
        ("twist3d", tr.twist3d(), np.array([0.05, 0.5, 0.0]), 0.15,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6)),
        ("linear3d", lin, rng.standard_normal(3), 5.0,
         tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4)),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_every_sample_on_scipy_path(case):
    _, f, x0, T, cfg = case
    c = tr.integrate_trajectory(f, x0, 0.0, T, cfg)
    sol = solve_ivp(lambda t, x: tr.eval_field(f, x), (0.0, T), x0,
                    method="DOP853", dense_output=True, rtol=1e-13, atol=1e-13)
    want = sol.sol(c.t).T
    step_tol = cfg.abs_tol + cfg.rel_tol * np.max(np.abs(want), axis=1)
    dist = np.linalg.norm(c.x - want, axis=1)
    assert np.all(dist <= cfg.chord_tol + 100 * step_tol)
    assert c.t[0] == 0.0 and c.t[-1] == T and np.all(np.diff(c.t) > 0)


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
        assert float(np.max(subtended_angles(both.x, center))) <= 0.05


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
