"""Acceptance suite: every criterion the library must meet, with its
stated tolerance and runtime budget.  Each test prints one PASS line so a
verbose run doubles as a checklist."""

import math
import time

import numpy as np
import pytest

import trajrot as tr

from conftest import (SINK_MATRIX, X_AXIS, Z_AXIS, axis_segment, circle3d,
                      helix_curve, pair_bound_fallback_identity,
                      random_rotation, resample, transform, translate)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s "
                  f"of {self.seconds}s budget)")
            assert elapsed < self.seconds, f"{self.name} exceeded time budget"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.1f}s")
        return False


def test_01_circle_line_linking_value():
    with Budget("01 circle/line linking", 5):
        circle = circle3d(n=1501)
        line = tr.Curve([-100.0, 100.0],
                        [[0.0, 0.0, -100.0], [0.0, 0.0, 100.0]])
        rr = tr.gauss_rotation_pair(circle, line, "signed")
        assert 0.999 <= rr.value <= 1.001


def test_02_hopf_integer_snap():
    with Budget("02 Hopf integer snap", 5):
        c1 = circle3d(n=801)
        c2 = circle3d(n=801, center=(1.0, 0.0, 0.0), plane="xz", phase=0.37)
        lk = tr.linking_coefficient(c1, c2)
        assert lk.residual < 0.02
        assert abs(lk.nearest_integer) == 1
        assert tr.topological_linking_planar(c1, c2) == lk.nearest_integer


def test_03_line_projection_consistency():
    with Budget("03 line/projection consistency", 10):
        helix = helix_curve(turns=3.0, n=1200)
        proj = tr.rotation_around_subspace(helix, Z_AXIS, "signed")
        # the whole-line Gauss value equals the projection in closed form;
        # the pair kernel on the segment |z| <= 1000 is the independent check
        seg = tr.gauss_rotation_pair(axis_segment(Z_AXIS, 1000.0), helix)
        assert abs(seg.value - proj.value) < 5e-3


def test_04_spiral_unit_rate_and_point_bound():
    with Budget("04 spiral unit rate + point bound", 5):
        cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
        traj = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                       0.0, 10.0, cfg,
                                       obs_centers=[np.zeros(2)])
        rot = tr.absolute_rotation_point(traj, np.zeros(2))
        assert abs(rot.value - 10.0) / 10.0 < 1e-3
        k, inputs = tr.lipschitz_for(tr.spiral2d(), traj.x, [np.zeros(2)])
        # the exact constant, |J| = sqrt(2) at the sink, rounded up
        assert inputs["K_method"] == "analytic"
        assert math.sqrt(2) <= k < math.sqrt(2) * (1 + 1e-12)
        rep = tr.check_any_point_bound(traj, np.zeros(2), K=k, guard=1e-9)
        assert rep.satisfied


def test_05_twist_blowup_table():
    with Budget("05 twist blow-up table", 10):
        for a in (0.1, 0.05, 0.025):
            curve = tr.twist_invariant_curve(a, 0.2)
            rr = tr.rotation_around_subspace(curve, X_AXIS, "absolute",
                                             guard=0.0)
            want = 1.0 / a - 5.0
            assert abs(rr.value - want) / want < 0.01
            assert curve.duration < 0.2  # unbounded winding, bounded time


def test_06_twist_zero_mutual_rotation(twist_pair):
    with Budget("06 twist zero mutual rotation", 20):
        w1, w2 = twist_pair
        signed = tr.gauss_rotation_pair(w1, w2, "signed")
        absolute = tr.gauss_rotation_pair(w1, w2, "absolute")
        assert abs(signed.value) < 1e-4
        assert absolute.value < 1e-4


def test_07_point_bound_random_suite():
    with Budget("07 universal point bound suite", 60):
        rng = np.random.default_rng(2024)
        cfg = tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, chord_tol=1e-4)
        passed = 0
        for _ in range(50):
            m = rng.normal(size=(3, 3)) * 0.6
            f = tr.linear(m)
            k = tr.fields.operator_norm(m)
            x_start = rng.normal(size=3)
            T = rng.uniform(0.5, 3.0)
            traj = tr.integrate_trajectory(f, x_start, 0.0, T, cfg)
            for _ in range(20):  # find an observation point off the path
                x0 = rng.normal(size=3) * 1.5
                try:
                    rep = tr.check_any_point_bound(traj, x0, K=k)
                except tr.DistanceTooSmall:
                    continue
                break
            else:
                raise AssertionError("no valid observation point found")
            err = rep.error_estimates["rotation"]
            assert rep.measured <= 4.0 + k * T + 3.0 * err
            passed += 1
        assert passed == 50


def _random_sink(rng):
    l1 = -rng.uniform(0.5, 2.0)
    alpha = -rng.uniform(0.5, 2.0)
    beta = rng.uniform(0.5, 3.0)
    m = np.array([[l1, 0.0, 0.0],
                  [0.0, alpha, -beta],
                  [0.0, beta, alpha]])
    return m, beta


def test_08_pair_bound_suite():
    with Budget("08 pair bound suite", 60):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m, beta = _random_sink(rng)
            f = tr.linear(m)
            k = tr.fields.operator_norm(m)
            T = rng.uniform(1.5, 2.5)
            cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                      max_step=0.02 / beta, chord_tol=1e-5)
            x1 = rng.normal(size=3)
            x2 = rng.normal(size=3)
            t1 = tr.integrate_trajectory(f, x1, 0.0, T, cfg)
            t2 = tr.integrate_trajectory(f, x2, 0.0, T, cfg)
            direct = tr.check_pair_bound(t1, t2, K=k)
            refined = tr.check_pair_bound_refined(t1, t2, K=k)
            assert direct.satisfied and refined.satisfied
            lhs, rhs = pair_bound_fallback_identity(k, T, T)
            assert abs(lhs - rhs) < 1e-12


def test_09_log_sink_growth_shape():
    with Budget("09 log-squared sink growth", 60):
        x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
        norm_l = tr.fields.operator_norm(SINK_MATRIX)
        ks = np.arange(1, 5, dtype=float)
        measured = []
        implied = []
        for k in ks:
            rep = tr.check_log_sink_shells(SINK_MATRIX, x0s, 1.0,
                                           (math.exp(-k),))[0]
            assert rep.satisfied
            measured.append(rep.measured)
            implied.append(rep.inputs["implied_C"])
        # growth fits a*k^2 + b*k with a meaningful quadratic part
        design = np.stack([ks ** 2, ks], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.array(measured), rcond=None)
        fit = design @ coef
        assert np.max(np.abs(fit - measured)) < 0.1 * max(measured)
        # the implied constant is stable across shells: every shell's
        # value within +-50% of the mean
        mean_c = float(np.mean(implied))
        assert all(abs(c - mean_c) <= 0.5 * mean_c for c in implied)
        # and a quadratic-in-k envelope with the largest implied constant
        # dominates every shell
        cmax = max(implied)
        assert all(m <= cmax * norm_l * k * k + 1e-12
                   for m, k in zip(measured, ks))


def test_10_circle_witnesses():
    with Budget("10 circle witnesses", 5):
        t = np.linspace(0, 1, 4001)
        phi = 10 * math.pi * t
        loop = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1),
                        closed=True)
        w = tr.find_circle_witness(loop, 4.5)
        assert w.achieved >= w.threshold - 1e-9
        assert w.v_proj_1 * w.v_proj_2 < 0

        t2 = np.linspace(0, 1, 6001)
        half = 15 * math.pi
        ang = np.where(t2 <= 0.5, 2 * half * t2, half - 2 * half * (t2 - 0.5))
        tri = tr.Curve(t2, np.stack([np.cos(ang), np.sin(ang)], axis=1))
        w2 = tr.find_circle_witness(tri, 5.0)
        assert w2.achieved >= w2.threshold - 1e-9

        short = tr.Curve(t[:301],
                         np.stack([np.cos(2 * math.pi * t[:301] / t[300]),
                                   np.sin(2 * math.pi * t[:301] / t[300])],
                                  axis=1))
        with pytest.raises(tr.PreconditionLength):
            tr.find_circle_witness(short, 5.0)


def test_11_crofton_estimator_coverage():
    with Budget("11 Crofton estimator coverage", 30):
        th = np.linspace(0, 2 * math.pi, 1001)
        gc = tr.SphericalCurve(tr.Curve(
            np.linspace(0, 1, 1001),
            np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1),
            closed=True))
        hits = 0
        for seed in range(40):
            est = tr.crofton_length_estimate(gc, m=10_000, seed=seed)
            if abs(est.value - 2 * math.pi) <= 4 * est.stderr:
                hits += 1
        assert hits >= 38


def test_12_crofton_constants():
    with Budget("12 Crofton constants", 5):
        c3 = tr.crofton_constants(3)
        c2 = tr.crofton_constants(2)
        assert abs(c3.C_n / (8 * math.pi) - 1.0) < 1e-12
        assert abs(c2.C_n / (math.pi ** 2) - 1.0) < 1e-12


def test_13_invariance_suite():
    with Budget("13 invariance suite", 60):
        # monotone reparametrization
        helix = helix_curve(turns=2.0, n=1000)
        x0 = np.array([0.0, 0.0, -1.0])
        a = tr.absolute_rotation_point(helix, x0)
        b = tr.absolute_rotation_point(resample(helix, 500), x0)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

        # simultaneous rigid motion
        rng = np.random.default_rng(77)
        q = random_rotation(rng)
        shift = np.array([1.0, -0.5, 0.25])
        c1 = circle3d(n=501)
        c2 = translate(helix_curve(turns=1.5, n=501), [0.0, 0.0, 0.3])
        g = tr.gauss_rotation_pair(c1, c2, "signed")
        gm = tr.gauss_rotation_pair(transform(c1, q, shift),
                                    transform(c2, q, shift), "signed")
        assert abs(g.value - gm.value) < 1e-9
        r = tr.absolute_rotation_point(c2, x0)
        rm = tr.absolute_rotation_point(transform(c2, q, shift),
                                        q @ x0 + shift)
        assert abs(r.value - rm.value) < 1e-9

        # symmetry of the pair integrand under swapping
        assert abs(tr.gauss_rotation_pair(c2, c1, "signed").value
                   - g.value) < 1e-12

        # |signed| <= absolute in both settings
        ga = tr.gauss_rotation_pair(c1, c2, "absolute")
        assert abs(g.value) <= ga.value + g.error_estimate + ga.error_estimate
        th = np.linspace(0, 2 * math.pi * 1.7, 600)
        plane_curve = tr.Curve(np.linspace(0, 1, 600),
                               np.stack([0.4 + np.cos(th), np.sin(th)],
                                        axis=1))
        w = tr.signed_winding_plane(plane_curve, np.zeros(2))
        ar = tr.absolute_rotation_point(plane_curve, np.zeros(2))
        assert 2 * math.pi * abs(w.value) <= ar.value + \
            2 * math.pi * w.error_estimate + ar.error_estimate

        # deformation family with fixed endpoints: signed pair rotation
        # is constant
        base = circle3d(n=501)
        t = np.linspace(0.0, 1.0, 301)
        bump = np.sin(math.pi * t)
        vals, errs = [], []
        for i in range(10):
            amp = np.random.default_rng(500 + i).uniform(-0.2, 0.2, size=2)
            pts = np.stack([0.3 + amp[0] * bump, amp[1] * bump,
                            -1.0 + 2.0 * t], axis=1)
            arc = tr.Curve(t, pts)
            rr = tr.gauss_rotation_pair(base, arc, "signed")
            vals.append(rr.value)
            errs.append(rr.error_estimate)
        assert max(vals) - min(vals) <= 2 * max(errs) + 1e-6
