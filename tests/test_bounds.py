import math

import numpy as np
import pytest

import trajrot as tr

from conftest import SINK_BETA, SINK_MATRIX, X_AXIS


def test_stationary_spiral(spiral_traj):
    rep = tr.check_stationary_point_bound(tr.spiral2d(), np.zeros(2),
                                          spiral_traj)
    assert rep.theorem_id == "prop3_1"
    assert rep.satisfied
    assert abs(rep.measured - 10.0) < 0.01
    assert rep.inputs["K"] >= 1.0  # unit angular speed needs K >= 1
    assert rep.inputs["K_method"] == "sampled"


def test_stationary_requires_zero_field():
    with pytest.raises(tr.NotStationary):
        tr.check_stationary_point_bound(tr.spiral2d(), np.array([0.5, 0.0]),
                                        tr.twist_invariant_curve(0.1, 0.3))


def test_stationary_constant_curve_at_linear_fixed_point():
    f = tr.linear(-np.eye(2))
    t = np.linspace(0, 1, 10)
    c = tr.Curve(t, np.stack([np.full_like(t, 0.5), np.zeros_like(t)], axis=1))
    rep = tr.check_stationary_point_bound(f, np.zeros(2), c)
    assert rep.measured == 0.0 and rep.satisfied


def test_invariant_subspace_sink(sink_pair):
    f, t1, _ = sink_pair
    rep = tr.check_invariant_subspace_bound(f, X_AXIS, t1)
    assert rep.theorem_id == "prop3_2"
    assert rep.satisfied
    assert abs(rep.measured - SINK_BETA * 3.0) < 1e-3
    assert rep.bound == pytest.approx(math.sqrt(5) * 3.0)


def test_invariant_subspace_constant_field():
    f = tr.constant([1.0, 0.0, 0.0])
    c = tr.integrate_trajectory(f, np.array([0.0, 1.0, 0.0]), 0.0, 2.0,
                                tr.IntegratorConfig(chord_tol=0.5))
    rep = tr.check_invariant_subspace_bound(f, X_AXIS, c)
    assert rep.measured < 1e-9 and rep.satisfied


def test_overflowing_field_not_invariant():
    # v2 = 1e308 * x1 is far from zero on the x1-axis, but overflows to a
    # NaN residual at the probes with |x1| > 1.8; NaN must not pass
    f = tr.linear([[1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    x1 = np.linspace(-2.5, 2.5, 11)
    c = tr.Curve(np.linspace(0.0, 1.0, 11),
                 np.stack([x1, np.ones(11), np.zeros(11)], axis=1))
    with pytest.warns(RuntimeWarning), \
            pytest.raises(tr.NotInvariant, match="nan"):
        tr.check_invariant_subspace_bound(f, X_AXIS, c)


def test_twist_axis_not_invariant():
    cfg = tr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, chord_tol=1e-6)
    c = tr.integrate_trajectory(tr.twist3d(), np.array([0.1, 0.5, 0.0]),
                                0.0, 0.4, cfg)
    with pytest.raises(tr.NotInvariant):
        tr.check_invariant_subspace_bound(tr.twist3d(), X_AXIS, c)


def test_any_point_flyby():
    c = tr.integrate_trajectory(tr.constant([1.0, 0.0, 0.0]),
                                np.array([-0.5, 0.0, 0.0]), 0.0, 1.0,
                                tr.IntegratorConfig(chord_tol=1e-6))
    x0 = np.array([0.0, 1e-4, 0.0])
    rep = tr.check_any_point_bound(c, x0, K=0.0)
    assert rep.satisfied
    assert rep.measured < math.pi
    assert rep.measured > math.pi - 1e-3
    assert rep.bound == 4.0


def test_any_point_spiral_nonstationary(spiral_traj):
    k, _ = tr.lipschitz_for(tr.spiral2d(), spiral_traj.x,
                            [np.array([0.9, 0.0])])
    rep = tr.check_any_point_bound(spiral_traj, np.array([0.9, 0.0]), K=k)
    assert rep.satisfied


def test_any_point_margin_vs_full_bound_monotone(sink_pair):
    _, t1, _ = sink_pair
    x0 = np.array([0.5, -0.8, 0.3])
    k = tr.fields.operator_norm(SINK_MATRIX)
    full_bound = 4.0 + k * 3.0
    prev_margin = math.inf
    for t_end in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        rep = tr.check_any_point_bound(t1, x0, window=(0.0, t_end), K=k)
        margin = full_bound - rep.measured
        assert margin <= prev_margin + rep.error_estimates["rotation"] + 1e-12
        prev_margin = margin


def test_pair_bound_sink(sink_pair):
    f, t1, t2 = sink_pair
    k, _ = tr.lipschitz_for(f, t1.x)
    rep = tr.check_pair_bound(t1, t2, K=k)
    assert rep.theorem_id == "thm3_8" and rep.satisfied
    # the pair winds together at roughly rate beta
    assert 0.3 < rep.measured < 1.5


def test_pair_bound_parallel_constant():
    f = tr.constant([1.0, 0.0, 0.0])
    cfg = tr.IntegratorConfig(chord_tol=1e-4)
    a = tr.integrate_trajectory(f, np.array([0.0, 0.0, 0.0]), 0.0, 2.0, cfg)
    b = tr.integrate_trajectory(f, np.array([0.0, 1.0, 0.0]), 0.0, 2.0, cfg)
    rep = tr.check_pair_bound(a, b, K=0.0)
    assert rep.measured < 1e-9 and rep.satisfied


def test_pair_bound_twist_pair(twist_pair):
    w1, w2 = twist_pair
    k, _ = tr.lipschitz_for(tr.twist3d(), np.concatenate([w1.x, w2.x]))
    rep = tr.check_pair_bound(w1, w2, K=k)
    assert rep.measured < 1e-4 and rep.satisfied


def test_pair_bound_refined(sink_pair):
    f, t1, t2 = sink_pair
    k, _ = tr.lipschitz_for(f, t1.x)
    rep = tr.check_pair_bound_refined(t1, t2, K=k)
    assert rep.theorem_id == "cor3_10" and rep.satisfied
    assert rep.inputs["R1"] > 0 and rep.inputs["R2"] > 0
    # point rotations are themselves bounded by the universal point bound
    assert rep.inputs["R1"] <= 4.0 + k * 3.0 + 1e-6


def test_refined_with_fallback_matches_direct_bound(sink_pair):
    f, t1, t2 = sink_pair
    k, _ = tr.lipschitz_for(f, t1.x)
    lhs, rhs = tr.pair_bound_fallback_identity(k, 3.0, 3.0)
    assert abs(lhs - rhs) < 1e-12


def test_refined_bound_parallel_lines_flyby_geometry():
    f = tr.constant([1.0, 0.0, 0.0])
    cfg = tr.IntegratorConfig(chord_tol=1e-6)
    a = tr.integrate_trajectory(f, np.array([-1.0, 0.0, 0.0]), 0.0, 2.0, cfg)
    b = tr.integrate_trajectory(f, np.array([-1.0, 0.05, 0.0]), 0.0, 2.0, cfg)
    rep = tr.check_pair_bound_refined(a, b, K=1e-9)
    assert rep.inputs["R1"] <= math.pi + 0.01
    assert rep.measured < 1e-6


def test_log_sink_reference_shells():
    x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    implied = []
    for k in (1, 2):
        rep = tr.check_log_sink_bound(SINK_MATRIX, x0s, R=1.0, r=math.exp(-k))
        assert rep.theorem_id == "thm3_10_log" and rep.satisfied
        implied.append(rep.inputs["implied_C"])
        assert rep.inputs["T1"] == pytest.approx(k, abs=0.05)
    assert implied[1] == pytest.approx(implied[0], rel=0.5)


def test_log_sink_no_rotation_matrix():
    x0s = (np.array([1.0, 0.2, 0.0]), np.array([0.3, -1.0, 0.1]))
    rep = tr.check_log_sink_bound(-np.eye(3), x0s, R=1.0, r=0.3)
    assert rep.measured < 1e-6 and rep.satisfied


def test_log_sink_thin_shell_small_rotation():
    x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    wide = tr.check_log_sink_bound(SINK_MATRIX, x0s, R=1.0, r=math.exp(-1))
    thin = tr.check_log_sink_bound(SINK_MATRIX, x0s, R=1.0, r=0.9)
    assert thin.measured < 0.25 * wide.measured


SINK_X0S = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))


def test_log_sink_shells_match_single_shells():
    single = {k: tr.check_log_sink_bound(SINK_MATRIX, SINK_X0S, R=1.0,
                                         r=math.exp(-k)).to_dict()
              for k in (1, 2, 3, 4)}
    for ks in ((1, 2, 3, 4), (3, 1, 3, 2)):
        reps = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                        [math.exp(-k) for k in ks])
        assert [rep.to_dict() for rep in reps] == [single[k] for k in ks]
        assert reps.satisfied


def test_log_sink_shells_integrate_each_start_once(monkeypatch):
    calls = []

    def counting(*args, **kw):
        calls.append(args[1])
        return tr.integrate_trajectory(*args, **kw)

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", counting)
    reps = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                    [math.exp(-k) for k in (1, 2, 3, 4)])
    assert len(reps) == 4 and len(calls) == 2


@pytest.mark.parametrize("radii", [[], [1.0], [1.5], [0.0], [-0.1],
                                   [0.5, 1.0], [0.5, math.nan]])
def test_log_sink_shells_reject_bad_radii(radii):
    with pytest.raises(ValueError):
        tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0, radii)


def test_log_sink_eigenvalue_guard():
    x0s = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    saddle = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(tr.EigenvalueSignError):
        tr.check_log_sink_bound(saddle, x0s, R=1.0, r=0.5)


def test_report_json_schema(sink_pair):
    f, t1, t2 = sink_pair
    k, _ = tr.lipschitz_for(f, t1.x)
    rep = tr.check_pair_bound(t1, t2, K=k)
    d = rep.to_dict()
    assert list(d.keys()) == ["theorem_id", "measured", "bound", "margin",
                              "satisfied", "inputs", "error_estimates"]
    assert d["margin"] == d["bound"] - d["measured"]
