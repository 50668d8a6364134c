import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import trajrot as tr
from trajrot import bounds
from trajrot.bounds import _clip_to_shell, _max_point_rotation
from trajrot.cli import main

from conftest import (SINK_BETA, SINK_MATRIX, X_AXIS, helix_curve,
                      kernel_passes)


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


def test_stationary_rejects_nan_speed():
    # v(0, 1e200) overflows to [nan, inf]: not a stationary point
    c = tr.Curve([0, 1, 2], [[1, 0], [0, 1], [-1, 0]])
    with pytest.warns(RuntimeWarning), pytest.raises(tr.NotStationary):
        tr.check_stationary_point_bound(tr.spiral2d(), [0.0, 1e200], c)


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


def test_invariant_point_matches_stationary_point(spiral_traj):
    # a 0-dimensional subspace is a point: at the spiral's stationary
    # origin, prop3_2 measures and bounds what prop3_1 does
    f = tr.spiral2d()
    point = tr.AffineSubspace(np.zeros(2))
    sub = tr.check_invariant_subspace_bound(f, point, spiral_traj, seed=3)
    stat = tr.check_stationary_point_bound(f, np.zeros(2), spiral_traj,
                                           seed=3)
    assert sub.theorem_id == "prop3_2" and sub.satisfied
    assert sub.inputs["invariance_residual"] == 0.0
    assert (sub.measured, sub.bound, sub.inputs["K"], sub.error_estimates) \
        == (stat.measured, stat.bound, stat.inputs["K"],
            stat.error_estimates)
    with pytest.raises(tr.NotInvariant):
        tr.check_invariant_subspace_bound(
            f, tr.AffineSubspace(np.array([0.1, 0.0])), spiral_traj)


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
        rep = tr.check_any_point_bound(tr.slice_time(t1, 0.0, t_end), x0,
                                       K=k)
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


def test_refined_raises_on_a_grid_point_on_the_curve(monkeypatch):
    """Two curves that meet at one point, the last sample of one and the
    first of the other, which is on both cor3_10 grids.  The Gauss pass
    rejects them first; with a stand-in that measures the pair, the R
    grid raises DistanceTooSmall instead of bounding R by 4 + K*T."""
    c1 = helix_curve(turns=1.0, n=400)
    s = np.linspace(0.0, 1.0, 50)
    c2 = tr.Curve(2.0 * s, c1.x[0] + np.outer(1.0 - s, [0.0, 0.0, -1.0]))
    with pytest.raises(tr.CurvesTooClose):
        tr.check_pair_bound_refined(c1, c2, K=0.7)
    monkeypatch.setattr(bounds, "gauss_rotation_pair", lambda a, b, mode:
                        tr.RotationResult(0.0, 0.0, "gauss_turns"))
    with pytest.raises(tr.DistanceTooSmall):
        tr.check_pair_bound_refined(c1, c2, K=0.7)


def test_max_point_rotation_error_covers_every_point(monkeypatch):
    """R's error is that of the entry that sets R, widened to reach every
    measured value + error (here a runner-up's wider bar), in every grid
    order."""
    value = np.array([5.0, 4.9, 3.0])
    err = np.array([1e-6, 0.5, 0.1])
    rmin = np.ones(3)
    c = helix_curve()
    for order in itertools.permutations(range(3)):
        order = list(order)
        monkeypatch.setattr(bounds, "_absolute_rotations", lambda c, g:
                            (value[order], err[order], rmin[order]))
        assert _max_point_rotation(c, np.zeros((3, 3))) \
            == (5.0, (4.9 + 0.5) - 5.0)


def test_max_point_rotation_is_the_largest_of_single_rotations():
    c = helix_curve(turns=2.0, n=600)
    grid = np.array([[0.0, 0.0, 0.5], [1.5, 0.0, 1.0], [0.0, -2.0, 0.2],
                     [0.3, 0.3, 1.9]])
    single = [tr.absolute_rotation_point(c, q) for q in grid]
    best = max(single, key=lambda rr: rr.value)
    for order in itertools.permutations(range(len(grid))):
        r, e = _max_point_rotation(c, grid[list(order)])
        assert (r, e) == (best.value, best.error_estimate)
    assert all(rr.value + rr.error_estimate <= r + e for rr in single)


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
        rep = tr.check_log_sink_shells(SINK_MATRIX, x0s, 1.0,
                                       (math.exp(-k),))[0]
        assert rep.theorem_id == "thm3_10_log" and rep.satisfied
        implied.append(rep.inputs["implied_C"])
        assert rep.inputs["T1"] == pytest.approx(k, abs=0.05)
    assert implied[1] == pytest.approx(implied[0], rel=0.5)


def test_log_sink_no_rotation_matrix():
    x0s = (np.array([1.0, 0.2, 0.0]), np.array([0.3, -1.0, 0.1]))
    rep = tr.check_log_sink_shells(-np.eye(3), x0s, 1.0, (0.3,))[0]
    assert rep.measured < 1e-6 and rep.satisfied


def test_log_sink_thin_shell_small_rotation():
    x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    wide = tr.check_log_sink_shells(SINK_MATRIX, x0s, 1.0, (math.exp(-1),))[0]
    thin = tr.check_log_sink_shells(SINK_MATRIX, x0s, 1.0, (0.9,))[0]
    assert thin.measured < 0.25 * wide.measured


SINK_X0S = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))


def test_log_sink_shells_match_single_shells():
    # The shells share one kernel pass, so each sums its pairs in another
    # order (and about another center) than its own one-shell call: the
    # measurement may move within the two passes' reported roundoff
    # terms, and everything else stays exact.
    single = {}
    for k in (1, 2, 3, 4):
        with kernel_passes() as passes:
            rep = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                           (math.exp(-k),))[0]
        single[k] = rep, passes[0][0][1], passes[1][0][1]
    scale = 4 * math.pi
    for ks in ((1, 2, 3, 4), (3, 1, 3, 2)):
        with kernel_passes() as passes:
            reps = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                            [math.exp(-k) for k in ks])
        assert reps.satisfied and len(reps) == len(ks)
        for n, (k, rep) in enumerate(zip(ks, reps)):
            one, ro1, ro1_dec = single[k]
            ro, ro_dec = passes[0][n][1], passes[1][n][1]
            assert (rep.theorem_id, rep.bound, rep.satisfied) \
                == (one.theorem_id, one.bound, one.satisfied)
            inputs = dict(rep.inputs)
            one_inputs = dict(one.inputs)
            implied, one_implied = (d.pop("implied_C")
                                    for d in (inputs, one_inputs))
            assert inputs == one_inputs
            tol = (ro + ro1) / scale
            assert abs(rep.measured - one.measured) <= tol
            assert abs(rep.margin - one.margin) <= tol
            per_turn = abs(inputs["ell"]) / (inputs["norm_L"]
                                             * inputs["log_ratio"] ** 2)
            assert abs(implied - one_implied) <= per_turn * tol
            assert rep.error_estimates.keys() == {"rotation"}
            assert abs(rep.error_estimates["rotation"]
                       - one.error_estimates["rotation"]
                       - (ro - ro1) / scale) \
                <= (ro + ro1 + ro_dec + ro1_dec) / scale


@pytest.mark.parametrize("ks", [(1,), (2, 1), (1, 2, 3, 4)])
def test_log_sink_shells_make_two_kernel_passes(ks):
    with kernel_passes() as passes:
        reps = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                        [math.exp(-k) for k in ks])
    assert len(reps) == len(ks)
    assert [len(cuts) for cuts in passes] == [len(ks), len(ks)]


def test_log_sink_shells_integrate_each_start_once(monkeypatch):
    calls = []

    def counting(*args, **kw):
        calls.append(args[3])
        return tr.integrate_trajectory(*args, **kw)

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", counting)
    reps = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0,
                                    [math.exp(-k) for k in (1, 2, 3, 4)])
    assert len(reps) == 4 and len(calls) == 2
    # SINK_MATRIX's symmetric part is -I, so mu = -1: both starts, of
    # norm sqrt(2), run to the certified end time of the smallest shell
    t_end = math.log(math.sqrt(2.0) / math.exp(-4)) + 0.1
    assert calls == [t_end, t_end]


def test_log_sink_shells_match_the_old_horizon(monkeypatch):
    """The shells, clipped from trajectories that end at the certified
    time, are bit for bit those clipped from trajectories integrated to
    the former horizon (log(start / r_min) + 4) / |ell|, with the
    max_step that horizon gave: the step sequence does not depend on
    the end time until the last step."""
    radii = [math.exp(-k) for k in (1, 2, 3, 4)]
    new = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0, radii)
    norm_l = tr.fields.operator_norm(SINK_MATRIX)
    old_end = math.log(math.sqrt(2.0) / min(radii)) + 4.0  # |ell| = 1
    ends = []

    def to_old_horizon(f, x0, t0, t1, cfg):
        ends.append(t1)
        cfg = dataclasses.replace(cfg, max_step=min(0.02 / norm_l,
                                                    old_end / 50))
        return tr.integrate_trajectory(f, x0, t0, old_end, cfg)

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", to_old_horizon)
    old = tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0, radii)
    assert len(ends) == 2 and all(t1 < old_end - 3.5 for t1 in ends)
    assert len(new) == len(old) == 4
    for a, b in zip(new, old):
        assert repr((a.measured, a.error_estimates, a.inputs)) \
            == repr((b.measured, b.error_estimates, b.inputs))


class _Integrated(Exception):
    """Stops a check at its first integration."""


def _end_time(L, x0s, radii):
    """The time ``check_log_sink_shells`` integrates its starts to, read
    from its first integration call, which is not run."""
    seen = []

    def stop(f, x0, t0, t1, cfg):
        seen.append(t1)
        raise _Integrated

    with mock.patch.object(tr.bounds, "integrate_trajectory", stop), \
            pytest.raises(_Integrated):
        tr.check_log_sink_shells(L, x0s, 1.0, radii)
    return seen[0]


@st.composite
def _stable_sinks(draw):
    """A random L in 2-4 dimensions shifted so that its logarithmic norm
    mu is -delta < 0, two starts outside the unit sphere and one to
    three radii."""
    dim = draw(st.integers(2, 4))
    entries = st.floats(-3.0, 3.0)
    a = np.array(draw(st.lists(entries, min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    delta = draw(st.floats(0.01, 3.0))
    shift = np.linalg.eigvalsh(0.5 * (a + a.T))[-1] + delta
    L = a - shift * np.eye(dim)
    x0s = []
    for _ in range(2):
        v = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
        if not np.linalg.norm(v) > 1e-3:
            v = np.eye(dim)[0]
        x0s.append(v / np.linalg.norm(v) * draw(st.floats(1.0, 5.0)))
    radii = draw(st.lists(st.floats(1e-4, 0.99), min_size=1, max_size=3))
    return L, x0s, radii


@given(_stable_sinks())
@settings(max_examples=200, deadline=None)
def test_log_sink_end_time_is_past_the_smallest_shell(case):
    """With mu < 0, |expm(L t) x0| <= e^(mu t) |x0| puts both exact
    trajectories inside r_min e^-0.1 by the end time (up to the
    rounding of expm, log and the norms)."""
    L, x0s, radii = case
    mu = np.linalg.eigvalsh(0.5 * (L + L.T))[-1]
    assert mu < 0
    t_end = _end_time(L, x0s, radii)
    assert t_end == (math.log(max(map(np.linalg.norm, x0s)) / min(radii))
                     + 0.1) / -mu
    inside = min(radii) * math.exp(-0.1)
    for x0 in x0s:
        reached = np.linalg.norm(scipy.linalg.expm(L * t_end) @ x0)
        assert reached <= inside * (1 + 1e-12)


def test_log_sink_shells_fall_back_where_the_norm_grows(monkeypatch):
    """A stable non-normal L whose norm grows at first (mu = 0.5 > 0)
    certifies no end time: the starts run to the fallback
    (log(start / r_min) + 4) / |ell| and the shells are measured."""
    L = np.array([[-1.0, 3.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
    assert np.linalg.eigvalsh(0.5 * (L + L.T))[-1] == pytest.approx(0.5)
    x0s = (np.array([1.0, 1.0, 0.5]), np.array([1.0, -1.0, 0.5]))
    radii = (0.5, 0.2)
    ends = []

    def recording(*args, **kw):
        ends.append(args[3])
        return tr.integrate_trajectory(*args, **kw)

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", recording)
    reps = tr.check_log_sink_shells(L, x0s, 1.0, radii)
    t_end = math.log(1.5 / 0.2) + 4.0  # |x0| = 1.5, ell = -1
    assert ends == [pytest.approx(t_end, rel=1e-15)] * 2
    assert len(reps) == 2
    for r, rep in zip(radii, reps):
        assert rep.inputs["r"] == r and rep.inputs["ell"] == -1.0
        assert math.isfinite(rep.measured) and rep.measured > 0


def test_log_sink_shells_double_the_fallback_end_time(monkeypatch):
    """A strongly non-normal L (mu > 0) keeps both starts outside r_min
    past the fallback end time, (log(start / r_min) + 4) / |ell| = 10.12:
    each is integrated again to twice that time, with the same max_step,
    and both shells are measured."""
    L = np.array([[-0.5, 10.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -1.0]])
    x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.3]))
    t_end = (math.log(float(np.linalg.norm(x0s[1])) / 0.5) + 4.0) / 0.5
    # the exact flow is still outside r_min at the fallback end time
    assert np.linalg.norm(scipy.linalg.expm(L * t_end) @ x0s[0]) > 0.5
    runs = []

    def recording(*args, **kw):
        runs.append((args[3], args[4].max_step))
        return tr.integrate_trajectory(*args, **kw)

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", recording)
    (rep,) = tr.check_log_sink_shells(L, x0s, 1.0, (0.5,))
    assert [t1 for t1, _ in runs] == [pytest.approx(t_end, rel=1e-15),
                                      2 * runs[0][0]] * 2
    assert len({max_step for _, max_step in runs}) == 1
    assert math.isfinite(rep.measured) and rep.measured > 0
    assert max(rep.inputs["T1"], rep.inputs["T2"]) < 2 * t_end


def test_log_sink_shells_stop_doubling_with_numerical_error(monkeypatch):
    """A start that never crosses r_min is integrated to 2^k times the
    fallback end time for k = 0..4, then NumericalError names the time
    reached; none of this runs where mu < 0."""
    L = np.array([[-1.0, 3.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
    x0s = (np.array([1.0, 1.0, 0.5]), np.array([1.0, -1.0, 0.5]))
    ends = []

    def standing_still(f, x0, t0, t1, cfg):
        ends.append(t1)
        return tr.Curve(np.array([t0, t1]), np.array([x0, x0]))

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", standing_still)
    with pytest.raises(tr.NumericalError, match=r"r = 0\.2 by t") as info:
        tr.check_log_sink_shells(L, x0s, 1.0, (0.5, 0.2))
    t_end = math.log(1.5 / 0.2) + 4.0  # |x0| = 1.5, ell = -1
    assert ends == [pytest.approx(2 ** k * t_end, rel=1e-15)
                    for k in range(5)]
    assert str(info.value).endswith(f"by t = {ends[-1]!r}")


@pytest.mark.parametrize("x0s", [
    ((0.1, 0.0, 0.0), (0.0, 0.1, 0.0)),
    ((1.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
    ((1e-3, 0.0, 0.0), (0.0, -1e-3, 0.0)),
], ids=["inside-the-shell", "at-the-sink", "near-the-sink"])
def test_log_sink_shells_reject_starts_inside_the_shells(monkeypatch, x0s):
    """A start that is not outside every shell can cross none: ValueError
    naming it and the radius, before anything is integrated."""
    def never(*args, **kw):
        raise AssertionError("integrated")

    monkeypatch.setattr(tr.bounds, "integrate_trajectory", never)
    with pytest.raises(ValueError, match=r"start \[.*\] .* radius 0\.5"):
        tr.check_log_sink_shells(SINK_MATRIX, x0s, 1.0, (0.5, 0.2))


@pytest.mark.parametrize("radii", [[], [1.0], [1.5], [0.0], [-0.1],
                                   [0.5, 1.0], [0.5, math.nan]])
def test_log_sink_shells_reject_bad_radii(radii):
    with pytest.raises(ValueError):
        tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, 1.0, radii)


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_log_sink_shells_reject_non_finite_R(R):
    # an infinite R would give an infinite bound, always satisfied
    with pytest.raises(ValueError, match="finite R"):
        tr.check_log_sink_shells(SINK_MATRIX, SINK_X0S, R, (0.5,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_log_sink_shells_reject_non_finite_L(bad):
    L = SINK_MATRIX.copy()
    L[0, 0] = bad
    with pytest.raises(ValueError, match="finite") as info:
        tr.check_log_sink_shells(L, SINK_X0S, 1.0, (0.5,))
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_checks_report_the_span_of_a_late_curve():
    # curves whose times start past 0: each check reports the curve's own
    # span and ends, and its bound uses that span
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    spiral = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                     2.5, 5.75, cfg)
    sink = tr.linear(SINK_MATRIX)
    c1 = tr.integrate_trajectory(sink, np.array([1.0, 1.0, 0.0]), 2.5, 5.75,
                                 cfg)
    c2 = tr.slice_time(tr.integrate_trajectory(
        sink, np.array([1.0, -1.0, 0.0]), 0.0, 6.0, cfg), 3.0, 5.5)
    k = tr.fields.operator_norm(SINK_MATRIX)
    for c, rep, base in (
            (spiral, tr.check_stationary_point_bound(
                tr.spiral2d(), np.zeros(2), spiral), 0.0),
            (spiral, tr.check_any_point_bound(spiral, np.array([0.9, 0.0]),
                                              K=2.0), 4.0),
            (c1, tr.check_invariant_subspace_bound(sink, X_AXIS, c1), 0.0)):
        span = c.t[-1] - c.t[0]
        assert rep.inputs["T"] == span
        assert (rep.inputs["t1"], rep.inputs["t2"]) == (c.t[0], c.t[-1])
        assert rep.bound == base + rep.inputs["K"] * span
    assert (spiral.t[0], c1.t[0], c2.t[0]) == (2.5, 2.5, 3.0)
    for rep in (tr.check_pair_bound(c1, c2, K=k),
                tr.check_pair_bound_refined(c1, c2, K=k)):
        assert (rep.inputs["T1"], rep.inputs["T2"]) \
            == (c1.t[-1] - c1.t[0], c2.t[-1] - c2.t[0])


def test_log_sink_eigenvalue_guard():
    x0s = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    saddle = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(tr.EigenvalueSignError):
        tr.check_log_sink_shells(saddle, x0s, 1.0, (0.5,))


def test_report_json_schema(capsys):
    assert main(["verify", "--scenario", "sink-pair",
                 "--theorem", "thm3_8"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert list(d.keys()) == ["theorem_id", "measured", "bound", "margin",
                              "satisfied", "inputs", "error_estimates"]
    assert d["margin"] == d["bound"] - d["measured"]


def _clip_to_shell_scan(c, r, R):
    """Sample-by-sample reference for ``bounds._clip_to_shell``."""
    rad = np.linalg.norm(c.x.astype(np.float64, copy=False), axis=1)
    t = c.t

    def crossing(level, start):
        for i in range(start, len(rad) - 1):
            if (rad[i] - level) * (rad[i + 1] - level) <= 0 \
                    and rad[i] != rad[i + 1]:
                tau = (rad[i] - level) / (rad[i] - rad[i + 1])
                return i, float(t[i] + tau * (t[i + 1] - t[i]))
        return None

    if rad[0] <= R:
        i_in, t_in = 0, float(t[0])
    else:
        hit = crossing(R, 0)
        if hit is None:
            raise tr.NumericalError("trajectory never enters the outer "
                                    "sphere")
        i_in, t_in = hit
    hit = crossing(r, i_in)
    if hit is None:
        raise tr.NumericalError("trajectory never exits the inner sphere; "
                                "integrate longer")
    return tr.slice_time(c, t_in, hit[1])


def _outcome(clip, c, r, R):
    try:
        got = clip(c, r, R)
    except (tr.NumericalError, ValueError) as exc:
        return type(exc), str(exc)
    return got.t.tobytes(), got.x.tobytes()


_RADII = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("rad, r, R, raises", [
    ([3.0, 2.0, 1.5, 1.0, 0.5, 0.25], 0.5, 2.0, None),  # samples on both
    ([3.0, 2.0, 2.0, 2.0, 1.0, 0.25], 0.5, 2.0, None),  # flat run on R
    ([3.0, 3.0, 1.5, 1.0, 0.25], 0.5, 2.0, None),  # enters after sample 1
    ([1.5, 1.0, 1.0, 0.75, 0.5, 0.5], 0.5, 2.0, None),  # starts inside
    ([0.5, 0.5, 0.5, 0.25], 0.5, 2.0, None),  # flat run on r
    ([3.0, 3.0, 2.5, 2.5], 0.5, 2.0, "outer"),
    ([3.0, 1.5, 1.0, 0.75, 0.75], 0.5, 2.0, "inner"),
])
def test_clip_to_shell_matches_scalar_scan(rad, r, R, raises):
    t = np.cumsum(np.linspace(0.3, 0.7, len(rad)))
    c = tr.Curve(t, np.array(rad)[:, None] * [[0.0, 0.0, -1.0]])
    got = _outcome(_clip_to_shell, c, r, R)
    assert got == _outcome(_clip_to_shell_scan, c, r, R)
    if raises:
        assert got[0] is tr.NumericalError and raises in got[1]
    else:
        assert isinstance(got[0], bytes)


@given(st.lists(st.sampled_from(_RADII), min_size=2, max_size=12),
       st.lists(st.sampled_from(_RADII), min_size=2, max_size=2,
                unique=True).map(sorted),
       st.lists(st.floats(0.01, 2.0), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_clip_to_shell_matches_scalar_scan_on_ties(rad, levels, steps):
    # radii and levels from one small set: samples on a level, flat runs
    # and missing crossings are common
    r, R = levels
    t = np.cumsum(steps[:len(rad)])
    c = tr.Curve(t, np.array(rad)[:, None] * [[0.0, 1.0, 0.0]])
    assert _outcome(_clip_to_shell, c, r, R) \
        == _outcome(_clip_to_shell_scan, c, r, R)
