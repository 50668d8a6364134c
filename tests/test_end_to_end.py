"""End-to-end oracle: integrate a trajectory, measure its rotation around
the stationary point, and compare with the exact rotation of the exact
trajectory.  The whole pipeline (stepping, dense output, sampling and
the rotation kernel) must stay within the reported error estimate."""

import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import trajrot as tr
from trajrot.cli import SINK_START_PAIR, main

from conftest import SINK_MATRIX

# the integrator settings of the sink-pair verify scenario
SINK_PAIR_CFG = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                    max_step=0.01, chord_tol=1e-5)


def test_spiral_rotation_is_elapsed_time():
    # inside the unit circle the spiral turns at unit angular speed, so
    # its rotation around the origin over [0, T] is exactly T
    T = 10.0
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    traj = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                   0.0, T, cfg, obs_centers=[np.zeros(2)])
    rr = tr.absolute_rotation_point(traj, np.zeros(2))
    assert abs(rr.value - T) <= rr.error_estimate


def test_readme_cli_spiral_rotation_is_elapsed_time(tmp_path, capsys):
    # the README's CLI example: default integrator settings and no
    # observation center, so the bar must also cover the node errors
    csv = str(tmp_path / "spiral.csv")
    assert main(["integrate", "--field", "spiral2d", "--x0", "0.5,0",
                 "--t1", "10", "--out", csv]) == 0
    assert main(["rotate", "--curve", csv, "--point", "0,0",
                 "--mode", "abs"]) == 0
    rr = json.loads(capsys.readouterr().out)
    assert abs(rr["value"] - 10.0) <= rr["error_estimate"]


def _random_sink(rng):
    """A random 3x3 matrix shifted so that its largest eigenvalue real
    part is negative: a sink, in general neither normal nor diagonal."""
    a = rng.normal(size=(3, 3))
    top = np.max(np.linalg.eigvals(a).real)
    return a - (top + rng.uniform(0.3, 1.5)) * np.eye(3)


def _exact_rotation(L, x0, T):
    """Length of the spherical blow-up of ``expm(t L) x0``, t in [0, T]:
    the integral of ``|x' x x| / |x|^2`` with ``x' = L x``, and a bound
    on its quadrature error."""
    def speed(t):
        x = scipy.linalg.expm(t * L) @ x0
        return np.linalg.norm(np.cross(L @ x, x)) / (x @ x)

    return scipy.integrate.quad(speed, 0.0, T, epsabs=1e-13, epsrel=1e-13,
                                limit=200)


@pytest.mark.parametrize("seed", range(5))
def test_linear_sink_rotation_matches_exact_trajectory(seed):
    rng = np.random.default_rng(seed)
    L = _random_sink(rng)
    x0 = rng.normal(size=3)
    T = rng.uniform(1.5, 3.0)
    true, quad_err = _exact_rotation(L, x0, T)
    assert quad_err < 1e-10
    traj = tr.integrate_trajectory(tr.linear(L), x0, 0.0, T, SINK_PAIR_CFG)
    rr = tr.absolute_rotation_point(traj, np.zeros(3))
    assert abs(rr.value - true) <= rr.error_estimate
    assert math.isfinite(true) and true > 0


def _exact_sink_polyline(x0, a, b, n):
    """``n`` nodes of the reference sink's flow from ``x0`` at even times
    in ``[a, b]``, each ``expm(t L) x0``."""
    from conftest import SINK_MATRIX

    t = np.linspace(a, b, n)
    return tr.Curve(t, scipy.linalg.expm(t[:, None, None] * SINK_MATRIX)
                    @ np.asarray(x0))


@pytest.mark.parametrize("mode", ["absolute", "signed"])
@pytest.mark.parametrize("windows", [((0.0, 3.0), (0.0, 3.0)),
                                     ((0.0, 1.0), (0.5, 2.0))],
                         ids=["sink-pair", "offset"])
def test_sink_pair_gauss_matches_exact_flow(windows, mode):
    """thm3_8's mutual rotation of two windows of the sink-pair
    trajectories against the exact flow.  The true value is Richardson's
    extrapolation of exact-node polylines at 4x and 8x the measured
    density: the polyline integral is exact, so its error in the node
    spacing h is O(h^2).  The two extrapolations from 2x/4x and 4x/8x
    agree to 4e-8, far inside the estimates (1e-6 to 2e-5)."""
    f = tr.linear(SINK_MATRIX)
    curves, exact = [], []
    for x0, (a, b) in zip(SINK_START_PAIR, windows):
        traj = tr.integrate_trajectory(f, np.array(x0), 0.0, b,
                                       SINK_PAIR_CFG)
        c = tr.slice_time(traj, a, b) if a > 0.0 else traj
        curves.append(c)
        exact.append([_exact_sink_polyline(x0, a, b,
                                           k * (c.n_samples - 1) + 1)
                      for k in (4, 8)])
    rr = tr.gauss_rotation_pair(*curves, mode)
    v4, v8 = (tr.gauss_rotation_pair(e1, e2, mode).value
              for e1, e2 in zip(*exact))
    true = (4.0 * v8 - v4) / 3.0
    assert abs(rr.value - true) <= rr.error_estimate


def test_sink_shell_gauss_matches_exact_flow():
    """thm3_10_log's mutual rotation across paper-repro's sink shells 1
    and 2 (r = e^-1, e^-2, R = 1) against the exact flow.  The shells'
    curves are captured from the nested pass; the true value of each is
    Richardson's extrapolation of exact-node (``expm``) polylines over the
    same time windows at 4x and 8x the measured density."""
    captured = []
    nested = tr.bounds.gauss_rotation_nested

    def recording(pairs, mode="signed", guard=None):
        captured.append(list(pairs))
        return nested(captured[-1], mode, guard)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr.bounds, "gauss_rotation_nested", recording)
        reports = tr.check_log_sink_shells(SINK_MATRIX, SINK_START_PAIR, 1.0,
                                           (math.exp(-1.0), math.exp(-2.0)))
    (shells,) = captured
    for (c1, c2), rep in zip(shells, reports):
        v4, v8 = (tr.gauss_rotation_pair(
            *(_exact_sink_polyline(x0, c.t[0], c.t[-1],
                                   k * (c.n_samples - 1) + 1)
              for x0, c in zip(SINK_START_PAIR, (c1, c2))),
            "absolute").value for k in (4, 8))
        true = (4.0 * v8 - v4) / 3.0
        assert abs(rep.measured - true) <= rep.error_estimates["rotation"]
