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
from trajrot.cli import main

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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the spiral's integrator phase "
                   "error, 1.17e-5, is 4.2x the error estimate at the "
                   "default tolerances")
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
