"""Rotation of a single trajectory around observation points.

The spiral field v(x, y) = ((r^2-1)x - y, (r^2-1)y + x) has a stationary
point at the origin; every trajectory started inside the unit disc decays
into it while circling at unit angular speed.  So the absolute rotation
around the origin over a window of length T is exactly T radians -- a
clean analytic target for the quadrature.
"""

import math

import numpy as np

import trajrot as tr

cfg = tr.IntegratorConfig(chord_tol=1e-5)

print("== spiral trajectory, rotation around the stationary point ==")
for T in (2.0, 5.0, 10.0):
    traj = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                   0.0, T, cfg, obs_centers=[np.zeros(2)])
    rot = tr.absolute_rotation_point(traj, np.zeros(2))
    print(f"  T={T:5.1f}: rotation {rot.value:.6f} rad "
          f"(target {T}, error bar {rot.error_estimate:.1e}, "
          f"{traj.n_samples} samples)")

print()
print("== winding numbers of closed planar curves ==")
th = np.linspace(0.0, 2 * math.pi, 1201)
circle = tr.Curve(np.linspace(0, 1, 1201),
                  np.stack([np.cos(th), np.sin(th)], axis=1), closed=True)
for label, curve in [("counterclockwise circle", circle),
                     ("clockwise circle", tr.reverse(circle))]:
    w = tr.signed_winding_plane(curve, np.zeros(2))
    print(f"  {label}: {w.value:+.12f} turns")

print()
print("== near flyby: a straight pass gains about half a turn ==")
line = tr.integrate_trajectory(tr.constant([1.0, 0.0]),
                               np.array([-0.5, 0.0]), 0.0, 1.0,
                               tr.IntegratorConfig(chord_tol=1e-6))
for dist in (1e-2, 1e-3, 1e-4):
    rot = tr.absolute_rotation_point(line, np.array([0.0, dist]))
    print(f"  observation point at distance {dist:.0e}: "
          f"{rot.value:.6f} rad (pi = {math.pi:.6f}, never exceeded)")

print()
print("== rotation around a straight line (projection) ==")
t = np.linspace(0.0, 6 * math.pi, 1500)
helix = tr.Curve(t, np.stack([np.cos(t), np.sin(t), 0.15 * t], axis=1))
z_axis = tr.AffineSubspace(np.zeros(3), [np.array([0.0, 0.0, 1.0])])
signed = tr.rotation_around_subspace(helix, z_axis, "signed")
absolute = tr.rotation_around_subspace(helix, z_axis, "absolute")
print(f"  3-turn helix around its axis: signed {signed.value:+.9f} turns, "
      f"absolute {absolute.value:.6f} rad (= {absolute.value / (2 * math.pi):.6f} turns)")
