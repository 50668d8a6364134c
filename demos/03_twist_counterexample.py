"""Unbounded winding around a non-invariant line in bounded time.

The twist field v = (1, w1'(x1), w2'(x1)) with w = exp(-1/x1^2)
(cos, sin)(1/x1) is smooth everywhere, yet the trajectory through the
x1-axis profile winds around that axis with polar angle exactly 1/x1:
shrinking the lower cutoff a makes the rotation 1/a - 1/b blow up while
the elapsed time b - a stays below b.  No bound in terms of a Lipschitz
constant and the time window alone can hold for a non-invariant line.

Two things make this numerically delicate and are handled by the library:
the winding happens at radii exp(-1/x1^2) as small as 1e-695 (stored in
extended precision when float64 underflows), and the default
distance-to-axis guard must be overridden because those radii are exact
by construction.
"""

import numpy as np

import trajrot as tr

x_axis = tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])

print("== winding between x1 = a and x1 = 0.2 ==")
print(f"  {'a':>6} {'rotation (rad)':>15} {'target 1/a - 5':>15} "
      f"{'elapsed time':>13} {'storage':>10}")
for a in (0.1, 0.05, 0.025):
    curve = tr.twist_invariant_curve(a, 0.2)
    rot = tr.rotation_around_subspace(curve, x_axis, "absolute", guard=0.0)
    print(f"  {a:>6} {rot.value:>15.6f} {1 / a - 5:>15.6f} "
          f"{curve.duration:>13.3f} {str(curve.x.dtype):>10}")

print()
print("== yet two off-axis trajectories do not wind around each other ==")
cfg = tr.IntegratorConfig(chord_tol=1e-6)
w1 = tr.integrate_trajectory(tr.twist3d(), np.array([0.05, 0.5, 0.0]),
                             0.0, 0.15, cfg)
w2 = tr.integrate_trajectory(tr.twist3d(), np.array([0.05, 0.0, 0.7]),
                             0.0, 0.15, cfg)
signed = tr.gauss_rotation_pair(w1, w2, "signed")
absolute = tr.gauss_rotation_pair(w1, w2, "absolute")
print(f"  signed   mutual rotation: {signed.value:+.2e} turns")
print(f"  absolute mutual rotation: {absolute.value:.2e} turns")
print("  (the field is independent of x2, x3, so the joining vector of")
print("   same-x1 points is constant: mutual rotation of curve pairs is")
print("   not transitive with rotation around the axis)")

print()
print("== the axis is genuinely non-invariant ==")
wide = tr.integrate_trajectory(tr.twist3d(), np.array([0.1, 0.5, 0.0]),
                               0.0, 0.4, cfg)
try:
    tr.check_invariant_subspace_bound(tr.twist3d(), x_axis, wide)
except tr.NotInvariant as exc:
    print(f"  NotInvariant: {exc}")
