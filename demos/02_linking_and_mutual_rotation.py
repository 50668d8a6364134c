"""Mutual rotation of curve pairs via the Gauss integral.

Three classic configurations: a circle threaded by a long straight
segment (value 100/sqrt(10001), near 1), the Hopf pair of interlocked
circles (integer linking number, cross-checked by counting signed
crossings through a flat spanning disk), and a helix against its axis.
Against the whole axis the double integral equals the planar projection
definition in closed form; the segment pair kernel against a long piece
of the axis comes within what the rays beyond the piece carry.
"""

import math

import numpy as np

import trajrot as tr

z_axis = tr.AffineSubspace(np.zeros(3), [np.array([0.0, 0.0, 1.0])])

print("== unit circle + z-axis segment |z| <= 100 ==")
th = np.linspace(0.0, 2 * math.pi, 1501)
circle = tr.Curve(np.linspace(0, 1, 1501),
                  np.stack([np.cos(th), np.sin(th), np.zeros_like(th)],
                           axis=1), closed=True)
segment = tr.Curve([-100.0, 100.0], [[0.0, 0.0, -100.0], [0.0, 0.0, 100.0]])
rr = tr.gauss_rotation_pair(circle, segment, "signed")
print(f"  signed mutual rotation: {rr.value:.8f} turns "
      f"(error bar {rr.error_estimate:.1e}; "
      f"exact {100.0 / math.sqrt(10001.0):.8f})")

print()
print("== Hopf pair: two interlocked unit circles ==")
ph = th + 0.37
second = tr.Curve(np.linspace(0, 1, 1501),
                  np.stack([1.0 + np.cos(ph), np.zeros_like(ph), np.sin(ph)],
                           axis=1), closed=True)
lk = tr.linking_coefficient(circle, second)
topo = tr.topological_linking_planar(circle, second)
print(f"  Gauss integral: {lk.raw:+.8f} -> snaps to {lk.nearest_integer:+d} "
      f"(residual {lk.residual:.1e})")
print(f"  signed crossings through the spanning disk: {topo:+d}")

print()
print("== a disjoint pair is unlinked ==")
th8 = np.linspace(0.0, 2 * math.pi, 801)
far = tr.Curve(np.linspace(0, 1, 801),
               np.stack([3.0 + np.cos(th8), np.sin(th8), np.zeros(801)],
                        axis=1), closed=True)
print(f"  coplanar circles 3 radii apart: "
      f"{tr.linking_coefficient(circle, far).raw:+.2e}")

print()
print("== helix vs. its axis: double integral == projection ==")
t = np.linspace(0.0, 6 * math.pi, 1200)
helix = tr.Curve(t, np.stack([np.cos(t), np.sin(t), 0.15 * t], axis=1))
proj = tr.rotation_around_subspace(helix, z_axis, "signed")
print(f"  projection around the whole axis:      {proj.value:.12f} turns")
long_axis = tr.Curve([-1000.0, 1000.0],
                     [[0.0, 0.0, -1000.0], [0.0, 0.0, 1000.0]])
seg = tr.gauss_rotation_pair(long_axis, helix, "signed")
# a ray from height 1000 takes the share (1 - u/sqrt(1+u^2))/2 of each
# turn from a point at distance 1, u = 1000 - height
u = 1000.0 - 0.15 * t[-1]
w = math.hypot(1.0, u)
print(f"  pair kernel against |z| <= 1000:       {seg.value:.12f} turns")
print(f"  difference {proj.value - seg.value:.2e}; the rays beyond the "
      f"segment carry at most {3.0 / (w * (w + u)):.2e}")
