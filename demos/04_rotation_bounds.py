"""Quantitative rotation bounds, measured against live trajectories.

Every bound is an inequality in the Lipschitz constant K of the field and
the window length T:

  * around a stationary point:          rotation <= K T
  * around an invariant subspace:       rotation <= K T
  * around any point whatsoever:        rotation <= 4 + K T
  * mutual rotation of two trajectories <= (K/pi) min(T1,T2)
                                           + (K^2/4pi) T1 T2
  * refined pair bound: (K/4pi) min(R1 T2, R2 T1), with R_i the largest
    rotation of one trajectory around points of the other
  * for a linear sink, mutual rotation across the shell r <= |x| <= R
    grows like log^2(R/r)

Each check returns a BoundReport with the measured value, the bound, the
K policy used, and the verdict.
"""

import math

import numpy as np

import trajrot as tr

SINK = np.array([[-1.0, 0.0, 0.0],
                 [0.0, -1.0, -2.0],
                 [0.0, 2.0, -1.0]])
x_axis = tr.AffineSubspace(np.zeros(3), [np.array([1.0, 0.0, 0.0])])


def show(label, rep):
    print(f"  [{rep.theorem_id:>11}] {label}")
    print(f"     measured {rep.measured:.5f}  bound {rep.bound:.5f}  "
          f"margin {rep.margin:+.5f}  satisfied={rep.satisfied}")


print("== spiral field around its stationary point ==")
cfg = tr.IntegratorConfig(chord_tol=1e-5)
spiral = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]),
                                 0.0, 10.0, cfg, obs_centers=[np.zeros(2)])
show("spiral, T=10, around the origin",
     tr.check_stationary_point_bound(tr.spiral2d(), np.zeros(2), spiral))
k_hat, _ = tr.lipschitz_for(tr.spiral2d(), spiral.x, [np.array([0.9, 0.0])])
show("spiral, T=10, around the non-stationary point (0.9, 0)",
     tr.check_any_point_bound(spiral, np.array([0.9, 0.0]), K=k_hat))

print()
print("== linear sink: invariant axis and trajectory pairs ==")
sink = tr.linear(SINK)
cfg2 = tr.IntegratorConfig(max_step=0.01, chord_tol=1e-5)
t1 = tr.integrate_trajectory(sink, np.array([1.0, 1.0, 0.0]), 0.0, 3.0, cfg2)
t2 = tr.integrate_trajectory(sink, np.array([1.0, -1.0, 0.0]), 0.0, 3.0, cfg2)
show("rotation around the invariant x1-axis, T=3",
     tr.check_invariant_subspace_bound(sink, x_axis, t1))
k = tr.fields.operator_norm(SINK)
show("mutual rotation of the symmetric pair, T1=T2=3",
     tr.check_pair_bound(t1, t2, K=k))
show("same pair, refined via point rotations R1, R2",
     tr.check_pair_bound_refined(t1, t2, K=k))

print()
print("== log^2 growth across shrinking shells r = R e^-k ==")
x0s = (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
print(f"  {'k':>3} {'measured (turns)':>17} {'implied C':>10} {'bound':>8}")
for k_exp in (1, 2, 3, 4):
    rep = tr.check_log_sink_shells(SINK, x0s, 1.0, (math.exp(-k_exp),))[0]
    print(f"  {k_exp:>3} {rep.measured:>17.5f} "
          f"{rep.inputs['implied_C']:>10.5f} {rep.bound:>8.4f}")
print("  (the implied constant stays of one size while the measured")
print("   value grows -- the log^2 envelope is the right shape)")
