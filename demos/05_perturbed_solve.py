#!/usr/bin/env python3
"""Solving for a genuine (k + eps*K)-loop by Lyapunov-Schmidt reduction.

At a fixed center z the correction problem (residual orthogonal to the
symmetry directions, correction orthogonal to them too) has a unique small
solution; its two translation multipliers are exactly the gradient of the
reduced energy in z.  Driving those multipliers to zero with an outer
Newton iteration lands on a true solution, which is then verified
pointwise and written to disk.
"""

import numpy as np

from hyploop import RegionBox, continue_eps, reduce_at, save_loop, solve_full
from hyploop.loops import verify_solution

k = 2.0
field = "z1^2 + (z2-2)^2"
box = RegionBox(-0.6, 0.6, 1.2, 2.8)

print("== one correction solve at fixed (eps, z) ==")
state = reduce_at(0.01, (0.0, 2.0), k, field)
print("chord steps      :", state.iterations)
print("residual sup      :", state.residual_sup)
print("rotation multiplier t (vanishes at solutions):", state.t)
print("translation multipliers theta:", state.theta)
print("correction size |eta|_sup:", np.abs(state.eta).max())

print("\n== the full solve: find the center, then the loop ==")
report = solve_full(0.01, k, field, box, grid=12)
print("disk-average seed   :", report.melnikov_seed)
print("critical center     :", report.z_critical)
print("winding / embedded  :", report.mu, "/", report.embedded)
d = report.defects
print(f"defects: residual {d.residual_sup:.2e}, speed {d.speed_defect:.2e}, "
      f"curvature {d.curvature_defect:.2e}")
print(f"Killing pairings    : {np.abs(d.killing).max():.2e}")
print(f"distance to the unperturbed circle: C0 {report.c0_dist:.3e}, C2 {report.c2_dist:.3e}")

save_loop("perturbed_loop.csv", report.loop,
          {"k": k, "eps": 0.01, "field": field, "N": report.loop.n})
print("loop written to perturbed_loop.csv (+ .json sidecar)")

print("\n== re-verify from disk ==")
from hyploop import load_loop

loop, meta = load_loop("perturbed_loop.csv")
print(verify_solution(loop, meta["k"], meta["eps"], meta["field"]).summary())

print("\n== continuation in eps with warm starts ==")
result = continue_eps(k, field, box, [0.001, 0.01, 0.05, 0.2], grid=12)
for rep in result.reports:
    print(f"eps = {rep.eps:<6g} center z2 = {rep.z_critical[1]:.6f} "
          f"curvature defect {rep.defects.curvature_defect:.2e}")
print("empirical continuation limit eps_bar =", result.eps_bar)
if result.failure:
    print("first failure:", result.failure)
