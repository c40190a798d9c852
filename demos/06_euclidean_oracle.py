#!/usr/bin/env python3
"""The flat-plane mirror of the whole pipeline, used as an oracle.

Everything that happens in the half-plane has a simpler Euclidean shadow:
circles of radius 1/k, a plain disk integral for the reduced landscape,
and a linearization that diagonalizes over complex Fourier modes.  Running
the same landscape search (``find_critical`` with ``geometry=FLAT``) and
the same reduction machinery on the flat record double-checks the
pipeline logic wherever the hyperbolic answers are harder to see.
"""

import numpy as np

from hyploop.euclidean import (
    FLAT,
    kernel_basis_euclid,
    apply_linearization_euclid,
    reference_circle,
    solve_full_euclid,
)
from hyploop.fields import PlaneBox
from hyploop.loops import residual
from hyploop.melnikov import find_critical, melnikov_value

k = 2.0
field = "z1^2 + (z2-2)^2"

print("== the reference circle x/k ==")
circ = reference_circle(k, 64)
print("residual sup:", np.abs(residual(circ, k, geometry=FLAT)).max())

print("\n== disk averages have closed forms ==")
print("F for K=1   :", melnikov_value((0.3, -0.7), k, "1", geometry=FLAT),
      " (pi/k^2 =", np.pi / k**2, ")")
print("F for K=z1  :", melnikov_value((0.3, -0.7), k, "z1", geometry=FLAT),
      " (centroid: pi z1/k^2 =", np.pi * 0.3 / k**2, ")")

print("\n== kernel of the circle linearization ==")
for name, f in zip(("tangent", "e1", "e2"), kernel_basis_euclid(k, 256)):
    print(f"  |L {name}|_sup = {np.abs(apply_linearization_euclid(f, k)).max():.3e}")

print("\n== critical point of the flat landscape ==")
box = PlaneBox(-0.6, 0.6, 1.4, 2.6)
search = find_critical(k, field, box, grid=12, geometry=FLAT)
p = search.points[0]
print(f"z = ({p.z[0]:.2e}, {p.z[1]:.12f})  {p.classification}")
print("(for the flat disk the quadratic field's average is exactly")
print(" area * |z - (0,2)|^2 + const, so the center is exactly (0, 2))")

print("\n== full flat solve ==")
report = solve_full_euclid(0.01, k, field, box, grid=12)
d = report.defects
print("center:", report.z_critical, " mu:", report.mu, " embedded:", report.embedded)
print(f"defects: residual {d.residual_sup:.2e}, speed {d.speed_defect:.2e}, "
      f"curvature {d.curvature_defect:.2e}")
