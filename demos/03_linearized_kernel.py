#!/usr/bin/env python3
"""The linearized operator around the reference circle, mode by mode.

Written in the moving frame (u', i u') of the reference loop, the second
variation becomes a constant-coefficient operator whose Fourier blocks are
tiny real matrices.  Its kernel is exactly three-dimensional (one zero
singular value at frequency 0, two at frequency 1), matching the
translation and rotation invariances; that nondegeneracy is what makes the
reduction solver work.  The conjugation back to loop space is checked
against finite differences of the nonlinear residual.
"""

import numpy as np

from hyploop import (
    Loop,
    apply_frame_operator,
    apply_linearization,
    kernel_basis,
    kernel_report,
    mode_blocks,
    reference_loop,
    residual,
    translate,
)

k, n = 2.0, 256

print("== frequency blocks ==")
for block in mode_blocks(k, n)[:4]:
    print(f"mode {block.n}: singular values {np.round(block.sigmas, 6)}")

print("\n== kernel survey ==")
rep = kernel_report(k, n)
print("dimension           =", rep.dimension)
print("zero layout         =", {m: z for (m, z, _, _) in rep.per_mode if z})
print("sigma_min_nonzero   =", rep.sigma_min_nonzero)
print("angle to analytic basis =", rep.max_principal_angle)

print("\n== kernel fields annihilated ==")
for name, g in zip(("constant e1", "frequency-1 field", "its derivative"), kernel_basis(k, n)):
    print(f"|B {name}|_sup = {np.abs(apply_frame_operator(g, k)).max():.3e}")

print("\n== conjugated linearization vs finite differences ==")
rng = np.random.default_rng(0)
theta = 2 * np.pi * np.arange(n) / n
phi = np.column_stack(
    (np.cos(2 * theta) + 0.3 * rng.normal() * np.sin(4 * theta),
     0.5 + np.sin(3 * theta))
)
h = 1e-5
for z in ((0.0, 1.0), (3.0, 0.5), (-2.0, 4.0)):
    lin = apply_linearization(z, phi, k)
    base = translate(z, reference_loop(k, n))  # central difference of the residual
    fd = (residual(Loop(base.samples + h * phi), k)
          - residual(Loop(base.samples - h * phi), k)) / (2.0 * h)
    print(f"z = {z}: relative gap {np.abs(lin - fd).max() / np.abs(lin).max():.3e}")

print("\nconditioning near k = 1 (the circle radius blows up):")
for kk in (1.5, 1.1, 1.01):
    print(f"  k = {kk}: sigma_min_nonzero = {kernel_report(kk, n).sigma_min_nonzero:.6f}")
