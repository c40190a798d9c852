"""The flat plane: its geometry record ``FLAT`` and the built-in oracle.

Everything simplifies: the reference loop is the circle x/k, the metric
weight is 1 and the connection term vanishes, translations are literal,
and the disk average is a plain integral of K over D_{1/k}(z).  The loop
functionals and the reduction run on ``FLAT``; what stays here checks
them independently.  The linearization at a translated circle,

    phi -> -phi'' + i phi' - k**2 * mean(phi . u_ref) * u_ref,

diagonalizes over complex Fourier modes of phi1 + i*phi2 with multipliers
m**2 - m plus a rank-one part at m = 1, so kernel handling and solves are
a few lines.
"""

from __future__ import annotations

import numpy as np

from ._quad import disk_rule
from .fields import RegionBox, as_field
from .halfplane import Geometry, rot90
from .linearized import bordered_solve, denoise_spectrum, tangent_projection
from .loops import Loop, energy
from .melnikov import NR_DEFAULT, VALUE_RTOL, _boundary_gradient, _per_center
from .reduction import ProblemBase, SolveReport, solve_generic


def reference_circle(k: float, n: int = 256) -> Loop:
    """The curvature-k circle x/k about the origin."""
    if not k > 0:
        raise ValueError(f"Euclidean curvature needs k > 0, got {k}")
    return Loop.from_function(
        lambda theta: np.column_stack((np.cos(theta), np.sin(theta))) / k, n
    )


# ---------------------------------------------------------------------------
# Linearization over complex Fourier modes
# ---------------------------------------------------------------------------


def _complex_modes(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)


def apply_linearization_euclid(phi: np.ndarray, k: float) -> np.ndarray:
    """Apply the circle linearization to a field, exactly per complex mode."""
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    m = _complex_modes(n)
    c = denoise_spectrum(np.fft.fft(phi[:, 0] + 1j * phi[:, 1]) / n)
    out = (m**2 - m) * c
    idx = int(np.where(m == 1.0)[0][0])
    out[idx] = -c[idx].real
    w = np.fft.ifft(out * n)
    return np.column_stack((w.real, w.imag))


def kernel_basis_euclid(k: float, n: int) -> np.ndarray:
    """Kernel of the circle linearization: (u_ref', e1, e2), shape (3, N, 2).

    The tangent field is built analytically (u_ref' = i x / k), not by
    spectral differentiation, so applying the operator to it stays at
    machine precision.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    tangent = np.column_stack((-np.sin(theta), np.cos(theta))) / k
    e1 = np.column_stack((np.ones(n), np.zeros(n)))
    e2 = np.column_stack((np.zeros(n), np.ones(n)))
    return np.stack((tangent, e1, e2))


def solve_linearization_euclid(f: np.ndarray, k: float) -> np.ndarray:
    """Solve the circle linearization for the kernel-orthogonal field.

    Mode 0 and the imaginary part at mode 1 carry the kernel (u_ref', e1,
    e2) and are dropped; every other multiplier m**2 - m inverts directly.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    m = _complex_modes(n)
    fc = np.fft.fft(f[:, 0] + 1j * f[:, 1]) / n
    idx0 = int(np.where(m == 0.0)[0][0])
    idx1 = int(np.where(m == 1.0)[0][0])
    mult = m**2 - m
    mult[idx0] = np.inf
    mult[idx1] = np.inf
    g = fc / mult
    g[idx1] = -fc[idx1].real
    w = np.fft.ifft(g * n)
    return np.column_stack((w.real, w.imag))


# ---------------------------------------------------------------------------
# Disk average over D_{1/k}(z)
# ---------------------------------------------------------------------------


def melnikov_grid_euclid(z1, z2, k: float, field):
    """F on arrays of centers, each by ``disk_rule(n, 2n)`` on D_{1/k}(z), checked against n/2.

    The points of order n are those of the orders 32, 64, ..., n in turn, so
    a center that refines keeps its K.  The driver ``_per_center`` accepts a
    center when |Q_n - Q_n/2| is at most VALUE_RTOL max(1, |F|) or the
    rounding of K, from n = NR_DEFAULT up to 8 NR_DEFAULT.
    """
    def rule(z1, z2, n, evaluate):
        q, w = zip(*(disk_rule(m, 2 * m) for m in (32, 64, 128, 256, 512) if m <= n))
        q, half, w = np.concatenate(q) / k, w[-2] / k**2, w[-1] / k**2
        kv = evaluate(lambda s: (z1 + q[s, 0], z2 + q[s, 1]))
        last = q.shape[0] - w.size  # the order-n block comes last, the order-n/2 block before it
        # one dot product per center: the same bits for a center alone or in a batch
        value, prev = ((kv[:, None, a : a + u.size] @ u[:, None])[:, 0, 0]
                       for a, u in ((last, w), (last - half.size, half)))
        size = (abs(kv[:, None, last:]) @ w[:, None])[:, 0, 0]
        return value, np.abs(value - prev), np.maximum(
            VALUE_RTOL * np.maximum(1.0, np.abs(value)), 4e-16 * size)

    # K points per center at order n: 2 m**2 for each of m = 32, 64, ..., n
    return _per_center(z1, z2, as_field(field), np.empty(np.size(z1)), rule,
                       (NR_DEFAULT, 8 * NR_DEFAULT, lambda n: 2 * (4 * n * n - 1024) // 3),
                       ("inside the disk", "disk average did not stabilize"))


def melnikov_gradient_grid_euclid(z1, z2, k: float, field):
    """(dF/dz1, dF/dz2) on arrays of centers: the integral of K(p) nu ds over the circle."""
    return _boundary_gradient(z1, z2, field, lift=1.0, r0=1.0 / k, r1=0.0, curved=False)


def _killing_fields(samples: np.ndarray) -> tuple[np.ndarray, ...]:
    """The flat Killing fields e1, e2 and the rotation i z at the samples."""
    ones, zeros = np.ones(len(samples)), np.zeros(len(samples))
    return np.column_stack((ones, zeros)), np.column_stack((zeros, ones)), rot90(samples)


FLAT = Geometry(
    curved=False, killing=_killing_fields, floor=-np.inf,
    # late-bound like the half-plane rules, so wrapping the functions wraps these too
    disk=(lambda *args: melnikov_grid_euclid(*args),
          lambda *args: melnikov_gradient_grid_euclid(*args)),
)


# ---------------------------------------------------------------------------
# The problem adapter
# ---------------------------------------------------------------------------


class EuclideanProblem(ProblemBase):
    """Flat-plane callbacks for the shared reduction driver."""

    geometry = FLAT

    @staticmethod
    def reference_data(k: float, n: int):
        """The circle, its tangent fields (u_ref', e1, e2), mean_sq = 1 and its energy."""
        reference = reference_circle(k, n)
        tangent = np.stack((reference.deriv(1), *_killing_fields(reference.samples)[:2]))
        return reference, tangent, 1.0, energy(reference, k, geometry=FLAT).total

    def __init__(self, k: float, field, n: int = 256):
        super().__init__(k, field, n)
        self._projection = tangent_projection(self.tangent)

    def base_loop(self, z) -> Loop:
        return Loop(self.reference.samples + np.asarray(z, dtype=float))

    def frozen_solve(self, z, rhs, cons):
        """``bordered_solve`` with the flat circle's inverse, ``solve_linearization_euclid``."""
        return bordered_solve(self.tangent, *self._projection,
                              lambda f: solve_linearization_euclid(f, self.k), rhs, cons)


def solve_full_euclid(eps: float, k: float, field, region: RegionBox,
                      grid: int = 16, n: int = 256) -> SolveReport:
    """End-to-end flat-plane solve, seeded by the flat Melnikov search."""
    return solve_generic(EuclideanProblem(k, field, n), eps, region, grid)
