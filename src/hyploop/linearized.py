"""Linearization of the unperturbed problem around the reference circle.

The second variation of the constant-curvature energy, conjugated into the
moving frame (u', i u') of the reference loop, becomes a constant-coefficient
operator on frame coordinates:

    B g = -g'' - k*R_k * i g' + R_k**2 * (g2 - k**2 * mean(g2)) e2

which splits into independent real blocks per Fourier frequency (4x4 for
n >= 1 on (Re g1, Im g1, Re g2, Im g2); 2x2 at n = 0, where the mean term
lives).  All blocks are assembled from wavenumber algebra, never by
discretizing the operator, so applying and inverting them is exact to
rounding.  The kernel is three-dimensional: one zero singular value at
n = 0 and two at n = 1, matching the translation/rotation invariances of
the problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .halfplane import HALFPLANE, as_point, rot90
from .loops import Loop, curvature_radius, energy, reference_loop

ZERO_SV_RTOL = 1e-9  # sigma below this times the block's largest sigma counts as zero


@dataclass(frozen=True)
class _Circle:
    """Read-only data of the reference circle at one (k, N), built once.

    ``om_p``, ``i_om_p``: the frame u', i u', evaluated from the closed form
    of u' (pointwise trig arithmetic), not by spectral differentiation, so
    the frame identities |u'| = R_k u2 and the kernel relations hold to
    rounding.  ``tangent``: the tangent fields (u', e1, u); ``ginv``: their
    inverse Gram matrix; ``proj @ f.ravel()``: the coefficients of f's
    projection on them.  ``weights[c]`` takes component c of f to
    ``to_frame(u2**2 f)``.  ``blocks`` and ``pinvs``: the block matrices of
    ``mode_blocks`` and their pseudo-inverses, as (mode 0, stack of modes
    1..N/2).  ``mean_sq``: the mean of |u|**2; ``energy``: the unperturbed
    energy of the circle, the baseline of the reduced function.
    """

    base: Loop
    om_p: np.ndarray
    i_om_p: np.ndarray
    tangent: np.ndarray
    ginv: np.ndarray
    proj: np.ndarray
    weights: np.ndarray
    blocks: tuple
    pinvs: tuple
    mean_sq: float
    energy: float


@lru_cache(maxsize=16)
def _circle(k: float, n: int) -> _Circle:
    base = reference_loop(k, n)
    rk = curvature_radius(k)
    theta = base.theta
    denom = (k - np.sin(theta)) ** 2
    om_p = np.column_stack(((1.0 - k * np.sin(theta)) / denom, np.cos(theta) / (rk * denom)))
    i_om_p = rot90(om_p)
    tangent = np.stack((om_p, *HALFPLANE.killing(base.samples)[:2]))
    ginv, proj = tangent_projection(tangent)
    u2 = base.samples[:, 1]
    scale = (u2**2 / (rk * u2) ** 2)[:, None]
    weights = np.stack([np.column_stack((om_p[:, c], i_om_p[:, c])) * scale for c in (0, 1)])
    blocks = mode_blocks(k, n)
    circle = _Circle(
        base, om_p, i_om_p, tangent, ginv, proj, weights,
        (blocks[0].matrix, np.stack([b.matrix for b in blocks[1:]])),
        (blocks[0].pinv, np.stack([b.pinv for b in blocks[1:]])),
        float((base.samples**2).sum(axis=1).mean()), energy(base, k).total,
    )
    for arr in (om_p, i_om_p, tangent, ginv, proj, weights, *circle.blocks,
                *circle.pinvs):
        arr.flags.writeable = False
    return circle


def tangent_projection(tangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, N, 2) tangent fields' inverse Gram matrix ginv, and proj: f's projection on them is
    (proj @ f.ravel()) @ tangent."""
    tang, n = tangent.reshape(3, -1), tangent.shape[1]
    ginv = np.linalg.inv(tang @ tang.T / n)
    return ginv, ginv @ tang / n


def from_frame(g: np.ndarray, k: float) -> np.ndarray:
    """Frame coordinates to ambient field: g -> g1 * u' + g2 * i u'."""
    g = np.asarray(g, dtype=float)
    circle = _circle(k, g.shape[0])
    return g[:, 0:1] * circle.om_p + g[:, 1:2] * circle.i_om_p


def to_frame(phi: np.ndarray, k: float) -> np.ndarray:
    """Ambient field to frame coordinates (inverse of ``from_frame``).

    Uses |u'|**2 = R_k**2 u2**2 pointwise, so the frame is orthogonal and the
    inversion is a pair of scaled projections.
    """
    phi = np.asarray(phi, dtype=float)
    ref = _circle(k, phi.shape[0])
    scale = (curvature_radius(k) * ref.base.samples[:, 1:2]) ** 2
    return np.column_stack(((phi * ref.om_p).sum(axis=1), (phi * ref.i_om_p).sum(axis=1))) / scale


def kernel_basis(k: float, n: int) -> np.ndarray:
    """The analytic kernel of the frame operator, shape (3, N, 2).

    Basis: the constant field e1, the frequency-one field
    g = (k*cos, -sin/R_k), and its derivative.  Their frame images are the
    tangent fields of the manifold of translated/rotated reference circles.
    """
    rk = curvature_radius(k)
    theta = 2.0 * np.pi * np.arange(n) / n
    e1 = np.column_stack((np.ones(n), np.zeros(n)))
    g = np.column_stack((k * np.cos(theta), -np.sin(theta) / rk))
    gp = np.column_stack((-k * np.sin(theta), -np.cos(theta) / rk))
    return np.stack((e1, g, gp))


# ---------------------------------------------------------------------------
# Applying the operator (per-mode blocks on rfft coefficients)
# ---------------------------------------------------------------------------


SPECTRAL_NOISE_RTOL = 1e-15  # coefficients below this (relative) are FFT roundoff


def denoise_spectrum(c: np.ndarray) -> np.ndarray:
    """Zero the coefficients at the double-precision noise floor of c.

    A mode whose coefficient is below ~4.5 ulp of the largest one carries no
    information; zeroing it keeps the m**2 wavenumber multipliers from
    amplifying FFT roundoff on band-limited inputs.
    """
    c = c.copy()
    c[np.abs(c) < SPECTRAL_NOISE_RTOL * np.abs(c).max()] = 0.0
    return c


def apply_frame_operator(g: np.ndarray, k: float) -> np.ndarray:
    """Apply B to frame coordinates, exactly per Fourier mode, by the blocks of ``mode_blocks``.

    Noise-floor modes of the input are treated as exact zeros (see
    ``denoise_spectrum``).
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    c = denoise_spectrum(np.fft.rfft(g, axis=0))
    return _per_mode(c, _circle(k, n).blocks, n)


def _per_mode(c: np.ndarray, blocks: tuple, n: int) -> np.ndarray:
    """Apply real blocks (mode 0, stack of modes 1..N/2) to the rfft rows c; back to samples.

    A mode's rfft row (c1, c2), viewed as floats, is its block vector.
    """
    first, stack = blocks
    out = np.empty_like(c)
    out[0] = first @ c[0].real
    out[1:] = np.einsum("mij,mj->mi", stack, c[1:].view(float)).view(complex)
    return np.fft.irfft(out, n=n, axis=0)


# ---------------------------------------------------------------------------
# Per-frequency blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeBlock:
    """One real frequency block of the frame operator.

    ``matrix`` acts on (Re g1, Im g1, Re g2, Im g2) for n >= 1 and on
    (g1, g2) at n = 0.  ``pinv`` is the pseudo-inverse with singular values
    below ``ZERO_SV_RTOL`` times the largest treated as zero; ``null``
    holds the corresponding null vectors (rows).
    """

    n: int
    matrix: np.ndarray
    sigmas: np.ndarray
    pinv: np.ndarray
    null: np.ndarray

    @property
    def zero_count(self) -> int:
        return self.null.shape[0]


def mode_blocks(k: float, n: int) -> tuple[ModeBlock, ...]:
    """All frequency blocks for an N-sample discretization (modes 0..N/2).

    One stacked SVD per block size: the 2x2 block of mode 0, then the 4x4
    blocks of modes 1..N/2.
    """
    rk = curvature_radius(k)
    m = np.arange(1, n // 2 + 1, dtype=float)
    cm = k * rk * m
    cm[-1] = 0.0  # no cross terms at Nyquist: the first-derivative convention of Loop.deriv
    mats = np.zeros((m.size, 4, 4))
    mats[:, 0, 0] = mats[:, 1, 1] = m**2
    mats[:, 2, 2] = mats[:, 3, 3] = m**2 + rk**2
    mats[:, 1, 2] = mats[:, 2, 1] = cm
    mats[:, 0, 3] = mats[:, 3, 0] = -cm
    mode0 = np.array([[[0.0, 0.0], [0.0, rk**2 * (1.0 - k**2)]]])  # where the mean term lives
    blocks = []
    for first, stack in ((0, mode0), (1, mats)):
        u, s, vt = np.linalg.svd(stack)
        keep = s > ZERO_SV_RTOL * s.max(axis=1, keepdims=True)
        inv = np.zeros_like(s)
        inv[keep] = 1.0 / s[keep]
        pinv = (vt.transpose(0, 2, 1) * inv[:, None, :]) @ u.transpose(0, 2, 1)
        blocks += [ModeBlock(first + i, stack[i], s[i], pinv[i], vt[i][~keep[i]])
                   for i in range(len(stack))]
    return tuple(blocks)


def _solve_modes(f: np.ndarray, k: float) -> np.ndarray:
    """Solve B g = f per frequency by the pseudo-inverse blocks.

    The result is the minimum-norm solution, orthogonal to the kernel; a
    kernel component of f is dropped (``frozen_solve`` removes it first).
    """
    n = f.shape[0]
    return _per_mode(np.fft.rfft(f, axis=0), _circle(k, n).pinvs, n)


@dataclass(frozen=True)
class KernelReport:
    """Kernel structure of the frame operator at a given k."""

    k: float
    n: int
    dimension: int
    sigma_min_nonzero: float
    per_mode: tuple[tuple[int, int, float, float], ...]  # (mode, zeros, sigma_min, sigma_max)
    basis: np.ndarray  # (dimension, N, 2) numeric kernel fields
    max_principal_angle: float  # against the analytic basis, radians


def _principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of two (m, N, 2) field stacks.

    Uses the sine-based formula (singular values of Qb - Qa Qa^T Qb), which
    resolves angles down to machine precision where arccos of the cosine
    would floor out near sqrt(eps).
    """
    n = a.shape[1]
    qa, _ = np.linalg.qr(a.reshape(a.shape[0], -1).T / np.sqrt(n))
    qb, _ = np.linalg.qr(b.reshape(b.shape[0], -1).T / np.sqrt(n))
    s = np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)
    return np.arcsin(np.clip(s, -1.0, 1.0))


def kernel_report(k: float, n: int = 256) -> KernelReport:
    """Survey all frequency blocks: kernel dimension, basis, conditioning."""
    blocks = mode_blocks(k, n)
    per_mode = []
    fields = []
    smallest_nonzero = np.inf
    theta = 2.0 * np.pi * np.arange(n) / n
    for block in blocks:
        s = block.sigmas
        nonzero = s[s > ZERO_SV_RTOL * s.max()]
        if nonzero.size:
            smallest_nonzero = min(smallest_nonzero, float(nonzero.min()))
        per_mode.append((block.n, block.zero_count, float(s.min()), float(s.max())))
        for vec in block.null:
            if block.n == 0:
                fields.append(np.tile(vec, (n, 1)))
            else:
                a1, b1, a2, b2 = vec
                cos_m = np.cos(block.n * theta)
                sin_m = np.sin(block.n * theta)
                fields.append(
                    np.column_stack(
                        (2.0 * (a1 * cos_m - b1 * sin_m), 2.0 * (a2 * cos_m - b2 * sin_m))
                    )
                )
    basis = np.stack(fields) if fields else np.zeros((0, n, 2))
    analytic = kernel_basis(k, n)
    angle = float(_principal_angles(basis, analytic).max()) if len(fields) == 3 else np.inf
    return KernelReport(
        k=k,
        n=n,
        dimension=len(fields),
        sigma_min_nonzero=float(smallest_nonzero),
        per_mode=tuple(per_mode),
        basis=basis,
        max_principal_angle=angle,
    )


# ---------------------------------------------------------------------------
# The linearized residual and the frozen bordered solve
# ---------------------------------------------------------------------------


def apply_linearization(z, phi: np.ndarray, k: float) -> np.ndarray:
    """Directional derivative of the unperturbed residual at a translated circle.

    Computed by conjugation: lift phi to frame coordinates, apply the frame
    operator, push back, and scale by z2**-2 u2**-2.  Matches the central
    finite difference of the residual map.
    """
    zp = as_point(z)
    phi = np.asarray(phi, dtype=float)
    image = from_frame(apply_frame_operator(to_frame(phi, k), k), k)
    return image / (zp.z2**2 * _circle(k, phi.shape[0]).base.samples[:, 1] ** 2)[:, None]


def bordered_solve(tangent, ginv, proj, inverse, rhs, cons):
    """Solve a linearization L bordered by its tangent fields T, in either plane, for (phi, a, p):

        L phi - a*T0 - p1*T1 - p2*T2 = rhs,   <phi, Ti> = cons[i]

    The multipliers take the tangential part of rhs, ``inverse`` (the
    plane's inverse of L on tangent-orthogonal fields) gives phi's
    orthogonal part, and phi's tangential part matches the constraints.
    ``ginv`` and ``proj`` are those of ``tangent_projection``.
    """
    rhs = np.asarray(rhs, dtype=float)
    tang = tangent.reshape(3, -1)
    mults = -(proj @ rhs.ravel())  # rhs + a*T0 + p1*T1 + p2*T2 is tangent-orthogonal
    phi_perp = inverse(rhs + (mults @ tang).reshape(rhs.shape))
    # tangential part of phi from the constraints, less that of phi_perp
    coeffs = ginv @ np.asarray(cons, dtype=float) - proj @ phi_perp.ravel()
    return phi_perp + (coeffs @ tang).reshape(rhs.shape), float(mults[0]), mults[1:]


def frozen_solve(z, k: float, rhs: np.ndarray, cons: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """``bordered_solve`` at a translated circle: L = D J0 there, T = (u', e1, u), and
    L inverted per frequency through the frame (z2**2 times the frame image of f)."""
    z2 = as_point(z).z2
    circle = _circle(k, np.shape(rhs)[0])
    w = circle.weights

    def inverse(f):
        g = _per_mode(np.fft.rfft(z2**2 * (f[:, 0:1] * w[0] + f[:, 1:2] * w[1]), axis=0),
                      circle.pinvs, len(f))
        return g[:, 0:1] * circle.om_p + g[:, 1:2] * circle.i_om_p

    return bordered_solve(circle.tangent, circle.ginv, circle.proj, inverse, rhs, cons)
