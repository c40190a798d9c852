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

from .errors import NotOrthogonal
from .halfplane import HALFPLANE, as_point, rot90
from .loops import Loop, curvature_radius, dot_mean, reference_loop, residual

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
    1..N/2).  ``kernel``: the analytic kernel basis; ``gram``: its Gram matrix.
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
    kernel: np.ndarray
    gram: np.ndarray


@lru_cache(maxsize=16)
def _circle(k: float, n: int) -> _Circle:
    base = reference_loop(k, n)
    rk = curvature_radius(k)
    theta = base.theta
    denom = (k - np.sin(theta)) ** 2
    om_p = np.column_stack(((1.0 - k * np.sin(theta)) / denom, np.cos(theta) / (rk * denom)))
    i_om_p = rot90(om_p)
    tangent = np.stack((om_p, *HALFPLANE.killing(base.samples)[:2]))
    tang = tangent.reshape(3, 2 * n)
    ginv = np.linalg.inv(tang @ tang.T / n)
    u2 = base.samples[:, 1]
    scale = (u2**2 / (rk * u2) ** 2)[:, None]
    weights = np.stack([np.column_stack((om_p[:, c], i_om_p[:, c])) * scale for c in (0, 1)])
    blocks = mode_blocks(k, n)
    kernel = kernel_basis(k, n)
    circle = _Circle(
        base, om_p, i_om_p, tangent, ginv, ginv @ tang / n, weights,
        (blocks[0].matrix, np.stack([b.matrix for b in blocks[1:]])),
        (blocks[0].pinv, np.stack([b.pinv for b in blocks[1:]])),
        kernel, np.array([[dot_mean(a, b) for b in kernel] for a in kernel]),
    )
    for arr in (om_p, i_om_p, tangent, ginv, circle.proj, weights, *circle.blocks,
                *circle.pinvs, kernel):
        arr.flags.writeable = False
    return circle


def from_frame(g: np.ndarray, k: float, n: int | None = None) -> np.ndarray:
    """Frame coordinates to ambient field: g -> g1 * u' + g2 * i u'."""
    g = np.asarray(g, dtype=float)
    circle = _circle(k, n or g.shape[0])
    return g[:, 0:1] * circle.om_p + g[:, 1:2] * circle.i_om_p


def to_frame(phi: np.ndarray, k: float, n: int | None = None) -> np.ndarray:
    """Ambient field to frame coordinates (inverse of ``from_frame``).

    Uses |u'|**2 = R_k**2 u2**2 pointwise, so the frame is orthogonal and the
    inversion is a pair of scaled projections.
    """
    phi = np.asarray(phi, dtype=float)
    ref = _circle(k, n or phi.shape[0])
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


def tangent_fields(k: float, n: int) -> np.ndarray:
    """Fields spanning the solution manifold's tangent space: (u', e1, u), read-only."""
    return _circle(k, n).tangent


# ---------------------------------------------------------------------------
# Applying the operator (per-mode blocks on rfft coefficients)
# ---------------------------------------------------------------------------


SPECTRAL_NOISE_RTOL = 1e-15  # coefficients below this (relative) are FFT roundoff


def denoise_spectrum(*coeff_arrays):
    """Zero coefficients at the double-precision noise floor of the set.

    A mode whose coefficient is below ~4.5 ulp of the largest one carries no
    information; zeroing it keeps the m**2 wavenumber multipliers from
    amplifying FFT roundoff on band-limited inputs.
    """
    scale = max(np.abs(c).max() for c in coeff_arrays)
    if scale == 0.0:
        return coeff_arrays
    out = []
    for c in coeff_arrays:
        c = c.copy()
        c[np.abs(c) < SPECTRAL_NOISE_RTOL * scale] = 0.0
        out.append(c)
    return out


def apply_frame_operator(g: np.ndarray, k: float) -> np.ndarray:
    """Apply B to frame coordinates, exactly per Fourier mode, by the blocks of ``mode_blocks``.

    Noise-floor modes of the input are treated as exact zeros (see
    ``denoise_spectrum``).
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    (c,) = denoise_spectrum(np.fft.rfft(g, axis=0))
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


def _make_block(n_mode: int, matrix: np.ndarray) -> ModeBlock:
    u, s, vt = np.linalg.svd(matrix)
    cutoff = ZERO_SV_RTOL * s.max()
    keep = s > cutoff
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    pinv = (vt.T * inv) @ u.T
    null = vt[~keep]
    for arr in (matrix, s, pinv, null):
        arr.flags.writeable = False
    return ModeBlock(n_mode, matrix, s, pinv, null)


@lru_cache(maxsize=16)
def mode_blocks(k: float, n: int) -> tuple[ModeBlock, ...]:
    """All frequency blocks for an N-sample discretization (modes 0..N/2).

    The 4x4 blocks of modes 1..N/2 share one stacked SVD; each is processed
    as ``_make_block`` would.
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
    u, s, vt = np.linalg.svd(mats)
    keep = s > ZERO_SV_RTOL * s.max(axis=1, keepdims=True)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    pinv = (vt.transpose(0, 2, 1) * inv[:, None, :]) @ u.transpose(0, 2, 1)
    for arr in (mats, s, pinv):
        arr.flags.writeable = False
    blocks = [_make_block(0, np.array([[0.0, 0.0], [0.0, rk**2 * (1.0 - k**2)]]))]
    for i in range(m.size):
        null = vt[i][~keep[i]]
        null.flags.writeable = False
        blocks.append(ModeBlock(i + 1, mats[i], s[i], pinv[i], null))
    return tuple(blocks)


def _project_kernel(f: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """L2 projection of f onto the kernel; returns (coefficients, projection)."""
    circle = _circle(k, f.shape[0])
    rhs = np.array([dot_mean(f, b) for b in circle.kernel])
    coeffs = np.linalg.solve(circle.gram, rhs)
    return coeffs, np.tensordot(coeffs, circle.kernel, axes=1)


def solve_frame_operator(f: np.ndarray, k: float, orth_tol: float = 1e-9) -> np.ndarray:
    """Solve B g = f for the unique g orthogonal to the kernel.

    ``f`` must be L2-orthogonal to the kernel within ``orth_tol`` (relative
    to max(1, ||f||)); otherwise NotOrthogonal reports the offending kernel
    coefficients.  The solve is a per-frequency pseudo-inverse, so the
    result is the minimum-norm solution, which is exactly the
    kernel-orthogonal one.
    """
    f = np.asarray(f, dtype=float)
    coeffs, proj = _project_kernel(f, k)
    fnorm = np.sqrt(dot_mean(f, f))
    if np.sqrt(dot_mean(proj, proj)) > orth_tol * max(1.0, fnorm):
        raise NotOrthogonal(
            "right-hand side has a kernel component "
            f"(coefficients on [e1, g, g'] = {coeffs})",
            projection=coeffs,
        )
    return _solve_modes(f, k)


def _solve_modes(f: np.ndarray, k: float) -> np.ndarray:
    """Per-frequency pseudo-inverse solve of B g = f, without the kernel check."""
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
    n = phi.shape[0]
    g = to_frame(phi, k, n)
    image = from_frame(apply_frame_operator(g, k), k, n)
    return image / (zp.z2**2 * _circle(k, n).base.samples[:, 1] ** 2)[:, None]


def linearization_fd(z, phi: np.ndarray, k: float, h: float = 1e-5) -> np.ndarray:
    """Finite-difference oracle for ``apply_linearization``."""
    from .halfplane import translate

    zp = as_point(z)
    n = np.asarray(phi).shape[0]
    base = translate(zp, reference_loop(k, n))
    plus = Loop(base.samples + h * phi)
    minus = Loop(base.samples - h * phi)
    return (residual(plus, k) - residual(minus, k)) / (2.0 * h)


def frozen_solve(z, k: float, rhs: np.ndarray, cons: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Invert the frozen bordered linearization at a translated circle.

    Solves, for (phi, a, p):

        D J0 (translated circle) phi - a*u' - p1*e1 - p2*u = rhs
        <phi, u'> = cons[0],  <phi, e1> = cons[1],  <phi, u> = cons[2]

    following the constructive scheme: multipliers (a, p) absorb the
    tangential part of rhs, the tangential part of phi matches the
    constraints, and the orthogonal part comes from the per-frequency
    solve conjugated through the frame.
    """
    z2 = as_point(z).z2
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    circle = _circle(k, n)
    tang, proj, weights = circle.tangent.reshape(3, 2 * n), circle.proj, circle.weights
    # multipliers: rhs + a*T0 + p1*T1 + p2*T2 must be tangent-orthogonal
    mults = -(proj @ rhs.ravel())
    f = rhs + (mults @ tang).reshape(n, 2)
    # orthogonal part via the frame operator
    g = _solve_modes(z2**2 * (f[:, 0:1] * weights[0] + f[:, 1:2] * weights[1]), k)
    phi_perp = from_frame(g, k, n)
    # tangential part of phi from the constraints, less that of phi_perp
    coeffs = circle.ginv @ np.asarray(cons, dtype=float) - proj @ phi_perp.ravel()
    return phi_perp + (coeffs @ tang).reshape(n, 2), float(mults[0]), mults[1:]
