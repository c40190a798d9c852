"""Quadrature helpers: batched adaptive Gauss-Legendre and disk rules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    x, w = leggauss(order)
    return x, w


def _panel_values(f, lo, hi, idx, order):
    """Integrals of f over [lo_i, hi_i] with an order-point rule, batched."""
    x, w = _gl_nodes(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * x[None, :]
    vals = f(np.repeat(idx, order).reshape(-1, order), t)
    return half * (vals * w[None, :]).sum(axis=1)


def adaptive_gauss_legendre(f, lo, hi, tol=1e-12, order=24, max_depth=24):
    """Integrate f over a batch of intervals by adaptive Gauss-Legendre.

    ``lo``/``hi`` are equal-length arrays; ``f(idx, t)`` must evaluate the
    integrand for interval indices ``idx`` and abscissae ``t`` (same shape,
    vectorized).  Panel errors are estimated by comparing an order-point
    rule with a doubled-order one.  The error budget is managed globally
    per original interval (an interval finishes as soon as the sum of its
    active panel errors is below ``tol``; otherwise only panels above their
    width-proportional share get bisected), so an isolated kink costs a
    logarithmic number of levels instead of a linear one.  Raises
    QuadratureFailure past ``max_depth`` levels, or at the first panel
    whose estimate is not finite.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros_like(lo)
    span = np.abs(hi - lo)
    active = span > 0.0
    cur_lo, cur_hi = lo[active].copy(), hi[active].copy()
    cur_idx = np.arange(lo.size)[active]
    for depth in range(max_depth + 1):
        if not cur_lo.size:
            return out
        coarse = _panel_values(f, cur_lo, cur_hi, cur_idx, order)
        fine = _panel_values(f, cur_lo, cur_hi, cur_idx, 2 * order)
        err = np.abs(fine - coarse)
        finite = np.isfinite(err)
        if not finite.all():  # bisecting a NaN panel never resolves it
            i = int(np.argmin(finite))
            raise QuadratureFailure(f"adaptive Gauss-Legendre: non-finite estimate on panel "
                                    f"[{cur_lo[i]:.6g}, {cur_hi[i]:.6g}]")
        total_err = np.zeros(lo.size)
        np.add.at(total_err, cur_idx, err)
        finished = total_err[cur_idx] <= tol
        np.add.at(out, cur_idx[finished], fine[finished])
        remaining = ~finished
        share = 0.5 * tol * np.abs(cur_hi - cur_lo) / span[cur_idx]
        accept = remaining & (err <= share)
        np.add.at(out, cur_idx[accept], fine[accept])
        split = remaining & ~accept
        if not split.any():
            return out
        blo, bhi, bidx = cur_lo[split], cur_hi[split], cur_idx[split]
        mid = 0.5 * (blo + bhi)
        cur_lo = np.concatenate((blo, mid))
        cur_hi = np.concatenate((mid, bhi))
        cur_idx = np.concatenate((bidx, bidx))
    raise QuadratureFailure(
        f"adaptive Gauss-Legendre exceeded depth {max_depth} "
        f"({cur_lo.size} panels still above tolerance)"
    )


@lru_cache(maxsize=32)
def disk_rule(nr: int, na: int):
    """Tensor rule on the unit disk: Gauss-Legendre radius x uniform angle.

    Returns nodes (M, 2) and weights (M,) integrating dq exactly for
    polynomials of radial degree < 2*nr and trigonometric degree < na.
    Scale nodes by R and weights by R**2 for a disk of radius R.
    """
    x, w = _gl_nodes(nr)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    ang = 2.0 * np.pi * np.arange(na) / na
    wa = 2.0 * np.pi / na
    q = np.empty((nr * na, 2))
    q[:, 0] = np.outer(r, np.cos(ang)).ravel()
    q[:, 1] = np.outer(r, np.sin(ang)).ravel()
    weights = np.outer(r * wr, np.full(na, wa)).ravel()
    return q, weights
