"""Quadrature helpers: batched adaptive Gauss-Kronrod and disk rules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): the nodes
# x >= 0, their weights, and the 10-point Gauss weights of x[1], x[3], ..., x[9].
_GK21_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
           0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
           0.2943928627014602, 0.14887433898163122, 0.0)
_GK21_W = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
           0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
           0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
           0.14773910490133849, 0.1494455540029169)
_G10_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
          0.29552422471475287)


@lru_cache(maxsize=1)
def _gk21():
    """Nodes on [-1, 1], Kronrod weights, and Gauss weights (0 off the Gauss nodes)."""
    x, wk, wg = np.array(_GK21_X), np.array(_GK21_W), np.zeros(11)
    wg[1::2] = _G10_W
    return tuple(np.concatenate((sign * v[:-1], v[::-1])) for sign, v in ((-1, x), (1, wk), (1, wg)))


def _panel_values(f, lo, hi, idx):
    """Integrals of f over [lo_i, hi_i], batched: the 21-point Kronrod and 10-point Gauss rules."""
    x, wk, wg = _gk21()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * x[None, :]
    vals = f(np.repeat(idx, x.size).reshape(-1, x.size), t)
    return half * (vals @ wk), half * (vals @ wg)


def adaptive_gauss_legendre(f, lo, hi, tol=1e-12, max_depth=24):
    """Integrate f over a batch of intervals by adaptive Gauss-Kronrod.

    ``lo``/``hi`` are equal-length arrays; ``f(idx, t)`` must evaluate the
    integrand for interval indices ``idx`` and abscissae ``t`` (same shape,
    vectorized).  A panel takes the 21-point Kronrod value; its error
    estimate, the gap to the 10-point Gauss rule on the odd nodes of the same
    points, costs no evaluation.  The error budget is managed globally
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
        fine, coarse = _panel_values(f, cur_lo, cur_hi, cur_idx)
        err = np.abs(fine - coarse)
        finite = np.isfinite(err)
        if not finite.all():  # bisecting a NaN panel never resolves it
            i = int(np.argmin(finite))
            raise QuadratureFailure(f"adaptive Gauss-Kronrod: non-finite estimate on panel "
                                    f"[{cur_lo[i]:.6g}, {cur_hi[i]:.6g}]")
        total_err = np.bincount(cur_idx, weights=err, minlength=lo.size)
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
        f"adaptive Gauss-Kronrod exceeded depth {max_depth} "
        f"({cur_lo.size} panels still above tolerance)"
    )


@lru_cache(maxsize=32)
def disk_rule(nr: int, na: int):
    """Tensor rule on the unit disk: Gauss-Legendre radius x uniform angle.

    Returns nodes (M, 2) and weights (M,) integrating dq exactly for
    polynomials of radial degree < 2*nr and trigonometric degree < na.
    Scale nodes by R and weights by R**2 for a disk of radius R.
    """
    x, w = leggauss(nr)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    ang = 2.0 * np.pi * np.arange(na) / na
    wa = 2.0 * np.pi / na
    q = np.empty((nr * na, 2))
    q[:, 0] = np.outer(r, np.cos(ang)).ravel()
    q[:, 1] = np.outer(r, np.sin(ang)).ravel()
    weights = np.outer(r * wr, np.full(na, wa)).ravel()
    return q, weights


def _nested_values(rows, cols):
    """rows[j] * cols[a] at the nodes (j, a) of order n = rows.size, in nested order.

    Order 1 is j = 0 at a = 0 and n; order m is order m/2, then its new nodes by
    pairs of radius rows: an even one at the odd angles, an odd one at all.
    """
    n = rows.size
    out = np.empty(2 * n * n)
    out[:2] = rows[0] * cols[::n]
    m = 1
    while m < n:
        m *= 2
        r, c = rows[:: n // m], cols[:: n // m]
        pairs = out[m * m // 2: 2 * m * m].reshape(m // 2, 3 * m)
        np.multiply(r[::2, None], c[1::2], out=pairs[:, :m])
        np.multiply(r[1::2, None], c, out=pairs[:, m:])
    return out


@lru_cache(maxsize=8)
def nested_disk_rule(n: int):
    """Clenshaw-Curtis radius (n nodes; r = 0 has no weight) x 2n angles on the unit disk, nested.

    Returns the nodes q1, q2 and the weights of the order-n, n/2 and n/4
    rules.  The nodes come in nested order: the first 2 (n/2)**2 are the
    nodes of ``nested_disk_rule(n // 2)``, in its order, and so on down, so
    the order-n/2 and n/4 weights are those of the leading blocks.  Scale as
    ``disk_rule``.
    """
    def radii(m):  # r_j = (1 + cos(j pi / m)) / 2, j < m, and pi/m times r_j times its weight
        j, i = np.arange(m), np.arange(1, m // 2 + 1)
        b = np.where(i == m // 2, 1.0, 2.0) / (4.0 * i**2 - 1.0)
        r = 0.5 * (1.0 + np.cos(np.pi * j / m))
        w = (1.0 - b @ np.cos(2.0 * np.pi * j / m)[np.outer(i, j) % m]) * np.where(j, 1.0, 0.5) / m
        return r, r * w * (np.pi / m)

    (r, w), phi = radii(n), np.pi * np.arange(2 * n) / n
    weights = (w, radii(n // 2)[1], radii(n // 4)[1])
    return (_nested_values(r, np.cos(phi)), _nested_values(r, np.sin(phi)),
            *(_nested_values(v, np.ones(2 * v.size)) for v in weights))
