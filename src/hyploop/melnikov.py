"""Disk-averaged curvature perturbation and its critical points.

For curvature k + eps*K, first-order existence is governed by the function

    F(z) = integral of K over the hyperbolic disk of curvature-k radius
           centered at z, against the hyperbolic area element,

whose critical points seed the perturbed solutions.  The hyperbolic disk
is a Euclidean disk, so F reduces to a fixed-domain integral

    F(z) = integral over D_{R_k}(0) of (q2 + k*R_k)**-2 K(z2*q + z^k) dq,
    z^k = (z1, k*R_k*z2),

evaluated with a Gauss-Legendre (radial) x uniform (angular) tensor rule.
Differentiation under the integral gives the gradient.  The critical-point
search (grid scan + Newton refinement + Hessian classification) is generic
over (value, gradient) callbacks so the Euclidean variant can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import disk_rule
from .errors import NoCritical, QuadratureFailure
from .fields import RegionBox, as_field, eval_field, grad_field
from .halfplane import HyperPoint, as_point
from .loops import curvature_radius

NR_DEFAULT = 64
NA_DEFAULT = 128
GRAD_TOL = 1e-10
NEWTON_MAXIT = 40
DEGENERATE_RTOL = 1e-7  # |eigenvalue| below this times ||Hess|| counts as zero


# ---------------------------------------------------------------------------
# Quadrature of F and its gradient (hyperbolic disk)
# ---------------------------------------------------------------------------


def _disk_nodes(k: float, nr: int, na: int):
    rk = curvature_radius(k)
    q, w = disk_rule(nr, na)
    return q * rk, w * rk**2, k * rk


def melnikov_grid(z1, z2, k: float, field, nr: int = NR_DEFAULT, na: int = NA_DEFAULT):
    """F on arrays of centers (vectorized over z, fixed quadrature order)."""
    expr = as_field(field)
    z1 = np.asarray(z1, dtype=float).ravel()
    z2 = np.asarray(z2, dtype=float).ravel()
    q, w, c = _disk_nodes(k, nr, na)
    out = np.empty(z1.size)
    weight = w / (q[:, 1] + c) ** 2
    for start in range(0, z1.size, 256):
        sl = slice(start, min(start + 256, z1.size))
        p1 = z1[None, sl] + np.outer(q[:, 0], z2[sl])
        p2 = np.outer(q[:, 1] + c, z2[sl])
        out[sl] = weight @ eval_field(expr, p1, p2)
    return out


def melnikov_value(
    z, k: float, field,
    nr: int = NR_DEFAULT, na: int = NA_DEFAULT,
    rtol: float = 1e-9, max_doublings: int = 3,
) -> float:
    """F at a single center, refining the rule until it stabilizes.

    The orders double until successive values agree to ``rtol`` relative
    to max(1, |F|); smooth fields stop at the first comparison.
    """
    zp = as_point(z)
    prev = float(melnikov_grid([zp.z1], [zp.z2], k, field, nr, na)[0])
    for _ in range(max_doublings):
        nr, na = 2 * nr, 2 * na
        cur = float(melnikov_grid([zp.z1], [zp.z2], k, field, nr, na)[0])
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"disk rule did not stabilize to rtol={rtol} after {max_doublings} doublings"
    )


def melnikov_gradient_grid(z1, z2, k: float, field, nr: int = NR_DEFAULT, na: int = NA_DEFAULT):
    """(dF/dz1, dF/dz2) on arrays of centers, by differentiating the integrand."""
    expr = as_field(field)
    d1, d2 = grad_field(expr)
    z1 = np.asarray(z1, dtype=float).ravel()
    z2 = np.asarray(z2, dtype=float).ravel()
    q, w, c = _disk_nodes(k, nr, na)
    weight = w / (q[:, 1] + c) ** 2
    g1 = np.empty(z1.size)
    g2 = np.empty(z1.size)
    for start in range(0, z1.size, 256):
        sl = slice(start, min(start + 256, z1.size))
        p1 = z1[None, sl] + np.outer(q[:, 0], z2[sl])
        p2 = np.outer(q[:, 1] + c, z2[sl])
        k1 = eval_field(d1, p1, p2)
        k2 = eval_field(d2, p1, p2)
        g1[sl] = weight @ k1
        g2[sl] = weight @ (k1 * q[:, 0:1] + k2 * (q[:, 1:2] + c))
    return g1, g2


def melnikov_gradient(z, k: float, field, nr: int = NR_DEFAULT, na: int = NA_DEFAULT) -> np.ndarray:
    zp = as_point(z)
    g1, g2 = melnikov_gradient_grid([zp.z1], [zp.z2], k, field, nr, na)
    return np.array([g1[0], g2[0]])


@dataclass(frozen=True)
class AsymptoticCheck:
    """Large-k comparison of the disk average against the pointwise density.

    ``lhs`` is F / (pi R_k**2 z2**2); ``rhs`` is K(z)/z2**2; ``relerr`` is
    their relative gap (absolute gap when rhs == 0).
    """

    lhs: float
    rhs: float
    relerr: float


def asymptotic_check(z, k: float, field) -> AsymptoticCheck:
    zp = as_point(z)
    rk = curvature_radius(k)
    lhs = melnikov_value(zp, k, field) / (np.pi * rk**2 * zp.z2**2)
    rhs = eval_field(field, zp.z1, zp.z2) / zp.z2**2
    gap = abs(lhs - rhs)
    return AsymptoticCheck(float(lhs), float(rhs), float(gap / abs(rhs) if rhs else gap))


# ---------------------------------------------------------------------------
# Critical-point search (generic over value/gradient callbacks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MelnikovSample:
    """One classified critical-point candidate."""

    z: tuple[float, float]
    value: float
    grad: np.ndarray
    hess: np.ndarray
    classification: str  # min | max | saddle | degenerate | none


@dataclass(frozen=True)
class CriticalSearch:
    """Search result: refined points plus grid-level evidence.

    ``interior_min``/``interior_max`` record whether the grid values attain
    a strict interior minimum/maximum (the elementary stability evidence);
    both are sampled statements, not certificates.  ``grid`` is the scanned
    landscape (z1, z2, F, dF1, dF2) as flat arrays in ``region.grid`` order.
    """

    points: tuple[MelnikovSample, ...]
    note: str | None
    interior_min: bool
    interior_max: bool
    grid: tuple[np.ndarray, ...]

    def require_points(self) -> tuple[MelnikovSample, ...]:
        if not self.points:
            raise NoCritical(self.note or "no critical point found in the region")
        return self.points


def _fd_jacobian(grad_fn, z, h):
    cols = []
    for axis in range(2):
        dz = np.zeros(2)
        dz[axis] = h
        cols.append((grad_fn(z + dz) - grad_fn(z - dz)) / (2.0 * h))
    jac = np.column_stack(cols)
    return 0.5 * (jac + jac.T)


def _classify(hess: np.ndarray) -> str:
    evals = np.linalg.eigvalsh(hess)
    scale = np.abs(evals).max()
    if scale == 0.0 or np.any(np.abs(evals) < DEGENERATE_RTOL * scale):
        return "degenerate"
    if np.all(evals > 0):
        return "min"
    if np.all(evals < 0):
        return "max"
    return "saddle"


def _newton_refine(grad_fn, z0, lower_z2, bounds):
    """Newton on the gradient; a root only counts inside the inflated region.

    Asymptotically flat fields drive Newton far outside the box, where the
    gradient decays below tolerance without an actual zero; such escapes
    are rejected rather than reported.
    """
    (lo1, hi1), (lo2, hi2) = bounds
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(NEWTON_MAXIT):
        g = grad_fn(z)
        if np.hypot(*g) < GRAD_TOL:
            break
        h = 1e-5 * max(1.0, float(np.hypot(*z)))
        jac = _fd_jacobian(grad_fn, z, h)
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return z, False
        for _ in range(20):
            if z[1] + step[1] > lower_z2:
                break
            step = 0.5 * step
        z = z + step
        if not (lo1 <= z[0] <= hi1 and lo2 <= z[1] <= hi2):
            return z, False
    return z, bool(np.hypot(*grad_fn(z)) < GRAD_TOL)


def search_critical_points(
    value_grid_fn, grad_grid_fn, region: RegionBox, grid: int = 32,
    lower_z2: float = 0.0,
) -> CriticalSearch:
    """Grid scan of |grad F|, Newton refinement, and Hessian classification.

    Seeds are grid-local minima of |grad F| visited in lexicographic
    (z1, z2) order, so output order is deterministic.  ``lower_z2`` keeps
    Newton iterates above the half-plane floor (pass -inf for the plane).
    """
    g1, g2 = region.grid(grid)
    shape = g1.shape
    z1, z2 = g1.ravel(), g2.ravel()
    flat, (d1, d2) = value_grid_fn(z1, z2), grad_grid_fn(z1, z2)
    landscape = (z1, z2, flat, d1, d2)
    values = flat.reshape(shape)
    gnorm = np.hypot(d1, d2).reshape(shape)

    interior_min = bool(
        grid > 2 and values[1:-1, 1:-1].min() < _boundary(values).min()
    )
    interior_max = bool(
        grid > 2 and values[1:-1, 1:-1].max() > _boundary(values).max()
    )

    vscale = max(1.0, float(np.abs(values).max()))
    if gnorm.max() <= 1e-12 * vscale:
        return CriticalSearch((), "F constant, no critical point", interior_min, interior_max,
                              landscape)

    def grad_fn(z):
        a, b = grad_grid_fn(np.array([z[0]]), np.array([z[1]]))
        return np.array([a[0], b[0]])

    def value_fn(z):
        return float(value_grid_fn(np.array([z[0]]), np.array([z[1]]))[0])

    padded = np.pad(gnorm, 1, constant_values=np.inf)
    neighborhood = np.ones(gnorm.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            neighborhood &= gnorm <= padded[1 + di : 1 + di + shape[0], 1 + dj : 1 + dj + shape[1]]

    margin1 = 0.5 * (region.z1max - region.z1min)
    margin2 = 0.5 * (region.z2max - region.z2min)
    bounds = (
        (region.z1min - margin1, region.z1max + margin1),
        (max(lower_z2, region.z2min - margin2), region.z2max + margin2),
    )
    points: list[MelnikovSample] = []
    for i, j in np.argwhere(neighborhood):
        z0 = np.array([g1[i, j], g2[i, j]])
        z, ok = _newton_refine(grad_fn, z0, lower_z2, bounds)
        if not ok:
            continue
        if any(np.hypot(*(z - np.asarray(p.z))) < 1e-6 for p in points):
            continue
        h = 1e-5 * max(1.0, float(np.hypot(*z)))
        hess = _fd_jacobian(grad_fn, z, h)
        points.append(
            MelnikovSample(
                z=(float(z[0]), float(z[1])),
                value=value_fn(z),
                grad=grad_fn(z),
                hess=hess,
                classification=_classify(hess),
            )
        )
    note = None if points else "no gradient zero found in the region"
    return CriticalSearch(tuple(points), note, interior_min, interior_max, landscape)


def _boundary(values: np.ndarray) -> np.ndarray:
    return np.concatenate(
        (values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1])
    )


def find_critical(
    k: float, field, region: RegionBox, grid: int = 32,
    nr: int = NR_DEFAULT, na: int = NA_DEFAULT,
) -> CriticalSearch:
    """Critical points of the hyperbolic disk average over a region box."""
    expr = as_field(field)

    def value_grid_fn(z1, z2):
        return melnikov_grid(z1, z2, k, expr, nr, na)

    def grad_grid_fn(z1, z2):
        return melnikov_gradient_grid(z1, z2, k, expr, nr, na)

    floor = 0.5 * region.z2min
    return search_critical_points(value_grid_fn, grad_grid_fn, region, grid, lower_z2=floor)


def critical_point(k: float, field, region: RegionBox, grid: int = 32) -> HyperPoint:
    """First non-degenerate critical point (deterministic order); raises NoCritical."""
    search = find_critical(k, field, region, grid)
    points = search.require_points()
    for p in points:
        if p.classification in ("min", "max", "saddle"):
            return HyperPoint(*p.z)
    return HyperPoint(*points[0].z)
