"""Disk-averaged curvature perturbation and its critical points.

For curvature k + eps*K, first-order existence is governed by the function

    F(z) = integral of K over the hyperbolic disk of curvature-k radius
           centered at z, against the hyperbolic area element,

whose critical points seed the perturbed solutions.  The hyperbolic disk
is a Euclidean disk, so F reduces to a fixed-domain integral

    F(z) = integral over D_{R_k}(0) of (q2 + k*R_k)**-2 K(z2*q + z^k) dq,
    z^k = (z1, k*R_k*z2),

taken per center by Clenshaw-Curtis in the radius (n nodes, from 16) times
the trapezoid rule on 2n angles, its nodes in nested order: those of the
n/2 x n and n/4 x n/2 rules lead, so one array of K gives Q_n, Q_n/2 and
Q_n/4.  With gap = |Q_n - Q_n/2| and prev = |Q_n/2 - Q_n/4|, a center is
accepted when gap * sqrt(gap / prev) (the plain gap when prev is 0 or below
gap) is at most 1e-10 max(1, |F|) or the rounding of K; any other center
doubles n alone, evaluating K only at the new tail of its nodes, up to 512,
then raises QuadratureFailure.  By Reynolds' rule for the moving disk,
grad F is a periodic integral of K over its boundary circle, taken by a
trapezoid rule whose even nodes lead and check it per center on their gap
alone; no derivative of K is needed.  The critical-point search (grid
scan + Newton refinement + Hessian classification) works from grad F and
evaluates F only at the node of largest |grad F|, for its rounding scale,
and at each point it reports.  Each Newton iterate is one gradient call on
five centers, z and z +- h e_i, for grad F at z and its symmetrized
central-difference Hessian (``MelnikovSample.hess``).  ``find_critical``
adds F at every node, the landscape of ``hyploop melnikov``;
``critical_point``, the seed of a solve, does not.  Search, seed choice and
single values take a ``Geometry`` record for the flat plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import nested_disk_rule
from .errors import EvalDomainError, NoCritical, QuadratureFailure
from .fields import RegionBox, as_field, eval_field
from .halfplane import HALFPLANE, Geometry, _center, as_point
from .loops import curvature_radius

NR_DEFAULT = 64
NA_DEFAULT = 128
VALUE_ORDER = 16  # first radial order of the checked value rule; it doubles up to 32x
VALUE_RTOL = 1e-10
GRAD_TOL = 1e-10
NEWTON_MAXIT = 40
DEGENERATE_RTOL = 1e-7  # |eigenvalue| below this times ||Hess|| counts as zero


# ---------------------------------------------------------------------------
# Quadrature of F and its gradient (hyperbolic disk)
# ---------------------------------------------------------------------------


def melnikov_grid(z1, z2, k: float, field):
    """F on arrays of centers, each by the self-checked rule of the module docstring."""
    rk = curvature_radius(k)

    def rule(z1, z2, n, evaluate):
        q1, q2, *weights = nested_disk_rule(n)
        kv = evaluate(lambda s: (z1 + z2 * (rk * q1[s]), z2 * (rk * q2[s] + k * rk)))
        scale = (rk / (rk * q2 + k * rk)) ** 2  # the hyperbolic area element
        # one dot product per center: the same bits for a center alone or in a batch
        value, half, quarter = ((kv[:, None, : w.size] @ (w * scale[: w.size])[:, None])[:, 0, 0]
                                for w in weights)
        size = (abs(kv)[:, None] @ (weights[0] * scale)[:, None])[:, 0, 0]
        gap, prev = np.abs(value - half), np.abs(half - quarter)
        rate = np.divide(gap, prev, out=np.ones_like(gap), where=prev > gap)
        return value, gap * np.sqrt(rate), np.maximum(
            VALUE_RTOL * np.maximum(1.0, np.abs(value)), 4e-16 * size)

    return _per_center(z1, z2, as_field(field), np.empty(np.size(z1)), rule,
                       (VALUE_ORDER, 32 * VALUE_ORDER, lambda n: 2 * n * n),
                       ("inside the disk", "disk average did not stabilize"))


def melnikov_value(z, k: float, field, geometry: Geometry = HALFPLANE) -> float:
    """F at a single center, a HyperPoint or a pair, by the plane's self-checked grid rule."""
    z1, z2 = _center(as_point(z) if geometry.curved else z)
    value_grid = geometry.disk[0] if geometry.disk else melnikov_grid
    return float(value_grid([z1], [z2], k, field)[0])


def melnikov_gradient_grid(z1, z2, k: float, field):
    """(dF/dz1, dF/dz2) on arrays of centers, as an integral over the disk's boundary."""
    rk = curvature_radius(k)
    return _boundary_gradient(z1, z2, field, lift=k * rk, r0=0.0, r1=rk, curved=True)


def _per_center(z1, z2, expr, out, rule, orders, words):
    """Fill ``out`` by a rule that checks itself per center; a center it misses refines alone.

    ``rule(z1, z2, n, evaluate)`` takes a column of centers, gets K at its
    order-n points from ``evaluate(points)``, where ``points(s)`` gives the
    coordinates of the nodes ``s`` of its nested order, and returns their
    results, its error estimate and its tolerance.  ``orders``: the first
    order, the cap and K points per center at order n.  A center past its
    tolerance is redone on order 2n, whose leading points are those of order
    n: K there is kept, and only the tail is evaluated.  Past the cap it
    raises QuadratureFailure, and on a non-finite K EvalDomainError
    (``words`` name both).
    """
    z1, z2 = np.asarray(z1, dtype=float).ravel(), np.asarray(z2, dtype=float).ravel()
    (n, cap, size), todo = orders, np.arange(z1.size)
    known = np.empty((z1.size, 0))  # K at the last order's points of the centers todo

    def center(i):
        return f"center ({z1[i]:.6g}, {z2[i]:.6g})"

    def evaluate(points):  # K at the points of the centers idx, of which old is the leading block
        kv = eval_field(expr, *points(slice(old.shape[1], None)))
        bad = ~np.isfinite(kv).all(axis=1)
        if bad.any():
            raise EvalDomainError(f"field is not finite {words[0]} of "
                                  f"{center(idx[np.argmax(bad)])}")
        kept.append(np.concatenate((old, kv), axis=1))
        return kept[-1]

    while todo.size:
        left, kept, step = [], [], max(1, 2**19 // size(n))  # about 4 MB arrays
        for start in range(0, todo.size, step):
            idx, old = todo[start : start + step], known[start : start + step]
            rows, err, tol = rule(z1[idx, None], z2[idx, None], n, evaluate)
            ok = err <= tol
            out[idx[ok]] = rows[ok]
            if n >= cap and not ok.all():
                j = int(np.argmin(ok))
                raise QuadratureFailure(f"{words[1]} at {center(idx[j])}: halving estimate "
                                        f"{err[j]:.3e} with {size(n)} points")
            left.append(idx[~ok])
            kept[-1] = kept[-1][~ok]
        todo, known, n = np.concatenate(left), np.concatenate(kept), 2 * n
    return out


def _boundary_gradient(z1, z2, field, lift, r0, r1, curved):
    """grad F for the disks with center (z1, lift*z2) and radius r = r0 + r1*z2.

    By Reynolds' rule grad F is the integral of K(p) (nu1, lift*nu2 + r1) r dphi
    over p = center + r*nu, times p2**-2 if ``curved``.  A constant K gives 0,
    so each center's mean of K is taken off first.  The trapezoid sum on nb
    nodes is checked against the nb/2 sum on its even nodes, which lead in
    its node order, to 0.1*GRAD_TOL max(1, |grad F|) or the rounding of K,
    from 2*NA_DEFAULT up to 16*NA_DEFAULT.
    """
    def rule(z1, z2, nb, evaluate):
        m = np.arange(NA_DEFAULT)  # node indices in nested order: the even ones lead
        while m.size < nb:
            m = np.concatenate((2 * m, np.arange(1, 2 * m.size, 2)))
        theta = 2.0 * np.pi * m / nb
        n1, n2, r = np.cos(theta), np.sin(theta), r0 + r1 * z2
        kv = evaluate(lambda s: (z1 + r * n1[s], lift * z2 + r * n2[s]))
        p2 = lift * z2 + r * n2
        scale = r / (p2**2 if curved else 1.0)
        f = (kv - kv.mean(axis=1, keepdims=True)) * scale
        terms = (f * n1, f * (lift * n2 + r1))
        g = np.column_stack([t.sum(axis=1) for t in terms]) * (2.0 * np.pi / nb)
        half = np.column_stack([t[:, : nb // 2].sum(axis=1) for t in terms]) * (4.0 * np.pi / nb)
        noise = 4e-16 * (1.0 + lift + r1) * (2.0 * np.pi / nb) * np.abs(kv * scale).sum(axis=1)
        return g, np.hypot(*(g - half).T), np.maximum(
            0.1 * GRAD_TOL * np.maximum(1.0, np.hypot(*g.T)), noise)

    grad = _per_center(z1, z2, as_field(field), np.empty((np.size(z1), 2)), rule,
                       (2 * NA_DEFAULT, 16 * NA_DEFAULT, lambda nb: nb),
                       ("on the disk boundary", "gradient quadrature unresolved"))
    return grad[:, 0], grad[:, 1]


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


def _gradient_and_hessian(grad_grid_fn, z):
    """grad F at z and its symmetrized central-difference Hessian, from one five-center call.

    The centers are z, z + h e_i and z - h e_i with h = 1e-5 max(1, |z|); a
    center's row is bitwise that of a one-center call.
    """
    h = 1e-5 * max(1.0, float(np.hypot(*z)))
    dz = h * np.eye(2)
    grad = np.column_stack(grad_grid_fn(*np.vstack((z, z + dz, z - dz)).T))
    jac = (grad[1:3] - grad[3:5]) / (2.0 * h)  # row i: the difference along e_i
    return grad[0], 0.5 * (jac + jac.T)


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


def _newton_refine(grad_grid_fn, z0, lower_z2, bounds, tol):
    """Newton on the gradient down to ``tol``; a root only counts inside the inflated region.

    Each iterate costs one five-center gradient call, ``_gradient_and_hessian``,
    which gives grad F and the difference Hessian at z.  Asymptotically flat
    fields drive Newton far outside the box, where the gradient decays below
    tolerance without an actual zero; such escapes are rejected rather than
    reported.  Returns (z, converged, gradient at z, Hessian at z).
    """
    (lo1, hi1), (lo2, hi2) = bounds
    z = np.asarray(z0, dtype=float).copy()
    for it in range(NEWTON_MAXIT + 1):
        g, hess = _gradient_and_hessian(grad_grid_fn, z)
        converged = bool(np.hypot(*g) < tol)
        if converged or it == NEWTON_MAXIT:
            return z, converged, g, hess
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            return z, False, g, hess
        for _ in range(20):
            if z[1] + step[1] > lower_z2:
                break
            step = 0.5 * step
        z = z + step
        if not (lo1 <= z[0] <= hi1 and lo2 <= z[1] <= hi2):
            return z, False, None, None


def _refine(value_grid_fn, grad_grid_fn, region, lower_z2, scan, top_value):
    """Newton from each grid-local minimum of |grad F| in the scan, then Hessian classification.

    Starts are visited in lexicographic (z1, z2) order, so output order is
    deterministic; ``lower_z2`` keeps Newton iterates above the half-plane
    floor (-inf in the plane).  max(1, |top_value|), F at the node of largest
    |grad F|, is the rounding scale.
    """
    g1, g2, d1, d2, _ = scan
    gnorm = np.hypot(d1, d2).reshape(g1.shape)
    vscale = max(1.0, abs(float(top_value)))
    # grad F is resolved only to the rounding of K, about 1e-16 |F|: Newton stops there
    tol = max(GRAD_TOL, 1e-14 * vscale)
    if gnorm.max() <= 1e-12 * vscale:
        return (), "F constant, no critical point"

    windows = sliding_window_view(np.pad(gnorm, 1, constant_values=np.inf), (3, 3))
    neighborhood = gnorm <= windows.min(axis=(2, 3))  # no larger than any of its 8 neighbours

    margin1, margin2 = 0.5 * (region.z1max - region.z1min), 0.5 * (region.z2max - region.z2min)
    bounds = ((region.z1min - margin1, region.z1max + margin1),
              (max(lower_z2, region.z2min - margin2), region.z2max + margin2))
    points: list[MelnikovSample] = []
    for i, j in np.argwhere(neighborhood):
        z0 = np.array([g1[i, j], g2[i, j]])
        z, ok, grad, hess = _newton_refine(grad_grid_fn, z0, lower_z2, bounds, tol)
        if not ok or any(np.hypot(*(z - np.asarray(p.z))) < 1e-6 for p in points):
            continue
        value = float(value_grid_fn(np.array([z[0]]), np.array([z[1]]))[0])
        points.append(MelnikovSample((float(z[0]), float(z[1])), value, grad, hess,
                                     _classify(hess)))
    return tuple(points), None if points else "no gradient zero found in the region"


def _scan(k, field, region: RegionBox, grid: int, geometry):
    """F and grad F on arrays of centers in one plane, the floor of the Newton iterates, and the scan.

    The scan is the nodes of ``region.grid``, grad F there (flat) and the
    index of the largest |grad F|.
    """
    value_grid, gradient_grid = geometry.disk or (melnikov_grid, melnikov_gradient_grid)
    expr, floor = as_field(field), (0.5 * region.z2min if geometry.curved else -np.inf)
    value_grid_fn, grad_grid_fn = (lambda z1, z2: value_grid(z1, z2, k, expr),
                                   lambda z1, z2: gradient_grid(z1, z2, k, expr))
    g1, g2 = region.grid(grid)
    d1, d2 = grad_grid_fn(g1.ravel(), g2.ravel())
    return value_grid_fn, grad_grid_fn, floor, (g1, g2, d1, d2, int(np.argmax(np.hypot(d1, d2))))


def find_critical(k: float, field, region: RegionBox, grid: int = 32,
                  geometry: Geometry = HALFPLANE) -> CriticalSearch:
    """Critical points of the disk average over a region box, and the F landscape.

    F is evaluated at every grid node, which also gives the rounding scale of
    the search, and at each reported point.
    """
    value_grid_fn, grad_grid_fn, floor, scan = _scan(k, field, region, grid, geometry)
    g1, g2, d1, d2, top = scan
    z1, z2 = g1.ravel(), g2.ravel()
    flat = value_grid_fn(z1, z2)
    points, note = _refine(value_grid_fn, grad_grid_fn, region, floor, scan, flat[top])
    values = flat.reshape(g1.shape)
    edge = np.concatenate((values[[0, -1]].ravel(), values[1:-1, [0, -1]].ravel()))
    interior_min = bool(grid > 2 and values[1:-1, 1:-1].min() < edge.min())
    interior_max = bool(grid > 2 and values[1:-1, 1:-1].max() > edge.max())
    return CriticalSearch(points, note, interior_min, interior_max, (z1, z2, flat, d1, d2))


def critical_point(k: float, field, region: RegionBox, grid: int = 32,
                   geometry: Geometry = HALFPLANE) -> tuple[float, float]:
    """First non-degenerate critical point, found without the F landscape; raises NoCritical.

    The search of ``find_critical``, but F is evaluated only at the node of
    largest |grad F|, for the rounding scale, and at each point found.
    """
    value_grid_fn, grad_grid_fn, floor, scan = _scan(k, field, region, grid, geometry)
    g1, g2, _, _, top = scan
    top_value = value_grid_fn(g1.ravel()[top : top + 1], g2.ravel()[top : top + 1])[0]
    points, note = _refine(value_grid_fn, grad_grid_fn, region, floor, scan, top_value)
    if not points:
        raise NoCritical(note)
    for p in points:
        if p.classification in ("min", "max", "saddle"):
            return p.z
    return points[0].z
