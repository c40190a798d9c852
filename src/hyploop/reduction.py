"""Lyapunov-Schmidt reduction: correction solve, reduced function, full solve.

For fixed (eps, z) the unknowns are a correction eta orthogonal to the
tangent space of the unperturbed solution manifold plus multipliers
(t, theta1, theta2):

    residual(base_z + eta) - t*T0 - theta1*T1 - theta2*T2 = 0
    <eta, T0> = <eta, T1> = <eta, T2> = 0

with T = (u', e1, u) the tangent fields of the reference loop.  The
nonlinear system is solved by Newton with GMRES linear solves:
Jacobian-vector products come from finite differences of the residual,
preconditioned by the exact inverse of the frozen bordered linearization
(the operator whose invertibility drives the reduction).  At a solution,
t vanishes and theta encodes the gradient of the reduced energy in z, so
critical centers are found by a small outer Newton iteration on theta.

The adapter, ``ProblemBase``, is written once over a ``Geometry`` record,
so the Euclidean variant runs through the same code with its flat record.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache

import numpy as np

from .errors import HyploopError, NewtonDiverged, NotEmbedded, StepTooLarge
from .fields import as_field
from .halfplane import HALFPLANE, as_point, translate
from .linearized import frozen_solve, tangent_fields
from .loops import (
    Loop,
    VerifyReport,
    c0_distance,
    c2_distance,
    dot_mean,
    energy,
    loop_length,
    reference_loop,
    residual,
    verify_solution,
)
from .melnikov import critical_point

REDUCE_TOL = 1e-11
FULL_RESIDUAL_TOL = 1e-9
FD_STEP = 1e-6  # relative step for Jacobian-vector products
Z_STEP = 1e-5   # step for the outer finite-difference Jacobian in z


# ---------------------------------------------------------------------------
# Problem adapters
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _reference_data(k: float, n: int):
    """Reference loop, read-only tangent fields, mean |u|^2 and reference energy."""
    reference = reference_loop(k, n)
    tangent = tangent_fields(k, n)
    mean_sq = float((reference.samples**2).sum(axis=1).mean())
    return reference, tangent, mean_sq, energy(reference, k).total


class ProblemBase:
    """Callbacks of the generic reduction driver, over a ``Geometry`` record.

    Subclasses set ``geometry`` and ``reference_data`` (k, n -> reference
    loop, tangent fields, mean_sq, reference energy) and define
    ``base_loop`` and ``frozen_solve``.
    """

    def __init__(self, k: float, field, n: int = 256):
        self.k = float(k)
        self.field = as_field(field) if field is not None else None
        self.n = int(n)
        self.reference, self.tangent, self.mean_sq, self.reference_energy = (
            self.reference_data(self.k, self.n))

    def residual(self, u: Loop, eps: float) -> np.ndarray:
        return residual(u, self.k, eps, self.field, self.geometry)

    def energy_total(self, u: Loop, eps: float) -> float:
        return energy(u, self.k, eps, self.field, geometry=self.geometry).total

    def verify(self, u: Loop, eps: float) -> VerifyReport:
        return verify_solution(u, self.k, eps, self.field, self.geometry)

    def length(self, u: Loop) -> float:
        return loop_length(u, self.geometry)

    def is_admissible(self, samples: np.ndarray) -> bool:
        return samples[:, 1].min() > self.geometry.floor

    def melnikov_seed(self, region, grid):
        return critical_point(self.k, self.field, region, grid, self.geometry)


class HyperbolicProblem(ProblemBase):
    """Half-plane callbacks consumed by the generic reduction driver."""

    geometry = HALFPLANE
    reference_data = staticmethod(_reference_data)

    def base_loop(self, z) -> Loop:
        return translate(as_point(z), self.reference)

    def frozen_solve(self, z, rhs, cons):
        return frozen_solve(z, self.k, rhs, cons)


# ---------------------------------------------------------------------------
# Reduction state and the Newton-Krylov driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionState:
    """Converged unknowns of the correction problem at one (eps, z)."""

    eps: float
    z: tuple[float, float]
    k: float
    eta: np.ndarray          # correction samples, (N, 2)
    t: float                 # rotation multiplier; vanishes at solutions
    theta: np.ndarray        # translation multipliers, (2,)
    residual_sup: float
    constraint_res: np.ndarray
    loop: Loop
    length: float
    iterations: int


def _pack(eta, t, theta):
    return np.concatenate((eta.ravel(), [t], theta))


def _unpack(x, n):
    return x[: 2 * n].reshape(n, 2), float(x[2 * n]), x[2 * n + 1 :].copy()


def _gmres(apply_op, b, rtol: float = 1e-6, maxiter: int = 40):
    """Full-memory GMRES with modified Gram-Schmidt.

    Convergence is judged on the Arnoldi least-squares residual, which is
    the right notion when ``apply_op`` is a finite-difference Jacobian
    product: its nonlinearity noise floors the *recomputed* true residual
    but not the Krylov one.  Returns (x, achieved relative residual).
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0.0
    basis = [b / norm_b]
    hess = np.zeros((maxiter + 1, maxiter))
    g = np.zeros(maxiter + 1)
    g[0] = norm_b
    y = np.zeros(0)
    rel = 1.0
    cols = 0
    for j in range(maxiter):
        w = apply_op(basis[j])
        for i in range(j + 1):
            hess[i, j] = basis[i] @ w
            w = w - hess[i, j] * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)
        cols = j + 1
        y, *_ = np.linalg.lstsq(hess[: j + 2, : j + 1], g[: j + 2], rcond=None)
        rel = np.linalg.norm(g[: j + 2] - hess[: j + 2, : j + 1] @ y) / norm_b
        if rel <= rtol or hess[j + 1, j] <= 1e-14 * norm_b:
            break
        basis.append(w / hess[j + 1, j])
    x = np.zeros_like(b)
    for i in range(cols):
        x += y[i] * basis[i]
    return x, float(rel)


def reduce_generic(problem, eps: float, z, warm: ReductionState | None = None) -> ReductionState:
    """Newton-Krylov solve of the bordered correction system, to REDUCE_TOL in 40 steps."""
    zp = np.asarray([z[0], z[1]] if not hasattr(z, "z1") else [z.z1, z.z2], dtype=float)
    n = problem.n
    base = problem.base_loop(zp)
    tang = problem.tangent

    eta = np.zeros((n, 2)) if warm is None else warm.eta.copy()
    t = 0.0 if warm is None else warm.t
    theta = np.zeros(2) if warm is None else warm.theta.copy()

    def evaluate(eta_, t_, theta_):
        u = Loop(base.samples + eta_)
        if not problem.is_admissible(u.samples):
            raise NewtonDiverged("correction iterate left the admissible set (u2 below the guard)")
        res = problem.residual(u, eps)
        top = res - t_ * tang[0] - theta_[0] * tang[1] - theta_[1] * tang[2]
        cons = np.array([dot_mean(eta_, tg) for tg in tang])
        return u, res, top, cons

    u, res, top, cons = evaluate(eta, t, theta)
    supF = max(np.abs(top).max(), np.abs(cons).max())
    iterations = 0
    stagnant = 0

    while not supF <= REDUCE_TOL:  # a NaN residual enters the loop and fails
        if not np.isfinite(supF):
            raise NewtonDiverged(f"correction residual is not finite ({supF})")
        if iterations >= 40:
            raise NewtonDiverged(
                f"correction Newton did not reach {REDUCE_TOL} in 40 iterations "
                f"(residual {supF:.3e})"
            )

        def matvec(v):
            phi, a, p = _unpack(v, n)
            scale = max(1.0, np.abs(phi).max())
            s = FD_STEP * (1.0 + np.abs(eta).max()) / scale
            for _ in range(8):
                probe = base.samples + eta + s * phi
                if problem.is_admissible(probe):
                    break
                s *= 0.5
            else:
                raise NewtonDiverged("finite-difference probe left the admissible set")
            dres = (problem.residual(Loop(probe), eps) - res) / s
            dtop = dres - a * tang[0] - p[0] * tang[1] - p[1] * tang[2]
            dcons = np.array([dot_mean(phi, tg) for tg in tang])
            return _pack(dtop, dcons[0], dcons[1:])

        def psolve(w):
            rho, c0, c12 = _unpack(w, n)
            phi, a, p = problem.frozen_solve(zp, rho, np.array([c0, *c12]))
            return _pack(phi, a, p)

        rhs = -_pack(top, cons[0], cons[1:])
        delta, rel = _gmres(lambda v: psolve(matvec(v)), psolve(rhs), rtol=1e-6)
        if not np.all(np.isfinite(delta)) or rel > 1e-2:
            raise NewtonDiverged(f"inner GMRES stalled at relative residual {rel:.3e}")

        d_eta, d_t, d_theta = _unpack(delta, n)
        step = 1.0
        halvings = 0
        while not problem.is_admissible(base.samples + eta + step * d_eta):
            step *= 0.5
            halvings += 1
            if halvings > 20:
                raise StepTooLarge(
                    "damping exhausted keeping the iterate admissible; try smaller |eps|"
                )
        eta = eta + step * d_eta
        t = t + step * d_t
        theta = theta + step * d_theta
        u, res, top, cons = evaluate(eta, t, theta)
        new_sup = max(np.abs(top).max(), np.abs(cons).max())
        stagnant = stagnant + 1 if new_sup > 0.9 * supF else 0
        if stagnant >= 3 and new_sup > REDUCE_TOL:
            raise NewtonDiverged(f"correction Newton stagnated at residual {new_sup:.3e}")
        supF = new_sup
        iterations += 1

    return ReductionState(
        eps=float(eps),
        z=(float(zp[0]), float(zp[1])),
        k=problem.k,
        eta=eta,
        t=float(t),
        theta=theta,
        residual_sup=float(supF),
        constraint_res=cons,
        loop=u,
        length=problem.length(u),
        iterations=iterations,
    )


def reduce_at(eps: float, z, k: float, field, n: int = 256) -> ReductionState:
    """Solve the half-plane correction problem at one (eps, z)."""
    return reduce_generic(HyperbolicProblem(k, field, n), eps, z)


# ---------------------------------------------------------------------------
# Reduced function and its gradient
# ---------------------------------------------------------------------------


def reduced_gradient_from_state(problem, state: ReductionState) -> np.ndarray:
    """Gradient of z -> E(u^eps_z) recovered from the multipliers.

    d1 E = theta1 / L,  d2 E = theta2 * mean|u_ref|^2 / L  (mean_sq = 1 in
    the plane); dual to the constraint normalization.
    """
    return np.array(
        [
            state.theta[0] / state.length,
            state.theta[1] * problem.mean_sq / state.length,
        ]
    )


def reduced_gradient(eps: float, z, k: float, field, n: int = 256,
                     state: ReductionState | None = None) -> np.ndarray:
    problem = HyperbolicProblem(k, field, n)
    if state is None:
        state = reduce_generic(problem, eps, z)
    return reduced_gradient_from_state(problem, state)


def reduced_energy_offset(eps: float, z, k: float, field, n: int = 256,
                          state: ReductionState | None = None) -> float:
    """The rescaled reduced energy (2*pi/eps) * (E(u^eps_z) - E(reference)).

    Converges (with its z-derivatives) to minus the disk-average function
    as eps -> 0, which is the computational content of the reduction.
    """
    if eps == 0.0:
        raise ValueError("the reduced energy offset needs eps != 0")
    problem = HyperbolicProblem(k, field, n)
    if state is None:
        state = reduce_generic(problem, eps, z)
    total = problem.energy_total(state.loop, eps)
    return float(2.0 * np.pi / eps * (total - problem.reference_energy))


# ---------------------------------------------------------------------------
# Full solve: critical center + genuine loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """A solved prescribed-curvature loop with its certification data."""

    loop: Loop
    eps: float
    k: float
    z_critical: tuple[float, float]
    mu: int
    embedded: bool
    defects: VerifyReport
    c0_dist: float
    c2_dist: float
    state: ReductionState | None
    melnikov_seed: tuple[float, float] | None = None


def _full_residual_sup(problem, state: ReductionState, eps: float) -> float:
    return float(np.abs(problem.residual(state.loop, eps)).max())


def solve_generic(problem, eps: float, region, grid: int = 16,
                  seed=None, warm: ReductionState | None = None) -> SolveReport:
    """Locate the critical center, in at most 30 Newton steps, and return the solved loop there.

    At eps = 0 every center solves: the first correction solve leaves the
    full residual at its floor, below FULL_RESIDUAL_TOL, and no step is taken.
    """
    if seed is None:
        seed = problem.melnikov_seed(region, grid)
    if hasattr(seed, "z1"):
        z = np.array([seed.z1, seed.z2], dtype=float)
    else:
        z = np.asarray(seed, dtype=float).copy()
    seed_tuple = (float(z[0]), float(z[1]))
    state = reduce_generic(problem, eps, z, warm=warm)
    for _ in range(30):
        if _full_residual_sup(problem, state, eps) < FULL_RESIDUAL_TOL:
            break
        g = reduced_gradient_from_state(problem, state)
        cols = []
        for axis in range(2):
            dz = np.zeros(2)
            dz[axis] = Z_STEP
            shifted = reduce_generic(problem, eps, z + dz, warm=state)
            cols.append((reduced_gradient_from_state(problem, shifted) - g) / Z_STEP)
        try:
            step = np.linalg.solve(np.column_stack(cols), -g)
        except np.linalg.LinAlgError:
            raise NewtonDiverged("singular reduced Jacobian in the center iteration")
        for _ in range(20):
            if z[1] + step[1] > 2 * problem.geometry.floor:
                break
            step = 0.5 * step
        z = z + step
        state = reduce_generic(problem, eps, z, warm=state)
    else:
        raise NewtonDiverged(
            f"center Newton did not reach residual {FULL_RESIDUAL_TOL} "
            f"(currently {_full_residual_sup(problem, state, eps):.3e})"
        )
    return _finalize(problem, state, eps, z, seed_tuple)


def _finalize(problem, state, eps, z, seed_tuple) -> SolveReport:
    defects = problem.verify(state.loop, eps)
    base = problem.base_loop(z)
    report = SolveReport(
        loop=state.loop,
        eps=float(eps),
        k=problem.k,
        z_critical=(float(z[0]), float(z[1])),
        mu=defects.mu,
        embedded=defects.embedded,
        defects=defects,
        c0_dist=c0_distance(state.loop, base),
        c2_dist=c2_distance(state.loop, base),
        state=state,
        melnikov_seed=seed_tuple,
    )
    if not defects.embedded:
        raise NotEmbedded("solved loop self-intersects", report=report)
    return report


def solve_full(eps: float, k: float, field, region, grid: int = 16,
               n: int = 256, seed=None) -> SolveReport:
    """End-to-end half-plane solve of the prescribed-curvature problem."""
    return solve_generic(HyperbolicProblem(k, field, n), eps, region, grid, seed=seed)


# ---------------------------------------------------------------------------
# Continuation in eps
# ---------------------------------------------------------------------------


@dataclass
class ContinuationResult:
    """Warm-started chain of solves, truncated at the first failure."""

    reports: list[SolveReport] = dataclass_field(default_factory=list)
    eps_bar: float = 0.0          # largest |eps| that solved
    failure: tuple[float, str] | None = None

    @property
    def solved_eps(self) -> list[float]:
        return [r.eps for r in self.reports]


def continue_generic(problem, region, eps_targets, grid: int = 16) -> ContinuationResult:
    targets = sorted(eps_targets, key=abs)
    result = ContinuationResult()
    seed = problem.melnikov_seed(region, grid)
    prev_report = None
    for eps in targets:
        try:
            if prev_report is None:
                report = solve_generic(problem, eps, region, grid, seed=seed)
            else:
                prev = prev_report.state
                scale = eps / prev_report.eps if prev_report.eps else 0.0
                warm = replace(prev, eta=prev.eta * scale, t=0.0, theta=prev.theta * scale)
                report = solve_generic(
                    problem, eps, region, grid,
                    seed=np.asarray(prev_report.z_critical), warm=warm,
                )
            result.reports.append(report)
            result.eps_bar = max(result.eps_bar, abs(eps))
            prev_report = report
        except HyploopError as exc:  # record and truncate the chain
            result.failure = (float(eps), f"{type(exc).__name__}: {exc}")
            break
    return result


def continue_eps(k: float, field, region, eps_targets, grid: int = 16,
                 n: int = 256) -> ContinuationResult:
    """Half-plane continuation over sorted eps targets with warm starts."""
    return continue_generic(HyperbolicProblem(k, field, n), region, eps_targets, grid)
