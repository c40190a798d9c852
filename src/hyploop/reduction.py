"""Lyapunov-Schmidt reduction: correction solve, reduced function, full solve.

For fixed (eps, z) the unknowns are a correction eta orthogonal to the
tangent space of the unperturbed solution manifold plus multipliers
(t, theta1, theta2):

    residual(base_z + eta) - t*T0 - theta1*T1 - theta2*T2 = 0
    <eta, T0> = <eta, T1> = <eta, T2> = 0

with T = (u', e1, u) the tangent fields of the reference loop.  The
nonlinear system is solved by a chord iteration on the frozen bordered
linearization at the translated circle, the operator whose invertibility
drives the reduction: each step applies its exact inverse,
``frozen_solve``, to the current residual.  It stops on a small residual
(REDUCE_TOL) or on a small step (STEP_TOL); the step's rounding floor,
unlike the residual's, does not grow with N.  At a solution, t vanishes
and theta encodes the gradient of the reduced energy in z, so critical
centers are found by a small outer Newton iteration on theta.

The adapter, ``ProblemBase``, is written once over a ``Geometry`` record,
so the Euclidean variant runs through the same code with its flat record.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import HyploopError, NewtonDiverged, NotEmbedded, StepTooLarge
from .fields import as_field
from .halfplane import HALFPLANE, _center, as_point, translate
from .linearized import _circle, frozen_solve
from .loops import (
    Loop,
    VerifyReport,
    c0_distance,
    c2_distance,
    _length,
    energy,
    residual,
    verify_solution,
)
from .melnikov import critical_point

REDUCE_TOL = 1e-11
STEP_TOL = 1e-13
REDUCE_MAXIT = 100
FULL_RESIDUAL_TOL = 1e-9
Z_STEP = 1e-5   # step for the outer finite-difference Jacobian in z


# ---------------------------------------------------------------------------
# Problem adapters
# ---------------------------------------------------------------------------


class ProblemBase:
    """What the generic reduction driver needs of a plane besides its ``Geometry`` record.

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


class HyperbolicProblem(ProblemBase):
    """Half-plane callbacks consumed by the generic reduction driver."""

    geometry = HALFPLANE

    @staticmethod
    def reference_data(k: float, n: int):
        circle = _circle(k, n)
        return circle.base, circle.tangent, circle.mean_sq, circle.energy

    def base_loop(self, z) -> Loop:
        return translate(as_point(z), self.reference)

    def frozen_solve(self, z, rhs, cons):
        return frozen_solve(z, self.k, rhs, cons)


# ---------------------------------------------------------------------------
# Reduction state and the frozen-chord correction solve
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
    mean_sq: float           # mean |u_ref|**2 of the reference loop; 1 in the plane

    @property
    def gradient(self) -> np.ndarray:
        """Gradient of z -> E(u^eps_z) from the multipliers: (theta1, theta2 * mean_sq) / L."""
        return np.array([self.theta[0] / self.length, self.theta[1] * self.mean_sq / self.length])


def reduce_generic(problem, eps: float, z, warm: ReductionState | None = None) -> ReductionState:
    """Frozen-chord solve of the bordered correction system.

    Each step is d = ``problem.frozen_solve(z, -top, -cons)``, the exact
    inverse of the frozen linearization at the translated circle applied to
    the current residual, damped only to keep the iterate admissible.  The
    chord stops when sup|top, cons| <= REDUCE_TOL or sup|d| <= STEP_TOL, and
    gives up after REDUCE_MAXIT steps or when three steps running fail to
    shrink below 0.9 times the last.  Each iterate's residual is evaluated
    once, by ``residual``.
    """
    zp, n, geometry = _center(z), problem.n, problem.geometry
    base = problem.base_loop(zp)
    tang = problem.tangent
    pairing = tang.reshape(len(tang), 2 * n) / n  # row i . x.ravel() = dot_mean(x, tang[i])

    eta = np.zeros((n, 2)) if warm is None else warm.eta.copy()
    t = 0.0 if warm is None else warm.t
    theta = np.zeros(2) if warm is None else warm.theta.copy()

    def evaluate(samples, eta_, t_, theta_):
        u = Loop(samples)
        res = residual(u, problem.k, eps, problem.field, geometry)
        top = res - t_ * tang[0] - theta_[0] * tang[1] - theta_[1] * tang[2]
        return u, top, pairing @ eta_.ravel()

    samples = base.samples + eta
    if not samples[:, 1].min() > geometry.floor:
        raise NewtonDiverged("correction iterate left the admissible set (u2 below the guard)")
    u, top, cons = evaluate(samples, eta, t, theta)
    supF = max(np.abs(top).max(), np.abs(cons).max())
    iterations = 0
    stagnant = 0
    last = np.inf

    while not supF <= REDUCE_TOL:  # a NaN residual enters the loop and fails
        if not np.isfinite(supF):
            raise NewtonDiverged(f"correction residual is not finite ({supF})")
        d_eta, d_t, d_theta = problem.frozen_solve(zp, -top, -cons)
        size = max(np.abs(d_eta).max(), abs(d_t), np.abs(d_theta).max())
        if size <= STEP_TOL:
            break
        stagnant = stagnant + 1 if size > 0.9 * last else 0
        if stagnant >= 3:
            raise NewtonDiverged(f"correction chord stagnated at step {size:.3e}")
        if iterations >= REDUCE_MAXIT:
            raise NewtonDiverged(
                f"correction chord did not converge in {REDUCE_MAXIT} steps "
                f"(residual {supF:.3e}, step {size:.3e})"
            )
        last = size
        step, halvings = 1.0, 0
        while True:  # the candidate iterate, evaluated as built once it is admissible
            candidate = eta + step * d_eta
            samples = base.samples + candidate
            if samples[:, 1].min() > geometry.floor:
                break
            step *= 0.5
            halvings += 1
            if halvings > 20:
                raise StepTooLarge(
                    "damping exhausted keeping the iterate admissible; try smaller |eps|"
                )
        eta = candidate
        t = t + step * d_t
        theta = theta + step * d_theta
        u, top, cons = evaluate(samples, eta, t, theta)
        supF = max(np.abs(top).max(), np.abs(cons).max())
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
        length=_length(u.deriv(1), geometry.height(u)),  # u passed residual's checks
        iterations=iterations,
        mean_sq=problem.mean_sq,
    )


def reduce_at(eps: float, z, k: float, field, n: int = 256) -> ReductionState:
    """Solve the half-plane correction problem at one (eps, z)."""
    return reduce_generic(HyperbolicProblem(k, field, n), eps, z)


# ---------------------------------------------------------------------------
# Reduced function and its gradient
# ---------------------------------------------------------------------------


def reduced_gradient(eps: float, z, k: float, field, n: int = 256,
                     state: ReductionState | None = None) -> np.ndarray:
    """Gradient of z -> E(u^eps_z): ``ReductionState.gradient`` of the solve at (eps, z)."""
    if state is None:
        state = reduce_at(eps, z, k, field, n)
    return state.gradient


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
    total = energy(state.loop, problem.k, eps, problem.field).total
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
    state: ReductionState
    melnikov_seed: tuple[float, float] | None = None


def solve_generic(problem, eps: float, region, grid: int = 16,
                  seed=None, warm: ReductionState | None = None) -> SolveReport:
    """Locate the critical center, in at most 30 Newton steps, and return the solved loop there.

    The center iteration stops once sup|t*T0 + theta1*T1 + theta2*T2| <
    FULL_RESIDUAL_TOL: the full residual less the correction's own, free of
    the rounding of spectral derivatives.  At eps = 0 every center solves:
    the first correction solve leaves the multipliers at zero and no step
    is taken.
    """
    if seed is None:
        seed = critical_point(problem.k, problem.field, region, grid, problem.geometry)
    z = _center(seed)
    seed_tuple = (float(z[0]), float(z[1]))
    state = reduce_generic(problem, eps, z, warm=warm)
    for _ in range(30):
        if _multiplier_sup(problem, state) < FULL_RESIDUAL_TOL:
            break
        g = state.gradient
        cols = []
        for axis in range(2):
            dz = np.zeros(2)
            dz[axis] = Z_STEP
            shifted = reduce_generic(problem, eps, z + dz, warm=state)
            cols.append((shifted.gradient - g) / Z_STEP)
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
            f"(currently {_multiplier_sup(problem, state):.3e})"
        )
    return _finalize(problem, state, eps, z, seed_tuple)


def _multiplier_sup(problem, state: ReductionState) -> float:
    """sup|t*T0 + theta1*T1 + theta2*T2|, the multiplier part of the full residual."""
    mults = np.concatenate(([state.t], state.theta))
    return float(np.abs(np.tensordot(mults, problem.tangent, axes=1)).max())


def _finalize(problem, state, eps, z, seed_tuple) -> SolveReport:
    defects = verify_solution(state.loop, problem.k, eps, problem.field, problem.geometry)
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


def continue_generic(problem, region, eps_targets, grid: int = 16) -> ContinuationResult:
    targets = sorted(eps_targets, key=abs)
    result = ContinuationResult()
    seed = critical_point(problem.k, problem.field, region, grid, problem.geometry)
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
