"""Loops of prescribed, almost constant geodesic curvature in the half-plane.

The package computes closed embedded curves whose geodesic curvature in
the Poincare half-plane equals k + eps*K at every point: exact half-plane
primitives, a curvature-field parser with symbolic derivatives, spectral
loop functionals, the frequency-block linearization around the reference
circle, the disk-average (Melnikov) landscape, and a Lyapunov-Schmidt
solver whose correction step is a frozen chord, plus the flat-plane
counterpart used as an oracle for the whole pipeline.
"""

from .errors import (
    DegenerateLoop,
    EvalDomainError,
    FieldSyntaxError,
    HyploopError,
    NewtonDiverged,
    NoCritical,
    NotEmbedded,
    QuadratureFailure,
    StepTooLarge,
)
from .fields import (
    FieldExpr,
    NonexistenceReport,
    PlaneBox,
    RegionBox,
    check_nonexistence,
    eval_field,
    grad_field,
    parse_field,
)
from .halfplane import (
    HyperPoint,
    HypDisk,
    christoffel,
    disk_to_euclid,
    geodesic_curvature,
    hyp_distance,
    translate,
)
from .linearized import (
    apply_frame_operator,
    apply_linearization,
    from_frame,
    kernel_basis,
    kernel_report,
    mode_blocks,
    to_frame,
)
from .loops import (
    EnergyBreakdown,
    Loop,
    VerifyReport,
    curvature_radius,
    energy,
    load_loop,
    loop_length,
    reference_loop,
    residual,
    save_loop,
    signed_area,
    verify_solution,
    winding_number,
)
from .melnikov import (
    AsymptoticCheck,
    CriticalSearch,
    MelnikovSample,
    asymptotic_check,
    find_critical,
    melnikov_value,
)
from .reduction import (
    ContinuationResult,
    ReductionState,
    SolveReport,
    continue_eps,
    reduce_at,
    reduced_energy_offset,
    reduced_gradient,
    solve_full,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCheck",
    "ContinuationResult",
    "CriticalSearch",
    "DegenerateLoop",
    "EnergyBreakdown",
    "EvalDomainError",
    "FieldExpr",
    "FieldSyntaxError",
    "HypDisk",
    "HyperPoint",
    "HyploopError",
    "Loop",
    "MelnikovSample",
    "NewtonDiverged",
    "NoCritical",
    "NonexistenceReport",
    "NotEmbedded",
    "PlaneBox",
    "QuadratureFailure",
    "ReductionState",
    "RegionBox",
    "SolveReport",
    "StepTooLarge",
    "VerifyReport",
    "apply_frame_operator",
    "apply_linearization",
    "asymptotic_check",
    "check_nonexistence",
    "christoffel",
    "continue_eps",
    "curvature_radius",
    "disk_to_euclid",
    "energy",
    "eval_field",
    "find_critical",
    "from_frame",
    "geodesic_curvature",
    "grad_field",
    "hyp_distance",
    "kernel_basis",
    "kernel_report",
    "load_loop",
    "loop_length",
    "melnikov_value",
    "mode_blocks",
    "parse_field",
    "reduce_at",
    "reduced_energy_offset",
    "reduced_gradient",
    "reference_loop",
    "residual",
    "save_loop",
    "signed_area",
    "solve_full",
    "to_frame",
    "translate",
    "verify_solution",
    "winding_number",
]
