"""The inputs of the three workloads, made from the seed alone.

Every run repeats one *round* of operations until its time is up.  The seed
fixes the values in the round (k, eps, boxes, centers); it never changes the
kind of work, so every round of a workload has the same make-up and the
median operation time compares like with like across seeds.  Values that
change the amount of work (k above all) are drawn stratified: operation j
of a round draws k from the j-th of m equal slices of K_RANGE, so the
middle of the round sits near the middle of the range whatever the seed.

This module imports numpy only; it is shared by the measured worker and by
the checker.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("landscape", "solve", "reduced_map")

QUADRATIC = "z1^2 + (z2-2)^2"
TRANSCENDENTAL = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"

# k >= 2 keeps the default 64x128 disk rule converged on the transcendental
# field and keeps the N = 256 correction solve above its residual floor.
K_RANGE = (2.0, 3.0)
EPS_RANGE = (0.005, 0.02)
N_SAMPLES = 256

# solve: the fourth operation of every round.  It exits 4 (NewtonDiverged)
# because REDUCE_TOL is below the residual floor of the k = 1.3 circle at
# N = 256.  Its inputs do not depend on the seed, so it fails in every round.
FAILING_SOLVE = {"k": 1.3, "eps": 0.01, "box": (-0.6, 0.6, 1.2, 2.8)}

# solve: the flat mirror runs on fixed inputs.  `euclid solve` stagnates just
# above REDUCE_TOL at N = 256 for about a quarter of (k, eps) values in the
# ranges above (for example k = 2.2, eps = 0.01), so drawing them from the
# seed would make the failed share depend on the seed.
FLAT_SOLVE = {"k": 2.0, "eps": 0.01, "box": (-0.6, 0.6, 1.4, 2.6)}
FLAT_CENTER = (0.0, 2.0)


def _strata(rng, m: int, lo: float, hi: float) -> list[float]:
    return [lo + (j + rng.uniform()) * (hi - lo) / m for j in range(m)]


def _box(rng) -> tuple[float, float, float, float]:
    half = rng.uniform(0.5, 0.7)
    return (-half, half, rng.uniform(1.1, 1.3), rng.uniform(2.7, 2.9))


def melnikov_point(k: float) -> tuple[float, float]:
    """Critical point of the disk average of QUADRATIC (see checks.py)."""
    return (0.0, 2.0 * np.sqrt(k * k - 1.0) / k)


def landscape_round(seed: int, tiny: bool = False) -> list[dict]:
    """Two `hyploop melnikov` pairs, one box per field.

    Each box holds one critical point well inside it, so the critical-point
    search starts Newton once and the grid scan is most of the work; a box
    edge near a critical point would add a variable number of Newton runs.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in _strata(rng, 2, *K_RANGE):
        c1, c2 = rng.uniform(0.7, 0.8), rng.uniform(1.6, 1.7)
        h1, h2 = rng.uniform(0.25, 0.35), rng.uniform(0.3, 0.4)
        ops.append({"k": k, "grid": 3 if tiny else 12,
                    "boxes": (_box(rng), (c1 - h1, c1 + h1, c2 - h2, c2 + h2))})
    return ops


def solve_round(seed: int, tiny: bool = False) -> list[dict]:
    """Three solve/verify/euclid-solve operations plus the failing one."""
    rng = np.random.default_rng([seed, 2])
    grid = 4 if tiny else 12
    ops = [
        {"k": k, "eps": rng.uniform(*EPS_RANGE), "box": _box(rng), "grid": grid}
        for k in _strata(rng, 3, *K_RANGE)
    ]
    ops.append(dict(FAILING_SOLVE, grid=grid))
    return ops


def reduced_map_round(seed: int, tiny: bool = False) -> list[dict]:
    """Four reduced-energy maps on a square of centers, each at eps and eps/10."""
    rng = np.random.default_rng([seed, 3])
    side = 2 if tiny else 5
    ops = []
    for k in _strata(rng, 4, *K_RANGE):
        eps = rng.uniform(*EPS_RANGE)
        spacing = rng.uniform(0.03, 0.06)
        z1c, z2c = melnikov_point(k)
        offsets = spacing * (np.arange(side) - (side - 1) / 2.0)
        centers = [(z1c + a, z2c + b) for a in offsets for b in offsets]
        ops.append({"k": k, "eps": (eps, eps / 10.0), "centers": centers})
    return ops


ROUNDS = {
    "landscape": landscape_round,
    "solve": solve_round,
    "reduced_map": reduced_map_round,
}


def make_round(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    return ROUNDS[workload](seed, tiny)


def box_text(box) -> str:
    return ",".join(repr(float(v)) for v in box)
