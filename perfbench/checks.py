"""Checks of hyploop's outputs made apart from the program: numpy and scipy only.

Every check returns a list of problems; an empty list means the output is
accepted.  Tolerances are derived from the program's documented stopping
rules (copied below), plus the rounding floor of this module's own spectral
derivatives, measured on the exact circle where the answer is known.  None
is fitted to the outputs being checked.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

import workloads

# The program's stopping rules (hyploop.melnikov, hyploop.reduction).
GRAD_TOL = 1e-10          # critical-point Newton stops once |grad F| < GRAD_TOL
QUAD_RTOL = 1e-9          # a disk average counts as converged at this relative change
REDUCE_TOL = 1e-11        # correction Newton stops once sup|residual - multipliers| <= this
FULL_RESIDUAL_TOL = 1e-9  # center Newton stops once sup|residual| < this
FLOOR_FACTOR = 4.0        # headroom over the measured rounding floor


# ---------------------------------------------------------------------------
# The curvature fields in plain numpy
# ---------------------------------------------------------------------------


def quadratic(z1, z2):
    return z1**2 + (z2 - 2.0) ** 2


def transcendental(z1, z2):
    return np.exp(-z1**2) * np.sin(z2) + np.tanh(z1 * z2)


def transcendental_grad(z1, z2):
    sech2 = 1.0 / np.cosh(z1 * z2) ** 2
    return (-2.0 * z1 * np.exp(-z1**2) * np.sin(z2) + z2 * sech2,
            np.exp(-z1**2) * np.cos(z2) + z1 * sech2)


# ---------------------------------------------------------------------------
# Disk averages
# ---------------------------------------------------------------------------


def radius(k: float) -> float:
    """Euclidean radius of the curvature-k circle of unit height."""
    return 1.0 / np.sqrt(k * k - 1.0)


@lru_cache(maxsize=64)
def quadratic_coefficients(k: float) -> tuple[float, float, float]:
    """(A, P, D) with F(z) = A (z1^2 + 4) + P z2^2 - 4 D z2 for QUADRATIC.

    F(z) integrates K(z1 + z2 q1, z2 (q2 + c)) (q2 + c)^-2 over the disk
    |q| < R, c = k R.  Odd powers of q1 drop out, leaving three
    one-dimensional integrals over chords q2 = s, of half-width h:
    A = int (q2+c)^-2, B = int q1^2 (q2+c)^-2, D = int (q2+c)^-1, and
    P = B + pi R^2.  With s = R sin(phi) the integrands are analytic on
    [-pi/2, pi/2], so Gauss-Legendre converges to rounding.
    """
    r = radius(k)
    c = k * r
    x, w = leggauss(200)
    phi = 0.5 * np.pi * x
    w = 0.5 * np.pi * w * r * np.cos(phi)   # ds
    s = r * np.sin(phi)
    h = r * np.cos(phi)
    a = np.sum(w * 2.0 * h / (s + c) ** 2)
    b = np.sum(w * (2.0 / 3.0) * h**3 / (s + c) ** 2)
    d = np.sum(w * 2.0 * h / (s + c))
    return float(a), float(b + np.pi * r * r), float(d)


def quadratic_landscape(k: float, z1, z2):
    """F, dF/dz1, dF/dz2 of QUADRATIC at centers (z1, z2)."""
    a, p, d = quadratic_coefficients(k)
    return (a * (z1**2 + 4.0) + p * z2**2 - 4.0 * d * z2,
            2.0 * a * z1, 2.0 * p * z2 - 4.0 * d)


def quadratic_critical_point(k: float) -> tuple[np.ndarray, float]:
    """The critical point of F and the smaller Hessian eigenvalue there."""
    a, p, d = quadratic_coefficients(k)
    return np.array([0.0, 2.0 * d / p]), 2.0 * min(a, p)


@lru_cache(maxsize=256)
def transcendental_reference(k: float, z1: float, z2: float) -> tuple[float, float, float]:
    """F and grad F of TRANSCENDENTAL at one center, by scipy's dblquad."""
    from scipy.integrate import dblquad

    r = radius(k)
    c = k * r

    def integrand(rho, phi, which):
        q1, q2 = rho * np.cos(phi), rho * np.sin(phi) + c
        p1, p2 = z1 + z2 * q1, z2 * q2
        k1, k2 = transcendental_grad(p1, p2)
        value = (transcendental(p1, p2), k1, k1 * q1 + k2 * q2)[which]
        return value * rho / q2**2

    return tuple(dblquad(integrand, 0.0, 2.0 * np.pi, 0.0, r, args=(which,),
                         epsabs=1e-13, epsrel=1e-13)[0] for which in range(3))


# ---------------------------------------------------------------------------
# Loops: spectral derivatives, curvature, residual, winding, simplicity
# ---------------------------------------------------------------------------


def derivatives(u: np.ndarray):
    """First and second derivatives in the parameter of N periodic samples."""
    n = u.shape[0]
    wave = np.fft.rfftfreq(n, 1.0 / n)
    coeffs = np.fft.rfft(u, axis=0)
    first = 1j * wave
    first[-1] = 0.0  # the Nyquist mode has no real odd derivative
    return (np.fft.irfft(coeffs * first[:, None], n, axis=0),
            np.fft.irfft(coeffs * (-(wave**2))[:, None], n, axis=0))


def reference_circle(k: float, n: int):
    """The curvature-k circle about (0, 1), parametrized as the program's
    reference loop (cos t, 1/R) / (k - sin t), with its exact derivative."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = radius(k)
    den = k - np.sin(t)
    u = np.column_stack((np.cos(t) / den, 1.0 / (r * den)))
    du = np.column_stack(((1.0 - k * np.sin(t)) / den**2, np.cos(t) / (r * den**2)))
    return u, du


def rot(v):
    return np.column_stack((-v[:, 1], v[:, 0]))


def euclidean_curvature(du, ddu):
    return (du[:, 0] * ddu[:, 1] - du[:, 1] * ddu[:, 0]) / np.hypot(du[:, 0], du[:, 1]) ** 3


def geodesic_curvature(u, du, ddu):
    """Half-plane curvature y kappa_e + cos(alpha), alpha the tangent angle.

    From the conformal change kappa_g = e^-f (kappa_e - d_n f), f = -log y.
    """
    return u[:, 1] * euclidean_curvature(du, ddu) + du[:, 0] / np.hypot(du[:, 0], du[:, 1])


def residual(u, k, eps):
    """J = y^-2 (-u'' + y^-1 G(u') + L (k + eps K(u)) i u'), G(v) = (2 v1 v2, v2^2 - v1^2).

    L is the hyperbolic speed sqrt(mean |u'|^2 / y^2); J vanishes exactly on
    loops of constant speed and geodesic curvature k + eps K.
    """
    du, ddu = derivatives(u)
    y = u[:, 1]
    speed = np.sqrt(np.mean((du**2).sum(axis=1) / y**2))
    kappa = k + eps * quadratic(u[:, 0], y)
    gamma = np.column_stack((2.0 * du[:, 0] * du[:, 1], du[:, 1] ** 2 - du[:, 0] ** 2))
    return (-ddu + gamma / y[:, None] + speed * kappa[:, None] * rot(du)) / y[:, None] ** 2


def winding(u) -> int:
    rel = u - u.mean(axis=0)
    angle = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    step = np.angle(np.exp(1j * (angle[0] - angle[-1])))
    return int(round((angle[-1] - angle[0] + step) / (2.0 * np.pi)))


def star_shaped(u) -> bool:
    """Polar angle about the centroid strictly increasing once around.

    A closed polygon with that property is simple; near-circles have it.
    """
    rel = u - u.mean(axis=0)
    angle = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    steps = np.diff(np.append(angle, angle[0] + 2.0 * np.pi))
    return bool(np.all(steps > 0.0))


def read_loop(path) -> tuple[np.ndarray, dict]:
    """A loop CSV (j,x1,x2,u1,u2) and its JSON sidecar, checked for shape."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["j", "x1", "x2", "u1", "u2"]:
        raise ValueError(f"{path}: header {rows[0]}")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    meta = json.loads(Path(path).with_suffix(".json").read_text())
    n = data.shape[0]
    t = 2.0 * np.pi * np.arange(n) / n
    if (not np.array_equal(data[:, 0], np.arange(n)) or meta["N"] != n
            or np.abs(data[:, 1:3] - np.column_stack((np.cos(t), np.sin(t)))).max() > 1e-15):
        raise ValueError(f"{path}: samples are not j = 0..N-1 on the unit circle")
    return data[:, 3:5], meta


def loop_problems(u, k, eps, flat: bool, center) -> list[str]:
    """Curvature, constant speed, winding 1 and simplicity of a solved loop.

    The solver stops at sup|J| < FULL_RESIDUAL_TOL.  On a loop of near
    constant speed s = L y (flat: s = L) the normal part of J gives
    |kappa - target| <= |J| y / L^2 (flat: |J| / L^2), and the tangential
    part gives (s^2)' = -2 J.u', so |s - L| <= 2 pi |J| max|u'| / L.
    """
    n = u.shape[0]
    du, ddu = derivatives(u)
    target = k + eps * quadratic(u[:, 0], u[:, 1])
    circle, _ = reference_circle(k, n)
    if flat:
        t = 2.0 * np.pi * np.arange(n) / n
        circle = np.asarray(center) + np.column_stack((np.cos(t), np.sin(t))) / k
        speed = np.hypot(du[:, 0], du[:, 1])
        curvature = euclidean_curvature(du, ddu)
        cdu, cddu = derivatives(circle)
        circle_curv = euclidean_curvature(cdu, cddu)
        circle_speed = np.hypot(cdu[:, 0], cdu[:, 1])
        height = 1.0
    else:
        circle = np.array([center[0], 0.0]) + center[1] * circle
        speed = np.hypot(du[:, 0], du[:, 1]) / u[:, 1]
        curvature = geodesic_curvature(u, du, ddu)
        cdu, cddu = derivatives(circle)
        circle_curv = geodesic_curvature(circle, cdu, cddu)
        circle_speed = np.hypot(cdu[:, 0], cdu[:, 1]) / circle[:, 1]
        height = u[:, 1].max()
    length = np.sqrt(np.mean(speed**2))
    curv_floor = np.abs(circle_curv - k).max()
    speed_floor = np.abs(circle_speed - np.sqrt(np.mean(circle_speed**2))).max()
    tol_curv = FULL_RESIDUAL_TOL * height / length**2 + FLOOR_FACTOR * curv_floor
    tol_speed = (2.0 * np.pi * FULL_RESIDUAL_TOL * np.hypot(du[:, 0], du[:, 1]).max() / length
                 + FLOOR_FACTOR * speed_floor)
    problems = []
    curv_defect = float(np.abs(curvature - target).max())
    speed_defect = float(np.abs(speed - length).max())
    if not flat and u[:, 1].min() <= 0.0:
        problems.append("loop leaves the half-plane")
    if not curv_defect <= tol_curv:
        problems.append(f"curvature defect {curv_defect:.3e} > {tol_curv:.3e}")
    if not speed_defect <= tol_speed:
        problems.append(f"speed defect {speed_defect:.3e} > {tol_speed:.3e}")
    if winding(u) != 1:
        problems.append(f"winding {winding(u)} != 1")
    if not star_shaped(u):
        problems.append("loop is not star-shaped about its centroid (simplicity unproven)")
    return problems


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _read_landscape_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["z1", "z2", "F", "dF1", "dF2"]:
        raise ValueError(f"{path}: header {rows[0]}")
    return np.array([[float(v) for v in row] for row in rows[1:]])


def check_landscape_quadratic(spec, report: dict, rows: np.ndarray) -> list[str]:
    """Every CSV row and the reported critical point against the closed form."""
    k, grid = spec["k"], spec["grid"]
    problems = []
    box = spec["boxes"][0]
    g1, g2 = np.meshgrid(np.linspace(*box[:2], grid), np.linspace(*box[2:], grid),
                         indexing="ij")
    if rows.shape != (grid * grid, 5) or not _close(rows[:, 0], g1.ravel(), 1e-15) \
            or not _close(rows[:, 1], g2.ravel(), 1e-15):
        return ["landscape CSV does not hold the requested grid"]
    f, d1, d2 = quadratic_landscape(k, rows[:, 0], rows[:, 1])
    scale = np.maximum(1.0, np.abs(f))
    for name, got, want in (("F", rows[:, 2], f), ("dF1", rows[:, 3], d1), ("dF2", rows[:, 4], d2)):
        err = np.abs(got - want) / scale
        if not err.max() <= QUAD_RTOL:
            problems.append(f"CSV {name} off by {err.max():.3e} (relative) at row {err.argmax()}")
    zstar, lam = quadratic_critical_point(k)
    points = report["points"]
    if len(points) != 1:
        return problems + [f"{len(points)} critical points reported, F has exactly one"]
    p = points[0]
    z = np.array([p["z1"], p["z2"]])
    fz = quadratic_landscape(k, *zstar)[0]
    tol_z = (GRAD_TOL + QUAD_RTOL * max(1.0, abs(fz))) / lam
    if not np.abs(z - zstar).max() <= tol_z:
        problems.append(f"critical point {z} is {np.abs(z - zstar).max():.3e} from {zstar} "
                        f"(tolerance {tol_z:.3e})")
    if not abs(p["F"] - fz) <= QUAD_RTOL * max(1.0, abs(fz)):
        problems.append(f"F at the critical point {p['F']!r} != {fz!r}")
    if p["classification"] != "min":
        problems.append(f"critical point classified {p['classification']}, F is convex")
    return problems


def check_landscape_transcendental(spec, report: dict) -> list[str]:
    """Each reported critical point against scipy quadrature."""
    problems = []
    for p in report["points"]:
        f, g1, g2 = transcendental_reference(float(spec["k"]), float(p["z1"]), float(p["z2"]))
        tol_f = QUAD_RTOL * max(1.0, abs(f))
        if not abs(p["F"] - f) <= tol_f:
            problems.append(f"F({p['z1']:.6f}, {p['z2']:.6f}) = {p['F']!r}, scipy gives {f!r}")
        if not np.hypot(g1, g2) <= GRAD_TOL + tol_f:
            problems.append(f"scipy |grad F| = {np.hypot(g1, g2):.3e} at the reported point")
    return problems


def check_solve(spec, reports: list[dict], loop_path, flat_path) -> list[str]:
    """Solve, verify and flat solve of one operation."""
    solve, verify, flat = reports
    k, eps = spec["k"], spec["eps"]
    problems = []
    u, meta = read_loop(loop_path)
    z = np.array(solve["z_critical"])
    problems += ["solve: " + m for m in loop_problems(u, k, eps, flat=False, center=z)]
    zstar, lam = quadratic_critical_point(k)
    # The field and the problem are symmetric under z1 -> -z1, so the exact
    # center has z1 = 0; the center Newton resolves it to about
    # 2 pi FULL_RESIDUAL_TOL / (eps lam), allowed with a factor of ten.
    tol_z1 = 10.0 * 2.0 * np.pi * FULL_RESIDUAL_TOL / (eps * lam)
    if not abs(z[0]) <= tol_z1:
        problems.append(f"solve: center z1 = {z[0]:.3e}, symmetry requires 0 (tol {tol_z1:.1e})")
    if not abs(z[1] - zstar[1]) <= eps:
        problems.append(f"solve: center z2 = {z[1]!r} is not within eps of {zstar[1]!r}")
    if (meta["k"], meta["eps"], meta["field"]) != (k, eps, workloads.QUADRATIC):
        problems.append(f"solve: sidecar {meta} does not match the input")
    # re-loading must re-verify to the same defects as the solve reported
    if verify["defects"] != solve["defects"]:
        problems.append("verify: defects differ from the solve report on the same loop")
    if verify["defects"]["mu"] != 1 or not verify["defects"]["embedded"]:
        problems.append(f"verify: mu={verify['defects']['mu']} embedded={verify['defects']['embedded']}")

    fk, feps = workloads.FLAT_SOLVE["k"], workloads.FLAT_SOLVE["eps"]
    uf, _ = read_loop(flat_path)
    zf = np.array(flat["z_critical"])
    problems += ["euclid solve: " + m for m in loop_problems(uf, fk, feps, flat=True, center=zf)]
    if not np.abs(zf - workloads.FLAT_CENTER).max() <= feps:
        problems.append(f"euclid solve: center {zf} is not within eps of {workloads.FLAT_CENTER}")
    return problems


def check_reduced_map(spec, data) -> list[str]:
    """Residual identity, constraints and the eps -> 0 limit of one map.

    At each center the correction solve returns u with
    J(u) = t T0 + theta1 T1 + theta2 T2 (T the tangent fields of the
    reference loop: u', e1, u) and <u - base, T_i> = 0, both to REDUCE_TOL.
    The rescaled energy (2 pi / eps)(E - E_ref) tends to -F with an O(eps)
    gap, so dividing eps by ten divides the gap by about ten.
    """
    k = spec["k"]
    n = data["samples"].shape[1]
    ref, dref = reference_circle(k, n)
    e1 = np.column_stack((np.ones(n), np.zeros(n)))
    tangents = (dref, e1, ref)
    problems = []
    gaps = {}
    for i in range(len(data["eps"])):
        eps, z, u = float(data["eps"][i]), data["z"][i], data["samples"][i]
        base = np.array([z[0], 0.0]) + z[1] * ref
        floor = np.abs(residual(base, k, 0.0)).max()
        tol = REDUCE_TOL + FLOOR_FACTOR * floor
        combo = data["t"][i] * dref + data["theta"][i][0] * e1 + data["theta"][i][1] * ref
        gap = np.abs(residual(u, k, eps) - combo).max()
        if not gap <= tol:
            problems.append(f"center {z}, eps {eps}: |J - multipliers| = {gap:.3e} > {tol:.3e}")
        eta = u - base
        cons = np.array([np.mean((eta * tg).sum(axis=1)) for tg in tangents])
        if not np.abs(cons).max() <= tol:
            problems.append(f"center {z}, eps {eps}: constraints {cons} exceed {tol:.1e}")
        f, d1, d2 = quadratic_landscape(k, z[0], z[1])
        speed = np.sqrt(np.mean((derivatives(u)[0] ** 2).sum(axis=1) / u[:, 1] ** 2))
        gaps[(float(z[0]), float(z[1]), eps)] = (
            data["offset"][i] + f,
            np.hypot(*(2.0 * np.pi / eps * data["grad"][i] + (d1, d2))),
            2.0 * np.pi * REDUCE_TOL / (eps * speed),
        )
    big, small = spec["eps"]
    for z in spec["centers"]:
        value_big, grad_big, _ = gaps[(z[0], z[1], big)]
        value_small, grad_small, noise = gaps[(z[0], z[1], small)]
        ratio = value_big / value_small
        if not 10.0 / 1.5 <= ratio <= 10.0 * 1.5:
            problems.append(f"center {z}: energy gap {value_big:.3e} -> {value_small:.3e} "
                            f"shrinks {ratio:.3g}-fold, not about tenfold")
        if not grad_small <= grad_big / 3.0 + 10.0 * noise:
            problems.append(f"center {z}: gradient gap {grad_big:.3e} -> {grad_small:.3e} "
                            "does not shrink with eps")
    return problems


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _without_paths(report: dict) -> dict:
    return {key: value for key, value in report.items() if key not in ("csv", "out", "in")}


def check_record(workload: str, spec: dict, record: dict) -> list[str]:
    """The outputs of one completed operation."""
    if workload == "landscape":
        quad, trans = (json.loads(text) for text in record["stdout"])
        return (check_landscape_quadratic(spec, quad, _read_landscape_csv(record["csv"][0]))
                + check_landscape_transcendental(spec, trans))
    if workload == "solve":
        reports = [json.loads(text) for text in record["stdout"]]
        return check_solve(spec, reports, record["loop"], record["flat"])
    with np.load(record["map"]) as data:
        return check_reduced_map(spec, data)


def _fingerprint(workload: str, record: dict):
    if workload == "reduced_map":
        with np.load(record["map"]) as data:
            return {name: data[name].tobytes() for name in data.files}
    return [_without_paths(json.loads(text)) for text in record["stdout"]]


def check_result(result: dict) -> list[str]:
    """Every completed operation of a run, plus repeatability across rounds.

    Failed operations are not checked: they are counted apart.  Rounds
    repeat the same operations, so a completed operation must give exactly
    the output its first completed repetition gave.
    """
    workload = result["workload"]
    problems = []
    first = {}
    for record in result["records"]:
        if not record["ok"]:
            continue
        spec = result["ops"][record["op"]]
        where = f"round {record['round']} op {record['op']}: "
        try:
            problems += [where + p for p in check_record(workload, spec, record)]
            print_ = _fingerprint(workload, record)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(where + f"unreadable output: {type(exc).__name__}: {exc}")
            continue
        if first.setdefault(record["op"], print_) != print_:
            problems.append(where + "output differs from the same operation in round 0")
    return problems
