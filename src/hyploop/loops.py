"""Periodic loops with spectral derivatives and the loop functionals.

A loop is stored as N uniform samples over the parameter circle together
with cached Fourier data; derivatives come from exact wavenumber
multiplication, so all functionals below (length, weighted areas, energy,
curvature residual) are spectrally accurate on analytic loops.  Means over
the circle are plain sample averages, which integrate trigonometric
polynomials below the aliasing limit exactly.  Each functional takes a
``Geometry`` record, the half-plane by default; the flat record of
``euclidean`` gives the same functional in the plane.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._quad import adaptive_gauss_legendre
from .errors import DegenerateLoop
from .fields import as_field, eval_field
from .halfplane import HALFPLANE, Geometry, geodesic_curvature, rot90


class Loop:
    """Closed curve sampled at x_j = exp(2*pi*i*j/N); N a power of two.

    Treated as immutable: derivative and coefficient caches are filled
    lazily and the sample array is write-protected.  The second coordinate
    is unconstrained here; half-plane functionals check positivity
    themselves (see ``is_upper``), which lets the same container serve the
    Euclidean solver.
    """

    def __init__(self, samples):
        samples = np.array(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must be (N, 2), got {samples.shape}")
        n = samples.shape[0]
        if n < 4 or n & (n - 1):
            raise ValueError(f"N must be a power of two >= 4, got {n}")
        samples.flags.writeable = False
        self.samples = samples
        self.n = n
        self._coeffs = None
        self._derivs = {}

    @classmethod
    def from_function(cls, fn, n: int = 256) -> "Loop":
        """Sample ``fn(theta)`` (vectorized, returning (N, 2)) at N uniform angles."""
        theta = 2.0 * np.pi * np.arange(n) / n
        return cls(fn(theta))

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def circle(self) -> np.ndarray:
        """The parameter points x_j on the unit circle, shape (N, 2)."""
        t = self.theta
        return np.column_stack((np.cos(t), np.sin(t)))

    @property
    def coeffs(self) -> np.ndarray:
        """rfft coefficients per component, shape (N//2 + 1, 2)."""
        if self._coeffs is None:
            self._coeffs = np.fft.rfft(self.samples, axis=0)
        return self._coeffs

    def deriv(self, order: int = 1) -> np.ndarray:
        """Exact derivative of the trigonometric interpolant, shape (N, 2).

        Orders 1 and 2 are filled together, by one inverse transform.
        """
        if order not in self._derivs:
            orders = (1, 2) if order in (1, 2) else (order,)
            mults = _wavenumber_powers(self.n, orders)
            out = np.fft.irfft(self.coeffs * mults[:, :, None], n=self.n, axis=1)
            out.flags.writeable = False
            self._derivs.update(zip(orders, out))
        return self._derivs[order]

    def refined(self, factor: int = 4) -> "Loop":
        """Spectrally upsample to factor*N points (zero padding)."""
        return Loop(np.fft.irfft(self.coeffs, n=self.n * factor, axis=0) * factor)

    @property
    def is_upper(self) -> bool:
        """True when every sample lies strictly inside the half-plane."""
        return bool(self.samples[:, 1].min() > 0.0)

    def __add__(self, other):
        other = other.samples if isinstance(other, Loop) else np.asarray(other)
        return Loop(self.samples + other)

    def __sub__(self, other):
        other = other.samples if isinstance(other, Loop) else np.asarray(other)
        return Loop(self.samples - other)


@lru_cache(maxsize=32)
def _wavenumber_powers(n: int, orders: tuple[int, ...]) -> np.ndarray:
    """Rows (i*m)**p over the rfft modes m, one per order p (read-only)."""
    freqs = np.fft.rfftfreq(n, d=1.0 / n)
    mults = np.stack([(1j * freqs) ** p for p in orders])
    mults[np.array(orders) % 2 == 1, -1] = 0.0  # Nyquist has no consistent odd derivative
    mults.flags.writeable = False
    return mults


def _require_nonconstant(u: Loop):
    """Raise unless a coordinate spreads by 1e-14 max(1, sup|u|); NaN samples pass."""
    u1, u2 = u.samples[:, 0], u.samples[:, 1]
    lo1, hi1, lo2, hi2 = u1.min(), u1.max(), u2.min(), u2.max()
    floor = 1e-14 * max(1.0, -lo1, hi1, -lo2, hi2)
    if hi1 - lo1 < floor and hi2 - lo2 < floor:
        raise DegenerateLoop("loop is numerically constant")


def dot_mean(a: np.ndarray, b: np.ndarray) -> float:
    """L2 pairing of two sample fields: mean of the pointwise dot product."""
    return float((a * b).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# Reference loop (constant-curvature circle about (0, 1))
# ---------------------------------------------------------------------------


# Smallest k - 1.  The frequency-m block of the linearization has singular-value
# ratio ~ m^2 (m^2 - 1) (k^2 - 1)^2, so nearer 1 its nonzero singular values fall
# below ZERO_SV_RTOL and the kernel is misjudged (dimension 9 at k = 1 + 1e-6).
K_MIN_GAP = 1e-5


def curvature_radius(k: float) -> float:
    """Euclidean radius R_k = 1/sqrt(k^2 - 1) of the unit-height k-circle.

    Every half-plane path checks k here: k - 1 >= K_MIN_GAP and k**2 finite.
    """
    if not k - 1.0 >= K_MIN_GAP:
        raise ValueError(f"hyperbolic constant curvature needs k >= 1 + {K_MIN_GAP:g}, got {k}")
    if not np.isfinite(float(k) * float(k)):
        raise ValueError(f"curvature k = {k} is too large: k**2 overflows")
    return 1.0 / np.sqrt(k * k - 1.0)


def reference_loop(k: float, n: int = 256) -> Loop:
    """Positively oriented hyperbolic circle of curvature k centered at (0, 1).

    Its hyperbolic speed is the constant R_k, it is a zero of the
    unperturbed curvature residual, and translations z1*e1 + z2*u of it
    sweep out all embedded constant-curvature loops.
    """
    rk = curvature_radius(k)

    def fn(theta):
        denom = k - np.sin(theta)
        return np.column_stack((np.cos(theta) / denom, (1.0 / rk) / denom))

    return Loop.from_function(fn, n)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def loop_length(u: Loop, geometry: Geometry = HALFPLANE) -> float:
    """Length functional L(u) = sqrt(mean of h**-2 |u'|^2); h = u2 in the half-plane."""
    h = geometry.height(u)
    _require_nonconstant(u)
    return _length(u.deriv(1), h)


def _length(up: np.ndarray, h: np.ndarray) -> float:
    return float(np.sqrt(((up[:, 0] ** 2 + up[:, 1] ** 2) / h**2).mean()))


def area_const(u: Loop, geometry: Geometry = HALFPLANE) -> float:
    """Unit-weight area by a closed-form gauge: (0, -1/z2) in the half-plane, z/2 in the plane."""
    if not geometry.curved:
        return 0.5 * dot_mean(u.samples, rot90(u.deriv(1)))
    return -float((u.deriv(1)[:, 0] / geometry.height(u)).mean())


def signed_area(u: Loop, field, geometry: Geometry = HALFPLANE) -> float:
    """K-weighted signed area A_K(u) = mean of Q_K(u) . (i u').

    Q_K = (h(z2)**-2 * integral_c^z1 K(t, z2) dt, 0), with h(t) = t in the
    half-plane and h = 1 in the plane, is a divergence-matched gauge; its
    one integral per sample is evaluated to absolute tolerance 1e-12 by
    adaptive Gauss-Kronrod.  Any constant c gives the same A_K (the change
    pairs with i u' to a loop integral of g(z2) dz2); c is the loop's mean
    z1, so the segments stay short.  On half-plane loops that N samples
    under-resolve (k <= 1.5) this gauge is more accurate than splitting
    the integral between the two coordinates.
    """
    h = geometry.height(u)
    expr = as_field(field)
    u1 = u.samples[:, 0]
    u2 = u.samples[:, 1]
    vals = adaptive_gauss_legendre(
        lambda idx, t: eval_field(expr, t, u2[idx]), np.full_like(u1, u1.mean()), u1
    )
    return float((vals / h**2 * rot90(u.deriv(1))[:, 0]).mean())


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy pieces: total = length_part + const_area_part + eps * pert_area_part."""

    length_part: float
    const_area_part: float  # k times the unit-weight area
    pert_area_part: float   # A_K for the perturbation field
    eps: float

    @property
    def total(self) -> float:
        return self.length_part + self.const_area_part + self.eps * self.pert_area_part


def energy(u: Loop, k: float, eps: float = 0.0, field=None,
           geometry: Geometry = HALFPLANE) -> EnergyBreakdown:
    """Energy of a loop for prescribed curvature k + eps*K.

    The constant part always uses the closed-form gauge; the perturbation
    part uses the default gauge of ``signed_area``.  ``field`` may be
    omitted only when eps == 0.
    """
    if eps != 0.0 and field is None:
        raise ValueError("eps != 0 requires a perturbation field")
    length = loop_length(u, geometry)
    const_part = k * area_const(u, geometry)
    pert = signed_area(u, field, geometry=geometry) if field is not None else 0.0
    return EnergyBreakdown(length, const_part, pert, eps)


def _prescribed(u: Loop, k: float, eps: float, field) -> np.ndarray:
    """The prescribed curvature k + eps*K at the samples; no field evaluation when eps == 0."""
    if eps == 0.0:
        return np.full(u.n, float(k))
    if field is None:
        raise ValueError("eps != 0 requires a perturbation field")
    return float(k) + eps * eval_field(field, u.samples[:, 0], u.samples[:, 1])


def residual(u: Loop, k: float, eps: float = 0.0, field=None,
             geometry: Geometry = HALFPLANE) -> np.ndarray:
    """Curvature residual J_eps(u), sampled; zero iff u is a (k+eps*K)-loop.

    J_eps(u) = h**-2 * (-u'' + h**-1 Gamma(u') + L(u)(k + eps*K(u)) i u'),
    h = u2 in the half-plane; h = 1 and Gamma = 0 in the plane.
    """
    h = geometry.height(u)
    _require_nonconstant(u)
    return _residual(u, h, _length(u.deriv(1), h), _prescribed(u, k, eps, field), geometry)


def _residual(u: Loop, h: np.ndarray, length: float, kappa: np.ndarray,
              geometry: Geometry) -> np.ndarray:
    up, upp = u.deriv(1), u.deriv(2)
    core = -upp + geometry.connection(up, h) + length * kappa[:, None] * rot90(up)
    return core / h[:, None] ** 2


# ---------------------------------------------------------------------------
# Verification: winding, embeddedness, defect report
# ---------------------------------------------------------------------------


def winding_number(u: Loop) -> int:
    """Winding of u about its centroid (the cover count for circles)."""
    rel = u.samples - u.samples.mean(axis=0)
    ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    closing = np.arctan2(rel[0, 1], rel[0, 0]) - np.arctan2(rel[-1, 1], rel[-1, 0])
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    total = ang[-1] - ang[0] + closing
    return int(round(total / (2.0 * np.pi)))


def is_embedded(u: Loop) -> bool:
    """Self-intersection test on a spectrally refined closed polyline.

    The loop is refined to M = 4N points.  Fast path, O(M): about
    the centroid c, every cross product (p_i - c) x (p_{i+1} - c) has the
    same strict sign and the turning angles add up to +-2*pi.  Then each
    edge sweeps its own open angular sector of width in (0, pi), the
    sectors tile the circle exactly once, so non-adjacent edges cannot
    meet and adjacent ones share only their vertex: the polygon is
    star-shaped about c and therefore simple.  Every near-circle loop the
    solver produces passes it.

    Otherwise (not star-shaped about c, multiply covered, self-crossing)
    the O(M**2) test over all non-adjacent segment pairs decides; touching
    pairs count as intersections, so multiply covered loops are rejected.
    """
    pts = u.refined(4).samples
    return _star_shaped(pts) or _all_pairs_simple(pts)


def _star_shaped(pts: np.ndarray) -> bool:
    """Sufficient test for simplicity: strictly monotone polar angle, winding +-1."""
    rel = pts - pts.mean(axis=0)
    nxt = np.roll(rel, -1, axis=0)
    cross = rel[:, 0] * nxt[:, 1] - rel[:, 1] * nxt[:, 0]
    # a relative margin so that a cross product lost to rounding fails the test
    margin = 1e-12 * np.hypot(rel[:, 0], rel[:, 1]) * np.hypot(nxt[:, 0], nxt[:, 1])
    if not (np.all(cross > margin) or np.all(cross < -margin)):
        return False
    turning = np.arctan2(cross, (rel * nxt).sum(axis=1)).sum()
    return abs(round(turning / (2.0 * np.pi))) == 1


def _all_pairs_simple(pts: np.ndarray) -> bool:
    """True when no two non-adjacent edges of the closed polyline meet."""
    m = pts.shape[0]
    a = pts
    b = np.roll(pts, -1, axis=0)

    def cross(v, w):
        return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]

    # chunked all-pairs test to bound memory
    chunk = 128
    for start in range(0, m, chunk):
        idx = np.arange(start, min(start + chunk, m))
        jdx = np.arange(m)
        gap = np.abs(idx[:, None] - jdx[None, :])
        adjacent = (gap <= 1) | (gap >= m - 1)
        p, q = a[idx][:, None, :], b[idx][:, None, :]
        r, s = a[jdx][None, :, :], b[jdx][None, :, :]
        d1 = cross(q - p, r - p)
        d2 = cross(q - p, s - p)
        d3 = cross(s - r, p - r)
        d4 = cross(s - r, q - r)
        hit = (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)
        boxes = (
            (np.maximum(p[..., 0], q[..., 0]) >= np.minimum(r[..., 0], s[..., 0]))
            & (np.maximum(r[..., 0], s[..., 0]) >= np.minimum(p[..., 0], q[..., 0]))
            & (np.maximum(p[..., 1], q[..., 1]) >= np.minimum(r[..., 1], s[..., 1]))
            & (np.maximum(r[..., 1], s[..., 1]) >= np.minimum(p[..., 1], q[..., 1]))
        )
        if np.any(hit & boxes & ~adjacent):
            return False
    return True


def _killing(u: Loop, w: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Means of w X(u) . (i u') over the Killing fields X; 0 at solutions if w = (k+eps*K)/h**2."""
    iup = rot90(u.deriv(1))
    return np.array([(w * (x * iup).sum(axis=1)).mean() for x in geometry.killing(u.samples)])


@dataclass(frozen=True)
class VerifyReport:
    """Solution-quality report; always produced, never raises."""

    residual_sup: float
    speed_defect: float
    curvature_defect: float
    killing: np.ndarray  # pairings with the three Killing fields
    mu: int
    embedded: bool
    length: float

    def summary(self) -> str:
        return (
            f"residual={self.residual_sup:.3e} speed={self.speed_defect:.3e} "
            f"curvature={self.curvature_defect:.3e} |killing|={np.abs(self.killing).max():.3e} "
            f"mu={self.mu} embedded={self.embedded}"
        )


def verify_solution(u: Loop, k: float, eps: float = 0.0, field=None,
                    geometry: Geometry = HALFPLANE) -> VerifyReport:
    """Measure how well u solves the prescribed-curvature problem.

    Reports the residual sup-norm, the constant-speed defect, the pointwise
    curvature defect against k + eps*K(u), the three Killing pairings, the
    winding multiplicity, and the embeddedness flag.
    """
    try:
        h = geometry.height(u)
        _require_nonconstant(u)
        up = u.deriv(1)
        length = _length(up, h)
        target = _prescribed(u, k, eps, field)  # the one field evaluation
        res = float(np.abs(_residual(u, h, length, target, geometry)).max())
        profile = np.hypot(up[:, 0], up[:, 1]) / h
        speed_defect = float(np.abs(profile - length).max())
        kappa = geodesic_curvature(u, geometry)
        curvature_defect = float(np.abs(kappa - target).max())
        killing = _killing(u, target / h**2, geometry)
        return VerifyReport(
            residual_sup=res,
            speed_defect=speed_defect,
            curvature_defect=curvature_defect,
            killing=killing,
            mu=winding_number(u),
            embedded=is_embedded(u),
            length=length,
        )
    except DegenerateLoop:
        return VerifyReport(
            residual_sup=np.inf,
            speed_defect=np.inf,
            curvature_defect=np.inf,
            killing=np.full(3, np.inf),
            mu=0,
            embedded=False,
            length=0.0,
        )


# ---------------------------------------------------------------------------
# Distances and file format
# ---------------------------------------------------------------------------


def c0_distance(u: Loop, v: Loop) -> float:
    return float(np.abs(u.samples - v.samples).max())


def c2_distance(u: Loop, v: Loop) -> float:
    """Max over samples of the value, first, and second derivative gaps."""
    return max(
        float(np.abs(u.samples - v.samples).max()),
        float(np.abs(u.deriv(1) - v.deriv(1)).max()),
        float(np.abs(u.deriv(2) - v.deriv(2)).max()),
    )


def fmt(x) -> str:
    """A float at 17 significant digits, which round-trips it exactly."""
    return format(float(x), ".17g")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_loop(path, u: Loop, meta: dict | None = None):
    """Write the loop CSV ("j,x1,x2,u1,u2") plus a JSON metadata sidecar."""
    path = Path(path)
    circle = u.circle
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "x1", "x2", "u1", "u2"])
        for j in range(u.n):
            writer.writerow(
                [j, fmt(circle[j, 0]), fmt(circle[j, 1]),
                 fmt(u.samples[j, 0]), fmt(u.samples[j, 1])]
            )
    if meta is not None:
        meta = dict(meta)
        meta.setdefault("N", u.n)
        sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_loop(path) -> tuple[Loop, dict | None]:
    """Read a loop CSV and its sidecar (if present).

    Raises ValueError unless the rows carry j = 0..N-1, each once, and N
    equals the sidecar's "N" when the sidecar gives one; a truncated or
    spliced file is rejected instead of read as a smaller loop.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["j", "x1", "x2", "u1", "u2"]:
            raise ValueError(f"unexpected loop CSV header {header!r} in {path}")
        rows = [r for r in reader if r]
    if any(len(r) != 5 for r in rows):
        raise ValueError(f"loop CSV rows need 5 fields in {path}")
    rows = sorted((int(r[0]), float(r[3]), float(r[4])) for r in rows)
    n = len(rows)
    if [r[0] for r in rows] != list(range(n)):
        raise ValueError(f"column j of {path} is not 0..{n - 1}, each once")
    meta = None
    sc = sidecar_path(path)
    if sc.exists():
        meta = json.loads(sc.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"sidecar {sc} is not a JSON object")
        if "N" in meta and meta["N"] != n:
            raise ValueError(f"{path} has {n} samples but its sidecar says N = {meta['N']}")
    samples = np.array([[r[1], r[2]] for r in rows])
    return Loop(samples), meta
