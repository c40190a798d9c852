"""Exact primitives of the Poincare half-plane model.

The model is the upper half-plane ``{(z1, z2) : z2 > 0}`` with metric
``z2**-2 * delta``.  Everything here is a pure function of its inputs:
distances, hyperbolic-disk/Euclidean-disk conversion, the quadratic
connection term entering covariant derivatives along curves, the
translation group ``u -> z1*e1 + z2*u``, and pointwise geodesic curvature
of a sampled loop, in either plane described by a ``Geometry`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateLoop

# A loop is "degenerate" when its slowest sample is this much below its
# fastest one; guards the division by |u'|^3 in curvature formulas.
SPEED_FLOOR = 1e-8


@dataclass(frozen=True)
class HyperPoint:
    """A point of the half-plane model; requires z2 > 0."""

    z1: float
    z2: float

    def __post_init__(self):
        if not self.z2 > 0:
            raise ValueError(f"HyperPoint needs z2 > 0, got z2={self.z2}")


@dataclass(frozen=True)
class HypDisk:
    """Hyperbolic disk: center in the half-plane, hyperbolic radius rho >= 0."""

    center: HyperPoint
    rho: float

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError(f"HypDisk needs rho >= 0, got {self.rho}")


def as_point(z) -> HyperPoint:
    """Coerce a HyperPoint, pair, or length-2 array into a HyperPoint."""
    if isinstance(z, HyperPoint):
        return z
    z1, z2 = float(z[0]), float(z[1])
    return HyperPoint(z1, z2)


def rot90(v: np.ndarray) -> np.ndarray:
    """Complex multiplication by i on 2-vectors: (v1, v2) -> (-v2, v1).

    Works on a single vector or an (N, 2) array of vectors.
    """
    v = np.asarray(v, dtype=float)
    return np.stack((-v[..., 1], v[..., 0]), axis=-1)


def hyp_distance(p, q) -> float:
    """Hyperbolic distance, via cosh d = 1 + |p-q|**2 / (2 p2 q2)."""
    p, q = as_point(p), as_point(q)
    d2 = (p.z1 - q.z1) ** 2 + (p.z2 - q.z2) ** 2
    return float(np.arccosh(1.0 + d2 / (2.0 * p.z2 * q.z2)))


def disk_to_euclid(disk: HypDisk) -> tuple[np.ndarray, float]:
    """Euclidean center and radius of a hyperbolic disk.

    The image is the Euclidean disk of center ``(c1, c2*cosh(rho))`` and
    radius ``c2*sinh(rho)``; it always stays inside the half-plane.
    """
    c = disk.center
    return np.array([c.z1, c.z2 * np.cosh(disk.rho)]), float(c.z2 * np.sinh(disk.rho))


def christoffel(v) -> np.ndarray:
    """Quadratic connection term Gamma(v) = -i v**2 = (2 v1 v2, v2**2 - v1**2).

    Defined on all of R^2 (it is a polynomial); validity of the base point
    is the caller's concern, which lets Newton iterates evaluate it while
    transiently outside the half-plane.
    """
    v = np.asarray(v, dtype=float)
    return np.stack((2.0 * v[..., 0] * v[..., 1], v[..., 1] ** 2 - v[..., 0] ** 2), axis=-1)


def christoffel_jac(v, w) -> np.ndarray:
    """Differential of ``christoffel`` at v applied to w: 2*(w2*v - w1*i*v)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return 2.0 * (w[..., 1:2] * v - w[..., 0:1] * rot90(v))


def translate(z, u):
    """Apply the hyperbolic translation ``u -> z1*e1 + z2*u``.

    ``u`` may be a point-like, an (N, 2) sample array, or a Loop (anything
    with a ``samples`` attribute and a one-argument constructor); the image
    has the same kind.  This is an isometry, so hyperbolic distances are
    preserved.
    """
    zp = as_point(z)
    if hasattr(u, "samples"):
        return type(u)(zp.z1 * np.array([1.0, 0.0]) + zp.z2 * u.samples)
    if isinstance(u, HyperPoint):
        return HyperPoint(zp.z1 + zp.z2 * u.z1, zp.z2 * u.z2)
    out = np.asarray(u, dtype=float) * zp.z2
    out[..., 0] += zp.z1
    return out


def check_regular(u) -> np.ndarray:
    """Return |u'| per sample; raise DegenerateLoop when it nearly vanishes."""
    up = u.deriv(1)
    sp = np.hypot(up[:, 0], up[:, 1])
    if sp.max() == 0.0 or sp.min() < SPEED_FLOOR * sp.max():
        raise DegenerateLoop(
            f"loop speed collapses: min |u'| = {sp.min():.3e} vs max {sp.max():.3e}"
        )
    return sp


@dataclass(frozen=True)
class Geometry:
    """What the loop functionals and the reduction need to know of a plane.

    ``curved``: the metric is z2**-2 |dz|**2 on z2 > 0, with conformal
    weight 1/z2 and the connection term ``christoffel``; else it is flat.
    """

    curved: bool
    killing: Callable  # samples (N, 2) -> the three Killing fields there
    floor: float       # correction and center iterates stay above this u2
    disk: tuple | None = None  # (value, gradient) grid rules; None: those of melnikov

    def height(self, u) -> np.ndarray:
        """Sample heights h of a loop, the conformal weight being 1/h: u2 > 0, or 1 if flat."""
        if self.curved and not u.is_upper:
            raise ValueError("loop leaves the half-plane (a sample has u2 <= 0)")
        return u.samples[:, 1] if self.curved else np.ones(u.n)

    def connection(self, up: np.ndarray, h: np.ndarray):
        """The connection term h**-1 Gamma(u') of covariant derivatives; 0 when flat."""
        return christoffel(up) / h[:, None] if self.curved else 0.0


def _killing_fields(samples: np.ndarray) -> tuple[np.ndarray, ...]:
    """The half-plane Killing fields e1, z and z**2 at the samples."""
    u1, u2 = samples[:, 0], samples[:, 1]
    e1 = np.column_stack((np.ones(len(u1)), np.zeros(len(u1))))
    return e1, samples, np.column_stack((u1**2 - u2**2, 2.0 * u1 * u2))


HALFPLANE = Geometry(curved=True, killing=_killing_fields, floor=1e-6)


def geodesic_curvature(u, geometry: Geometry = HALFPLANE) -> np.ndarray:
    """Signed geodesic curvature at every sample of a loop.

    kappa = h * (u'' - h**-1 Gamma(u')) . (i u') / |u'|**3, with h = u2 in
    the half-plane and h = 1, Gamma = 0 in the flat plane; positive for
    positively oriented circles.  Raises DegenerateLoop when the loop is
    not regular enough to divide by |u'|**3.
    """
    sp = check_regular(u)
    up, upp = u.deriv(1), u.deriv(2)
    h = geometry.height(u)
    cov = upp - geometry.connection(up, h)
    return h * (cov * rot90(up)).sum(axis=1) / sp**3
