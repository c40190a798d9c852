import numpy as np
import pytest

from hyploop._quad import adaptive_gauss_legendre, disk_rule
from hyploop.fields import as_field, eval_field, grad_field
from hyploop.halfplane import HALFPLANE, rot90
from hyploop.loops import Loop, curvature_radius, dot_mean

TEST_FIELDS = [
    "1",
    "z1^2 + (z2-2)^2",
    "tanh(z1)",
    "sin(z1) * cos(z2)",
    "exp(-z1^2 - (z2-2)^2)",
    "atan(z1 * z2)",
    "sqrt(z2) + z1 / z2",
    "log(z2) - z1^3 / 7",
    "2 ^ z2",
]


def band_limited_loop(rng, n=256, modes=6, amp=0.05, radius=0.5, center=(0.0, 2.0)):
    """Random analytic loop: a circle plus a small band-limited wiggle.

    The circle part keeps |u'| bounded below, so curvature and residual
    formulas stay well scaled; the whole loop sits inside the half-plane.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    u = radius * np.column_stack((np.cos(theta), np.sin(theta)))
    for c in range(2):
        for m in range(1, modes + 1):
            a, b = amp * rng.normal(size=2) / (1 + m) ** 2
            u[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    u[:, 0] += center[0]
    u[:, 1] += center[1]
    return Loop(u)


def band_limited_field(rng, n=256, modes=6, amp=1.0):
    """Random trigonometric vector field on the parameter circle."""
    theta = 2.0 * np.pi * np.arange(n) / n
    phi = np.zeros((n, 2))
    for c in range(2):
        for m in range(0, modes + 1):
            a, b = rng.normal(size=2) / (1 + m) ** 2
            phi[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    return amp * phi


def count_ffts(monkeypatch) -> dict:
    """Count calls of np.fft.rfft and np.fft.irfft from here on."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def interior_gradient(z1, z2, k, field, nr, na, curved=True):
    """Oracle for grad F: the symbolic gradient of K integrated over the disk.

    Differentiation under the fixed-domain integral on the nr x na
    Gauss-Legendre x uniform rule, one center at a time; ``curved`` picks
    the hyperbolic disk (weight p2**-2), else the flat disk D_{1/k}(z).
    """
    d1, d2 = grad_field(as_field(field))
    q, w = disk_rule(nr, na)
    if curved:
        rk = curvature_radius(k)
        q, w, lift = q * rk, w * rk**2, k * rk
        w = w / (q[:, 1] + lift) ** 2
    else:
        q, w = q / k, w / k**2
    out = []
    for a, b in zip(np.ravel(z1), np.ravel(z2)):
        if curved:
            p1, p2 = a + q[:, 0] * b, (q[:, 1] + lift) * b
            k1, k2 = eval_field(d1, p1, p2), eval_field(d2, p1, p2)
            out.append((w @ k1, w @ (k1 * q[:, 0] + k2 * (q[:, 1] + lift))))
        else:
            p1, p2 = a + q[:, 0], b + q[:, 1]
            out.append((w @ eval_field(d1, p1, p2), w @ eval_field(d2, p1, p2)))
    return np.array(out).T


def split_gauge_area(u, field, weights, geometry=HALFPLANE):
    """Oracle for the K-weighted area: the gauge split between both coordinates.

    A_K(u) = mean of Q_K(u) . (i u') with

        Q1 = w1 * h(z2)**-2 * integral_0^z1 K(t, z2) dt
        Q2 = w2 * integral_b^z2 h(t)**-2 K(z1, t) dt

    where h(t) = t and b = 1 in the half-plane, h = 1 and b = 0 in the
    plane.  Any w1 + w2 = 1 gives a divergence-matched gauge, so the value
    does not depend on the split; each integral is taken to absolute
    tolerance 1e-12 by adaptive Gauss-Legendre.
    """
    h = geometry.height(u)
    expr = as_field(field)
    u1, u2 = u.samples[:, 0], u.samples[:, 1]
    w1, w2 = weights
    q = np.zeros_like(u.samples)
    if w1:
        vals = adaptive_gauss_legendre(
            lambda idx, t: eval_field(expr, t, u2[idx]), np.zeros_like(u1), u1
        )
        q[:, 0] = w1 * vals / h**2
    if w2:
        vals = adaptive_gauss_legendre(
            lambda idx, t: eval_field(expr, u1[idx], t) / (t**2 if geometry.curved else 1.0),
            np.full_like(u2, 1.0 if geometry.curved else 0.0), u2,
        )
        q[:, 1] = w2 * vals
    return dot_mean(q, rot90(u.deriv(1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
