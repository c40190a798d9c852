import numpy as np
import pytest

from hyploop.loops import Loop


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
