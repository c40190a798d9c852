import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyploop import loops
from hyploop.errors import DegenerateLoop
from hyploop.fields import RegionBox, eval_field, parse_field
from hyploop.euclidean import FLAT
from hyploop.halfplane import HALFPLANE, christoffel, geodesic_curvature, rot90, translate
from hyploop.loops import (
    K_MIN_GAP,
    Loop,
    area_const,
    curvature_radius,
    dot_mean,
    energy,
    is_embedded,
    load_loop,
    loop_length,
    reference_loop,
    residual,
    save_loop,
    signed_area,
    verify_solution,
    winding_number,
)
from hyploop.melnikov import melnikov_value
from hyploop.reduction import solve_full

from conftest import (
    band_limited_field,
    band_limited_loop,
    count_ffts,
    rotated,
    split_gauge_area,
)

QUADRATIC = parse_field("z1^2 + (z2-2)^2")


def per_column_deriv(samples, order):
    """Spectral derivative one component at a time: the reference formula."""
    n = samples.shape[0]
    coeffs = np.stack((np.fft.rfft(samples[:, 0]), np.fft.rfft(samples[:, 1])), axis=1)
    mult = (1j * np.fft.rfftfreq(n, d=1.0 / n)) ** order
    if order % 2:
        mult[-1] = 0.0
    c = coeffs * mult[:, None]
    return np.column_stack((np.fft.irfft(c[:, 0], n=n), np.fft.irfft(c[:, 1], n=n)))


def per_column_residual(u, k, eps, field):
    """The curvature residual from per-component derivatives, term by term."""
    up, upp = per_column_deriv(u.samples, 1), per_column_deriv(u.samples, 2)
    u2 = u.samples[:, 1]
    length = float(np.sqrt(((up**2).sum(axis=1) / u2**2).mean()))
    kappa = np.full(u.n, float(k))
    if eps != 0.0:
        kappa = kappa + eps * eval_field(field, u.samples[:, 0], u2)
    core = -upp + christoffel(up) / u2[:, None] + length * kappa[:, None] * rot90(up)
    return core / u2[:, None] ** 2


def double_cover(k, n=256):
    rk = curvature_radius(k)

    def fn(theta):
        denom = k - np.sin(2 * theta)
        return np.column_stack((np.cos(2 * theta) / denom, (1.0 / rk) / denom))

    return Loop.from_function(fn, n)


class TestLoopContainer:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Loop(np.zeros((100, 2)))

    def test_samples_read_only(self):
        u = reference_loop(2.0)
        with pytest.raises(ValueError):
            u.samples[0, 0] = 7.0

    def test_spectral_derivative_exact_on_band_limited(self, rng):
        # exact differentiation of the interpolant for <= N/4 active modes;
        # order 2 sits at the m**2-amplified rounding floor of the FFT, so
        # its bound is the double-precision optimum, not 1e-13
        n = 128
        theta = 2 * np.pi * np.arange(n) / n
        u = np.zeros((n, 2))
        exact1 = np.zeros((n, 2))
        exact2 = np.zeros((n, 2))
        for c in range(2):
            for m in range(1, n // 4 + 1):
                a, b = rng.normal(size=2) / m**2
                u[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
                exact1[:, c] += m * (-a * np.sin(m * theta) + b * np.cos(m * theta))
                exact2[:, c] += -(m**2) * (a * np.cos(m * theta) + b * np.sin(m * theta))
        loop = Loop(u)
        assert np.abs(loop.deriv(1) - exact1).max() < 1e-13
        assert np.abs(loop.deriv(2) - exact2).max() < 5e-12

    @pytest.mark.parametrize("n", [4, 16, 256, 1024])
    def test_batched_derivatives_are_the_per_column_ones(self, n, rng):
        samples = rng.normal(size=(n, 2))
        u = Loop(samples)
        assert np.array_equal(u.coeffs[:, 1], np.fft.rfft(samples[:, 1]))
        for order in (2, 1, 3):
            assert np.array_equal(u.deriv(order), per_column_deriv(samples, order))
            assert not u.deriv(order).flags.writeable

    def test_rotation_on_grid_is_index_shift(self, rng):
        u = band_limited_loop(rng, n=64)
        shifted = rotated(u, 2 * np.pi * 5 / 64)
        assert np.array_equal(shifted.samples, np.roll(u.samples, -5, axis=0))

    def test_rotation_off_grid_interpolates(self, rng):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        u = Loop(np.column_stack((np.cos(3 * theta), 2 + np.sin(theta))))
        alpha = 0.1234
        out = rotated(u, alpha)
        expect = np.column_stack((np.cos(3 * (theta + alpha)), 2 + np.sin(theta + alpha)))
        assert np.abs(out.samples - expect).max() < 1e-13

    def test_add_and_subtract_take_a_loop_or_an_array(self, rng):
        u, v = band_limited_loop(rng, n=64), band_limited_loop(rng, n=64)
        assert np.array_equal((u + v).samples, u.samples + v.samples)
        assert np.array_equal((u + v.samples).samples, (u + v).samples)
        assert np.array_equal((u - v).samples, (u - v.samples).samples)

    def test_refined_matches_interpolant(self):
        u = reference_loop(2.0, 64)
        fine = u.refined(4)
        assert fine.n == 256
        assert np.abs(fine.samples[::4] - u.samples).max() < 1e-13


class TestLength:
    def test_reference_loop_value(self):
        # the hyperbolic speed of the reference circle is identically R_k
        for k in (1.5, 2.0, 5.0):
            u = reference_loop(k, 64)
            assert loop_length(u) == pytest.approx(curvature_radius(k), abs=1e-13)

    def test_translation_invariance(self):
        u = reference_loop(2.0, 128)
        for z in ((3.0, 0.5), (-1.0, 2.0)):
            assert loop_length(translate(z, u)) == pytest.approx(loop_length(u), abs=1e-13)

    def test_double_cover_doubles_length(self):
        k = 2.0
        assert loop_length(double_cover(k)) == pytest.approx(2 * curvature_radius(k), abs=1e-12)

    def test_constant_loop_rejected(self):
        with pytest.raises(DegenerateLoop):
            loop_length(Loop(np.tile([0.0, 1.0], (64, 1))))

    @staticmethod
    def stacked_guard_raises(samples):
        """The guard as a whole-array formula: spread < 1e-14 max(1, sup|u|), Python's max."""
        spread = (samples.max(axis=0) - samples.min(axis=0)).max()
        return bool(spread < 1e-14 * max(1.0, np.abs(samples).max()))

    @pytest.mark.parametrize("point", [(0.0, 1.0), (-3.0, 1.5), (2.0, 40.0)])
    @pytest.mark.parametrize("column", [0, 1])
    def test_constant_guard_threshold(self, point, column):
        # raises below 1e-14 max(1, sup|u|) of spread in both coordinates, passes above
        samples = np.tile(point, (64, 1))
        scale = max(1.0, np.abs(samples).max())
        for spread, raises in ((0.5e-14 * scale, True), (2e-14 * scale, False)):
            moved = samples.copy()
            moved[5, column] += spread
            assert self.stacked_guard_raises(moved) is raises
            if raises:
                with pytest.raises(DegenerateLoop, match="numerically constant"):
                    loops._require_nonconstant(Loop(moved))
            else:
                loops._require_nonconstant(Loop(moved))

    @pytest.mark.parametrize("nan_column", [0, 1])
    def test_constant_guard_lets_nan_samples_pass(self, nan_column):
        # a NaN spread compares false whichever coordinate holds it; the other is constant
        samples = np.tile([0.5, 1.0], (64, 1))
        samples[3, nan_column] = np.nan
        assert not self.stacked_guard_raises(samples)
        loops._require_nonconstant(Loop(samples))

    @pytest.mark.parametrize("k", [1e200, np.float64(1e160), np.inf])
    def test_curvature_whose_square_overflows_rejected(self, k):
        # 1/sqrt(k**2 - 1) would be 0: a circle of radius 0, not an error
        with pytest.raises(ValueError, match="too large"):
            curvature_radius(k)

    @pytest.mark.parametrize("k", [1.0 + 1e-6, 1.0, 0.5, np.nan])
    def test_curvature_too_near_one_rejected(self, k):
        with pytest.raises(ValueError, match="needs k >= 1"):
            curvature_radius(k)
        assert curvature_radius(1.0 + K_MIN_GAP) > 0.0


class TestSignedArea:
    def test_unit_field_closed_form(self):
        # area of the curvature-k disk: A_1 = 1 - k*R_k
        k = 2.0
        u = reference_loop(k, 128)
        expect = 1 - k * curvature_radius(k)
        assert signed_area(u, "1") == pytest.approx(expect, abs=1e-12)
        assert area_const(u) == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize(
        "text", ["1", "z2", "z1^2 + (z2-2)^2", "tanh(z1)", "exp(-z2)"]
    )
    def test_gauge_independence(self, text, rng):
        u = band_limited_loop(rng)
        expr = parse_field(text)
        default = signed_area(u, expr)
        for weights in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (0.3, 0.7)):
            assert split_gauge_area(u, expr, weights) == pytest.approx(default, abs=1e-10)

    @pytest.mark.parametrize("text", ["1", "z2", "z1^2 + (z2-2)^2", "tanh(z1)"])
    def test_flat_gauge_independence(self, text, rng):
        u = band_limited_loop(rng, center=(0.3, -0.2))
        default = signed_area(u, text, geometry=FLAT)
        for weights in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)):
            assert split_gauge_area(u, text, weights, FLAT) == pytest.approx(default, abs=1e-10)

    def test_default_gauge_takes_one_integral(self, monkeypatch):
        # on a loop that 256 samples under-resolve (k = 1.3, scaled by 2.2)
        # the default gauge is within 2e-9 of the 2048-sample value, where
        # the even split is off by 3.4e-7
        def loop(n):
            return Loop(reference_loop(1.3, n).samples * 2.2 + [0.4, 0.0])

        text = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"
        ref = signed_area(loop(2048), text)
        assert abs(split_gauge_area(loop(256), text, (0.5, 0.5)) - ref) > 1e-7
        calls = []

        def counted(*args, _fn=loops.adaptive_gauss_legendre, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(loops, "adaptive_gauss_legendre", counted)
        assert abs(signed_area(loop(256), text) - ref) < 5e-9
        assert len(calls) == 1

    def test_far_loop_pays_no_segment_to_the_axis(self, monkeypatch):
        # each sample integrates from the loop's mean z1, not from z1 = 0:
        # the same integral, without segments of length 4
        text = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"
        u = translate((4.0, 2.0), reference_loop(2.0, 256))
        points = []

        def counted(expr, z1, z2, _fn=loops.eval_field):
            points.append(np.size(z1))
            return _fn(expr, z1, z2)

        monkeypatch.setattr(loops, "eval_field", counted)
        got = signed_area(u, text)
        assert sum(points) <= 8000  # 31,290 from z1 = 0
        monkeypatch.undo()
        base = split_gauge_area(u, text, (1.0, 0.0))  # the gauge from z1 = 0
        assert abs(got - base) <= 1e-14 * abs(base)

    def test_shrinking_circles(self):
        # enclosed weighted area vanishes with the loop
        theta = 2 * np.pi * np.arange(64) / 64
        values = []
        for r in (0.5, 0.25, 0.125, 0.0625):
            u = Loop(np.column_stack((r * np.cos(theta), 2.0 + r * np.sin(theta))))
            values.append(abs(signed_area(u, QUADRATIC)))
        assert all(b < a / 2 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3


class TestEnergy:
    def test_reference_value(self):
        for k in (1.5, 2.0, 5.0):
            u = reference_loop(k, 128)
            expect = k - np.sqrt(k * k - 1.0)
            assert energy(u, k).total == pytest.approx(expect, abs=1e-10)

    def test_breakdown_consistency(self, rng):
        u = band_limited_loop(rng)
        br = energy(u, 2.0, 0.3, QUADRATIC)
        assert br.total == pytest.approx(
            br.length_part + br.const_area_part + 0.3 * br.pert_area_part, abs=1e-14
        )

    def test_invariance_under_translation_and_rotation(self):
        k = 2.0
        u = reference_loop(k, 128)
        base = energy(u, k).total
        moved = rotated(translate((1.2, 0.7), u), 0.7531)
        assert energy(Loop(moved.samples), k).total == pytest.approx(base, abs=1e-11)

    def test_perturbed_energy_of_translated_reference(self):
        # E at eps is the unperturbed energy minus eps/(2 pi) times the
        # disk average of the field (cross-module identity)
        k, eps = 2.0, 0.37
        z = (0.4, 1.7)
        u = translate(z, reference_loop(k, 128))
        total = energy(u, k, eps, QUADRATIC).total
        expect = energy(reference_loop(k, 128), k).total - eps / (2 * np.pi) * melnikov_value(
            z, k, QUADRATIC
        )
        assert total == pytest.approx(expect, abs=1e-10)

    def test_rotation_leaves_functionals(self, rng):
        u = band_limited_loop(rng)
        rot = rotated(u, 1.2345)
        assert loop_length(rot) == pytest.approx(loop_length(u), abs=1e-11)
        assert signed_area(rot, QUADRATIC) == pytest.approx(
            signed_area(u, QUADRATIC), abs=1e-11
        )


class TestResidual:
    def test_reference_loop_solves(self):
        for k in (1.5, 2.0, 5.0):
            u = reference_loop(k, 256)
            assert np.abs(residual(u, k)).max() < 1e-10

    def test_rotation_pairing_vanishes(self, rng):
        # reparameterization invariance: residual is L2-orthogonal to u'
        for _ in range(5):
            u = band_limited_loop(rng)
            for eps in (0.0, 0.4):
                j = residual(u, 2.0, eps, QUADRATIC)
                assert abs(dot_mean(j, u.deriv(1))) < 1e-12

    def test_translation_pairings_vanish(self, rng):
        # invariance of the unperturbed energy under the isometry group
        for _ in range(5):
            u = band_limited_loop(rng)
            j = residual(u, 2.0)
            assert abs(j[:, 0].mean()) < 1e-12
            assert abs(dot_mean(j, u.samples)) < 1e-12

    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_bit_identical_to_per_column_formula(self, n, rng):
        for _ in range(3):
            u = band_limited_loop(rng, n=n)
            for eps in (0.0, 0.3):
                expect = per_column_residual(u, 2.0, eps, QUADRATIC)
                assert np.array_equal(residual(Loop(u.samples), 2.0, eps, QUADRATIC), expect)

    def test_checks_keep_their_messages(self):
        with pytest.raises(ValueError, match="leaves the half-plane"):
            residual(reference_loop(2.0, 64) - [0.0, 1.0], 2.0)
        with pytest.raises(DegenerateLoop, match="numerically constant"):
            residual(Loop(np.tile([0.0, 1.0], (64, 1))), 2.0)

    def test_one_fft_each_way_on_a_fresh_loop(self, monkeypatch, rng):
        u = Loop(band_limited_loop(rng).samples)
        calls = count_ffts(monkeypatch)
        residual(u, 2.0, 0.3, QUADRATIC)
        assert calls == {"rfft": 1, "irfft": 1}

    def test_differential_consistency(self, rng):
        # (E(u+h phi) - E(u-h phi)) / 2h -> <residual, phi> / L with rate h^2
        u = band_limited_loop(rng)
        phi = band_limited_field(rng, amp=0.1)
        k, eps = 2.0, 0.3
        target = dot_mean(residual(u, k, eps, QUADRATIC), phi) / loop_length(u)
        errs = []
        for h in (1e-3, 1e-4):
            plus = energy(Loop(u.samples + h * phi), k, eps, QUADRATIC).total
            minus = energy(Loop(u.samples - h * phi), k, eps, QUADRATIC).total
            errs.append(abs((plus - minus) / (2 * h) - target))
        assert errs[0] / max(errs[1], 1e-14) > 30  # observed order ~ h^2
        assert errs[1] < 1e-8


class TestIsometryEquivariance:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from((1.5, 2.0, 5.0)),
        z1=st.floats(-3.0, 3.0),
        z2=st.floats(0.3, 3.0),
        alpha=st.floats(0.0, 2.0 * np.pi),
    )
    def test_residual_and_energy_under_isometries(self, seed, k, z1, z2, alpha):
        # at eps = 0 the translation z scales the residual by 1/z2 and keeps the
        # length and the energy; a parameter rotation keeps them as well
        n = 128
        u = band_limited_loop(np.random.default_rng(seed), n=n)
        turned = rotated(u, alpha)
        moved = translate((z1, z2), turned)
        gap = np.abs(residual(moved, k) - residual(turned, k) / z2).max()
        # the rounding of spectral second derivatives of the moved samples
        floor = np.finfo(float).eps * n**2 * np.abs(moved.samples).max() / z2**2
        assert gap <= floor
        assert loop_length(moved) == pytest.approx(loop_length(u), rel=1e-13)
        assert energy(moved, k).total == pytest.approx(energy(u, k).total, rel=1e-13)


class TestVerify:
    def test_reference_loop_report(self):
        rep = verify_solution(reference_loop(2.0, 256), 2.0)
        assert rep.residual_sup < 1e-10
        assert rep.speed_defect < 1e-10
        assert rep.curvature_defect < 1e-10
        assert np.abs(rep.killing).max() < 1e-10
        assert rep.mu == 1
        assert rep.embedded

    def test_double_cover_detected(self):
        rep = verify_solution(double_cover(2.0), 2.0)
        assert rep.mu == 2
        assert not rep.embedded
        assert rep.residual_sup < 1e-9  # still solves the equation

    def test_translated_defects_match(self, rng):
        u = band_limited_loop(rng)
        a = verify_solution(u, 2.0)
        b = verify_solution(translate((0.8, 1.6), u), 2.0)
        assert abs(a.speed_defect - b.speed_defect) < 1e-10
        assert abs(a.curvature_defect - b.curvature_defect) < 1e-10
        assert a.mu == b.mu and a.embedded == b.embedded

    @pytest.mark.parametrize("geometry", [HALFPLANE, FLAT], ids=["halfplane", "flat"])
    def test_one_field_evaluation_same_numbers(self, geometry, rng, monkeypatch):
        u, k, eps = band_limited_loop(rng), 2.0, 0.01
        calls = []

        def counted(*args, _fn=loops.eval_field):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(loops, "eval_field", counted)
        rep = verify_solution(u, k, eps, QUADRATIC, geometry)
        assert len(calls) == 1
        # bit for bit what the separate functionals give
        target = k + eps * eval_field(QUADRATIC, u.samples[:, 0], u.samples[:, 1])
        speed = np.hypot(*u.deriv(1).T) / geometry.height(u)
        assert rep.length == loop_length(u, geometry)
        assert rep.residual_sup == np.abs(residual(u, k, eps, QUADRATIC, geometry)).max()
        assert rep.speed_defect == np.abs(speed - rep.length).max()
        assert rep.curvature_defect == np.abs(geodesic_curvature(u, geometry) - target).max()
        # I_X = mean of h**-2 (k + eps*K(u)) X(u) . (i u') over the three Killing fields X
        w, iup = target / geometry.height(u) ** 2, rot90(u.deriv(1))
        killing = [(w * (x * iup).sum(axis=1)).mean() for x in geometry.killing(u.samples)]
        assert np.array_equal(rep.killing, killing)

    def test_winding_of_reference(self):
        assert winding_number(reference_loop(3.0, 64)) == 1

    def test_embeddedness_of_figure_eight(self):
        assert not is_embedded(figure_eight())


def crescent(n=128):
    """Simple loop around an annular sector; its centroid lies in the hole."""
    theta = 2 * np.pi * np.arange(n) / n
    r, phi = 1.0 + 0.2 * np.cos(theta), 2.5 * np.sin(theta)
    return Loop(np.column_stack((r * np.cos(phi), 3.0 + r * np.sin(phi))))


def figure_eight(n=128):
    theta = 2 * np.pi * np.arange(n) / n
    return Loop(np.column_stack((np.sin(2 * theta), 2.0 + np.sin(theta))))


@pytest.fixture
def all_pairs_calls(monkeypatch):
    """Count the calls that reach the O(M**2) fallback of ``is_embedded``."""
    calls = []
    reference = loops._all_pairs_simple

    def counted(pts):
        calls.append(len(pts))
        return reference(pts)

    monkeypatch.setattr(loops, "_all_pairs_simple", counted)
    return calls


class TestEmbeddedFastPath:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("k", [1.2, 2.0, 8.0])
    def test_reference_loops_take_fast_path(self, all_pairs_calls, k, n):
        u = reference_loop(k, n)
        assert is_embedded(u)
        assert all_pairs_calls == []
        if n <= 256:  # the reference costs seconds at N = 1024
            assert loops._all_pairs_simple(u.refined(4).samples)

    def test_translated_and_reversed_take_fast_path(self, all_pairs_calls):
        u = reference_loop(2.0, 256)
        moved = translate((3.0, 0.5), u)
        reversed_ = Loop(u.samples[::-1])
        assert is_embedded(moved) and is_embedded(reversed_)
        assert all_pairs_calls == []
        for v in (moved, reversed_):
            assert loops._all_pairs_simple(v.refined(4).samples)

    @pytest.mark.parametrize(
        "make,expect",
        [(crescent, True), (figure_eight, False), (lambda: double_cover(2.0), False)],
        ids=["crescent", "figure-eight", "double-cover"],
    )
    def test_other_loops_fall_back(self, all_pairs_calls, make, expect):
        u = make()
        assert is_embedded(u) is expect
        assert all_pairs_calls == [4 * u.n]

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        amp=st.floats(0.0, 1.5),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    )
    def test_agrees_with_all_pairs(self, amp, coeffs):
        # the unit circle plus four random modes per component; as amp grows
        # the loops go from star-shaped to simple but not star-shaped about
        # their centroid to self-crossing (about 1/3, 1/7 and 1/2 of draws)
        theta = 2 * np.pi * np.arange(32) / 32
        u = np.column_stack((np.cos(theta), np.sin(theta)))
        for i, c in enumerate(coeffs):
            m = i // 4 + 1
            wave = np.cos(m * theta) if i % 2 else np.sin(m * theta)
            u[:, (i // 2) % 2] += amp * c / m * wave
        loop = Loop(u)
        assert is_embedded(loop) == loops._all_pairs_simple(loop.refined(4).samples)

    def test_solve_never_reaches_all_pairs(self, monkeypatch):
        def forbidden(pts):
            raise AssertionError("all-pairs fallback reached")

        monkeypatch.setattr(loops, "_all_pairs_simple", forbidden)
        report = solve_full(0.01, 2.0, QUADRATIC, RegionBox(-0.6, 0.6, 1.2, 2.8), 12, 256)
        assert report.embedded and report.defects.embedded


class TestAdaptiveQuadrature:
    def test_batched_closed_forms(self):
        from hyploop._quad import adaptive_gauss_legendre

        lo = np.array([0.0, 0.0, 1.0])
        hi = np.array([1.0, -1.0, np.e])
        # integrands: exp(t), t, 1/t per batch index
        table = [np.exp, lambda t: t, lambda t: 1.0 / t]

        def f(idx, t):
            out = np.empty_like(t)
            for i, fn in enumerate(table):
                mask = idx == i
                out[mask] = fn(t[mask])
            return out

        vals = adaptive_gauss_legendre(f, lo, hi, tol=1e-13)
        assert vals[0] == pytest.approx(np.e - 1.0, abs=1e-13)
        assert vals[1] == pytest.approx(0.5, abs=1e-14)  # oriented downward
        assert vals[2] == pytest.approx(1.0, abs=1e-13)

    def test_refinement_engages_on_rough_integrand(self):
        from hyploop._quad import adaptive_gauss_legendre

        val = adaptive_gauss_legendre(
            lambda idx, t: np.abs(t - 0.3333), np.array([0.0]), np.array([1.0]), tol=1e-13
        )[0]
        exact = 0.5 * (0.3333**2 + (1 - 0.3333) ** 2)
        assert val == pytest.approx(exact, abs=1e-12)

    def test_bisecting_batch_keeps_its_bits(self):
        # per-interval error totals sum each interval's panels in index order from zero;
        # the values were recorded at c5d8c30, where np.add.at summed them
        from hyploop._quad import adaptive_gauss_legendre

        rng = np.random.default_rng(3)
        idx, err = rng.integers(0, 5, 200), rng.uniform(0, 1e-10, 200)
        added = np.zeros(5)
        np.add.at(added, idx, err)
        assert np.array_equal(np.bincount(idx, weights=err, minlength=5), added)

        def f(idx, t):  # a kink, a cubic, two kinks
            return np.where(idx == 0, np.abs(t - 0.3333),
                            np.where(idx == 1, t**3 - 2.0 * t, np.abs(t - 0.5) + np.abs(t - 1.2)))

        recorded = {
            1e-12: ("0x1.1c74b0d6f7ef9p-2", "-0x1.dffffffffffffp-3", "0x1.3f5c28f5c29fbp+2"),
            1e-13: ("0x1.1c74b0d6f7f4dp-2", "-0x1.dffffffffffffp-3", "0x1.3f5c28f5c28d5p+2"),
        }
        for tol, bits in recorded.items():
            vals = adaptive_gauss_legendre(f, np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.5, 2.0]),
                                           tol=tol)
            assert [v.hex() for v in vals] == list(bits)

    def test_nan_integrand_raises_at_the_first_level(self):
        # a NaN panel never meets its tolerance: bisecting it would double it per level.
        # One evaluation per level: the Gauss estimate reuses the Kronrod points
        from hyploop._quad import adaptive_gauss_legendre
        from hyploop.errors import QuadratureFailure

        calls = []

        def f(idx, t):
            calls.append(t.size)
            assert len(calls) <= 1, "bisected a non-finite panel"
            return np.where(t > 0.5, np.nan, t)

        with pytest.raises(QuadratureFailure, match="non-finite estimate on panel"):
            adaptive_gauss_legendre(f, np.array([0.0, 0.0]), np.array([0.25, 1.0]))
        assert calls == [42]

    def test_signed_area_of_a_field_nan_off_the_loop_raises(self):
        # K is finite on the loop but NaN on the segments from its mean z1 that
        # the gauge integrates: inside a small disk about (4, 2.3), in the loop
        from hyploop.errors import QuadratureFailure

        u = translate((4.0, 2.0), reference_loop(2.0, 256))
        band = "exp(1e4*(0.09 - (z1-4)^2 - (z2-2.3)^2))"
        field = parse_field(f"z1^2 + (z2-2)^2 + {band} - {band}")
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(eval_field(field, u.samples[:, 0], u.samples[:, 1])).all()
            with pytest.raises(QuadratureFailure, match="non-finite"):
                signed_area(u, field)

    def test_kronrod_and_gauss_degrees(self):
        # the 21-point Kronrod rule is exact to degree 31, its 10-point Gauss rule to 19
        from hyploop._quad import _gk21

        x, wk, wg = _gk21()
        gap = [np.abs(np.array([w @ x**d for d in range(34)])
                      - [(1 - (-1) ** (d + 1)) / (d + 1) for d in range(34)]) for w in (wk, wg)]
        assert x.size == 21 and np.count_nonzero(wg) == 10
        assert gap[0][:32].max() < 1e-15 < 1e-13 < gap[0][32]
        assert gap[1][:20].max() < 1e-15 < 1e-7 < gap[1][20]

    def test_a_polynomial_takes_one_panel_of_21_points(self):
        # the error estimate costs no evaluation: one call, 21 points per interval
        from hyploop._quad import adaptive_gauss_legendre

        shapes = []

        def f(idx, t):
            shapes.append(t.shape)
            return t**3 - 2.0 * t

        hi = np.array([0.5, -1.0, 4.0])
        vals = adaptive_gauss_legendre(f, np.zeros(3), hi)
        assert shapes == [(3, 21)]
        assert np.abs(vals - (hi**4 / 4.0 - hi**2)).max() < 1e-13

    def test_depth_exhaustion_raises(self):
        from hyploop._quad import adaptive_gauss_legendre
        from hyploop.errors import QuadratureFailure

        with pytest.raises(QuadratureFailure):
            adaptive_gauss_legendre(
                lambda idx, t: np.sin(1.0 / np.maximum(t, 1e-300)),
                np.array([0.0]), np.array([1.0]), tol=1e-15, max_depth=4,
            )

    def test_melnikov_refinement_failure_path(self):
        from hyploop.errors import QuadratureFailure
        from hyploop.melnikov import melnikov_value

        # the kink of K crosses the center: the doubled rules never agree to 1e-9
        with pytest.raises(QuadratureFailure, match="did not stabilize"):
            melnikov_value((0.3, 2.0), 2.0, "abs(z1 - 0.3) + (z2-2)^2")


class TestLoopIO:
    def test_round_trip(self, rng, tmp_path):
        u = band_limited_loop(rng, n=64)
        path = tmp_path / "loop.csv"
        meta = {"k": 2.0, "eps": 0.01, "field": "z1^2 + (z2-2)^2", "N": 64}
        save_loop(path, u, meta)
        again, meta2 = load_loop(path)
        assert np.array_equal(again.samples, u.samples)  # 17g round-trips exactly
        assert meta2 == meta

    @pytest.mark.parametrize("n", [2**p for p in range(2, 12)])
    @settings(max_examples=4, deadline=None, database=None)
    @given(
        data=st.data(),
        k=st.floats(allow_nan=False, allow_infinity=False),
        eps=st.floats(allow_nan=False, allow_infinity=False),
        field=st.text(),
    )
    def test_round_trip_is_bitwise_at_every_n(self, tmp_path_factory, n, data, k, eps, field):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        samples = data.draw(hnp.arrays(np.float64, (n, 2), elements=finite, fill=finite))
        u = Loop(samples)
        path = tmp_path_factory.mktemp("io") / "loop.csv"
        meta = {"k": k, "eps": eps, "field": field, "z_critical": [k, eps], "schema": "hyploop/1"}
        save_loop(path, u, meta)
        again, meta2 = load_loop(path)
        assert again.samples.tobytes() == u.samples.tobytes()  # -0.0 and subnormals too
        assert json.dumps(meta2, sort_keys=True) == json.dumps({**meta, "N": n}, sort_keys=True)

    def test_sidecar_content(self, rng, tmp_path):
        u = band_limited_loop(rng, n=64)
        path = tmp_path / "loop.csv"
        save_loop(path, u, {"k": 2.0})
        sidecar = json.loads((tmp_path / "loop.json").read_text())
        assert sidecar["N"] == 64

    def test_truncation_and_bad_j_rejected(self, rng, tmp_path):
        path = tmp_path / "loop.csv"
        save_loop(path, band_limited_loop(rng, n=64), {"k": 2.0})
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:33]))
        with pytest.raises(ValueError, match="sidecar says N = 64"):
            load_loop(path)
        path.write_text("".join(lines[:1] + lines[2:] + lines[1:2]))  # reordered rows are fine
        assert load_loop(path)[0].n == 64
        path.write_text("".join(lines[:1] + lines[2:] + lines[2:3]))  # j = 1 twice, no j = 0
        with pytest.raises(ValueError, match="0..63"):
            load_loop(path)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_loop(path)
