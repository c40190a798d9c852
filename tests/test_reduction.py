import numpy as np
import pytest

from hyploop import reduction
from hyploop.errors import NewtonDiverged
from hyploop.fields import RegionBox, parse_field
from hyploop.halfplane import translate
from hyploop.linearized import tangent_fields
from hyploop.loops import (
    dot_mean,
    energy,
    reference_loop,
    residual,
)
from hyploop.melnikov import melnikov_value
from hyploop.reduction import (
    continue_eps,
    reduce_at,
    reduced_energy_offset,
    reduced_gradient,
    solve_full,
)

K_TEXT = "z1^2 + (z2-2)^2"
QUADRATIC = parse_field(K_TEXT)
BOX = RegionBox(-0.6, 0.6, 1.2, 2.8)
K = 2.0


class TestReduceAt:
    def test_unperturbed_is_immediate(self):
        state = reduce_at(0.0, (0.3, 1.7), K, QUADRATIC)
        assert state.iterations == 0
        assert np.abs(state.eta).max() == 0.0
        assert state.t == 0.0
        assert np.abs(state.theta).max() == 0.0

    def test_converges_with_first_order_correction(self):
        state = reduce_at(1e-3, (0.0, 2.0), K, QUADRATIC)
        assert state.residual_sup < 1e-11
        assert abs(state.t) < 1e-10
        sizes = [np.abs(reduce_at(e, (0.0, 2.0), K, QUADRATIC).eta).max()
                 for e in (1e-3, 5e-4, 2.5e-4)]
        for big, small in zip(sizes, sizes[1:]):
            assert big / small == pytest.approx(2.0, abs=0.6)  # ratio within x1.3

    def test_constraints_hold(self):
        state = reduce_at(5e-3, (0.2, 1.8), K, QUADRATIC)
        assert np.abs(state.constraint_res).max() < 1e-11
        # equivalent normalization of the solved loop against the reference
        base = reference_loop(K, 256)
        tang = tangent_fields(K, 256)
        u = state.loop
        assert abs(dot_mean(u.samples, tang[0])) < 1e-11
        assert u.samples[:, 0].mean() == pytest.approx(0.2, abs=1e-11)
        mean_sq = (base.samples**2).sum(axis=1).mean()
        assert dot_mean(u.samples, base.samples) == pytest.approx(1.8 * mean_sq, abs=1e-10)

    def test_multiplier_representation_of_residual(self):
        # at convergence the residual is exactly the two translation multipliers
        state = reduce_at(1e-2, (0.1, 1.9), K, QUADRATIC)
        tang = tangent_fields(K, 256)
        rep = state.theta[0] * tang[1] + state.theta[1] * tang[2]
        j = residual(state.loop, K, state.eps, QUADRATIC)
        assert np.abs(j - rep).max() < 1e-10

    def test_rotation_multiplier_vanishes(self):
        for eps, z in ((1e-2, (0.0, 2.0)), (5e-3, (0.4, 1.5)), (-1e-2, (0.0, 2.0))):
            state = reduce_at(eps, z, K, QUADRATIC)
            assert abs(state.t) < 1e-10

    def test_too_large_eps_fails_cleanly(self):
        with pytest.raises(Exception) as info:
            reduce_at(50.0, (0.0, 2.0), K, QUADRATIC)
        assert info.type.__name__ in ("NewtonDiverged", "StepTooLarge")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the field overflows on purpose
    def test_non_finite_residual_diverges(self):
        # inf - inf: K is NaN everywhere, and a NaN residual is not below any tolerance
        with pytest.raises(NewtonDiverged, match="residual is not finite"):
            reduce_at(0.01, (0.0, 2.0), K, "exp(1000*z2) - exp(1000*z2)")

    def test_center_below_the_guard_diverges(self):
        with pytest.raises(NewtonDiverged, match="admissible set"):
            reduce_at(0.01, (0.0, 1e-7), K, QUADRATIC)

    def test_probe_outside_the_guard_diverges(self, monkeypatch):
        # the starting iterate is admissible; every finite-difference probe is not
        problem = reduction.HyperbolicProblem(K, QUADRATIC, 64)
        checks = iter([True])
        monkeypatch.setattr(problem, "is_admissible", lambda samples: next(checks, False))
        with pytest.raises(NewtonDiverged, match="probe left the admissible set"):
            reduction.reduce_generic(problem, 0.01, (0.0, 2.0))


class TestReducedFunction:
    def test_gradient_matches_finite_differences(self):
        eps = 1e-2
        z = np.array([0.1, 1.9])
        g = reduced_gradient(eps, z, K, QUADRATIC)
        h = 1e-4

        def total(zz):
            state = reduce_at(eps, zz, K, QUADRATIC)
            return energy(state.loop, K, eps, QUADRATIC).total

        fd = np.array(
            [
                (total(z + [h, 0]) - total(z - [h, 0])) / (2 * h),
                (total(z + [0, h]) - total(z - [0, h])) / (2 * h),
            ]
        )
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-4

    def test_symmetric_field_axis_component_vanishes(self):
        g = reduced_gradient(1e-2, (0.0, 1.9), K, QUADRATIC)
        assert abs(g[0]) < 1e-9

    def test_unperturbed_gradient_zero(self):
        assert np.abs(reduced_gradient(0.0, (0.2, 1.7), K, QUADRATIC)).max() == 0.0

    def test_offset_approaches_minus_disk_average(self):
        zs = [(a, b) for a in (-0.3, 0.0, 0.3) for b in (1.6, 2.0, 2.4)]
        sups = []
        for eps in (1e-2, 1e-3, 1e-4):
            sup = max(
                abs(reduced_energy_offset(eps, z, K, QUADRATIC) + melnikov_value(z, K, QUADRATIC))
                for z in zs
            )
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]

    def test_constant_field_offset_closed_form(self):
        # F is the constant 2 pi (k R_k - 1), so the offset tends to minus it
        rk = 1 / np.sqrt(K**2 - 1)
        target = -2 * np.pi * (K * rk - 1)
        gaps = [abs(reduced_energy_offset(eps, (0.4, 1.6), K, "1") - target)
                for eps in (1e-2, 1e-3)]
        assert gaps[0] < 2e-2 and gaps[1] < gaps[0]

    def test_energy_gap_scales_quadratically(self):
        # |E(corrected) - E(translated reference)| ~ eps^2 (log-log slope >= 1.5)
        z = (0.0, 2.0)
        base = translate(z, reference_loop(K, 256))
        eps_values = np.array([1e-2, 5e-3, 2.5e-3])
        gaps = []
        for eps in eps_values:
            state = reduce_at(eps, z, K, QUADRATIC)
            gap = abs(
                energy(state.loop, K, eps, QUADRATIC).total
                - energy(base, K, eps, QUADRATIC).total
            )
            gaps.append(gap)
        slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
        assert slope >= 1.5


class TestSolveFull:
    def test_unperturbed_returns_translated_reference(self):
        report = solve_full(0.0, K, QUADRATIC, BOX, grid=12)
        assert report.c0_dist < 1e-12
        assert report.mu == 1 and report.embedded
        # the center is the disk-average critical point on the symmetry axis
        assert abs(report.z_critical[0]) < 1e-8

    def test_perturbed_solution_quality(self):
        report = solve_full(0.01, K, QUADRATIC, BOX, grid=12)
        d = report.defects
        assert report.mu == 1 and report.embedded
        assert d.curvature_defect < 1e-8
        assert d.speed_defect < 1e-9
        assert np.abs(d.killing).max() < 1e-8
        assert abs(report.state.t) < 1e-10
        assert d.residual_sup < 1e-9

    def test_necessary_condition_projections(self):
        # the perturbation-weighted pairings with e1 and with the loop itself
        # vanish for solutions, independently of the Killing report
        from hyploop.fields import eval_field
        from hyploop.halfplane import rot90

        report = solve_full(0.01, K, QUADRATIC, BOX, grid=12)
        u = report.loop
        weight = eval_field(QUADRATIC, u.samples[:, 0], u.samples[:, 1]) / u.samples[:, 1] ** 2
        iup = rot90(u.deriv(1))
        proj_e1 = float((weight * iup[:, 0]).mean())
        proj_u = float((weight * (u.samples * iup).sum(axis=1)).mean())
        assert abs(proj_e1) < 1e-8
        assert abs(proj_u) < 1e-8

    def test_distance_to_limit_scales_linearly(self):
        seed = solve_full(0.0, K, QUADRATIC, BOX, grid=12)
        z0 = seed.z_critical
        base = translate(z0, reference_loop(K, 256))
        dists = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            rep = solve_full(eps, K, QUADRATIC, BOX, grid=12, seed=z0)
            dists.append(float(np.abs(rep.loop.samples - base.samples).max()))
        for big, small in zip(dists, dists[1:]):
            assert big / small == pytest.approx(2.0, abs=0.3)

    def test_center_shift_is_first_order(self):
        rep = solve_full(0.01, K, QUADRATIC, BOX, grid=12)
        shift = np.hypot(
            rep.z_critical[0] - rep.melnikov_seed[0],
            rep.z_critical[1] - rep.melnikov_seed[1],
        )
        assert 0 < shift < 0.05


class TestContinuation:
    def test_chain_solves_all_small_targets(self):
        result = continue_eps(K, QUADRATIC, BOX, [0.001, 0.01, 0.05], grid=12)
        assert result.solved_eps == [0.001, 0.01, 0.05]
        assert result.eps_bar == 0.05
        assert result.failure is None
        for rep in result.reports:
            assert rep.defects.curvature_defect < 1e-8
            assert rep.embedded and rep.mu == 1

    def test_chain_truncates_at_failure(self):
        result = continue_eps(K, QUADRATIC, BOX, [0.01, 60.0], grid=12)
        assert result.solved_eps == [0.01]
        assert result.eps_bar == 0.01
        assert result.failure is not None
        assert result.failure[0] == 60.0

    def test_numerical_failure_is_recorded(self, monkeypatch):
        solve = reduction.solve_generic

        def failing(problem, eps, *args, **kwargs):
            if eps > 0.005:
                raise NewtonDiverged("stagnated")
            return solve(problem, eps, *args, **kwargs)

        monkeypatch.setattr(reduction, "solve_generic", failing)
        result = continue_eps(K, QUADRATIC, BOX, [0.001, 0.01], grid=12)
        assert result.solved_eps == [0.001]
        assert result.failure == (0.01, "NewtonDiverged: stagnated")

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(reduction, "solve_generic", broken)
        with pytest.raises(TypeError, match="not a solver failure"):
            continue_eps(K, QUADRATIC, BOX, [0.001, 0.01], grid=12)

    def test_negative_eps_symmetric_convergence(self):
        plus = solve_full(0.01, K, QUADRATIC, BOX, grid=12)
        minus = solve_full(-0.01, K, QUADRATIC, BOX, grid=12)
        assert minus.embedded and minus.mu == 1
        assert abs(minus.z_critical[0]) < 1e-8
        assert minus.defects.curvature_defect < 1e-8
        # even-symmetric field: both signs stay near the unperturbed center
        assert abs(plus.z_critical[1] - minus.z_critical[1]) < 0.01
