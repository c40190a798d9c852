import numpy as np
import pytest

from hyploop.errors import QuadratureFailure
from hyploop.euclidean import (
    FLAT,
    EuclideanProblem,
    apply_linearization_euclid,
    kernel_basis_euclid,
    melnikov_gradient_grid_euclid,
    reference_circle,
    solve_full_euclid,
    solve_linearization_euclid,
)
from hyploop.fields import PlaneBox, parse_field
from hyploop.halfplane import geodesic_curvature
from hyploop.loops import (
    Loop,
    dot_mean,
    energy,
    loop_length,
    reference_loop,
    residual,
    signed_area,
    verify_solution,
)
from hyploop.melnikov import find_critical, melnikov_value
from hyploop.reduction import continue_generic, reduce_generic

from conftest import band_limited_field, band_limited_loop

QUADRATIC = parse_field("z1^2 + (z2-2)^2")
BOX = PlaneBox(-0.6, 0.6, 1.4, 2.6)
K = 2.0


class TestReferenceCircle:
    def test_residual_vanishes(self):
        # L(circle) * k = 1 and u'' = -u, so the residual is identically zero
        circ = reference_circle(K, 64)
        assert np.abs(residual(circ, K, geometry=FLAT)).max() < 1e-12

    def test_length(self):
        assert loop_length(reference_circle(K, 64), FLAT) == pytest.approx(1 / K, abs=1e-15)

    def test_scaled_circle_matches_scaled_curvature(self):
        # radius 2/k has curvature k/2
        circ = Loop(2.0 * reference_circle(K, 64).samples)
        assert np.abs(residual(circ, K / 2, geometry=FLAT)).max() < 1e-12

    def test_rotation_pairing_vanishes(self, rng):
        u = band_limited_loop(rng, center=(0.0, 0.0))
        j = residual(u, K, 0.3, QUADRATIC, FLAT)
        assert abs(dot_mean(j, u.deriv(1))) < 1e-12

    def test_energy_of_circle(self):
        # perimeter mean 1/k minus k times the enclosed area pi/k^2 / (2 pi)
        expect = 1 / K - K / (2 * K**2)
        assert energy(reference_circle(K, 64), K, geometry=FLAT).total == pytest.approx(
            expect, abs=1e-14)


class TestKernel:
    def test_basis_annihilated(self):
        for field in kernel_basis_euclid(K, 256):
            assert np.abs(apply_linearization_euclid(field, K)).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        phi = band_limited_field(rng, n=256, modes=6)
        base = Loop(reference_circle(K, 256).samples + np.array([0.3, -0.7]))
        h = 1e-5
        fd = (
            residual(Loop(base.samples + h * phi), K, geometry=FLAT)
            - residual(Loop(base.samples - h * phi), K, geometry=FLAT)
        ) / (2 * h)
        lin = apply_linearization_euclid(phi, K)
        assert np.abs(fd - lin).max() / np.abs(lin).max() < 1e-5

    def test_solve_round_trip(self, rng):
        phi = band_limited_field(rng, n=256, modes=8)
        basis = kernel_basis_euclid(K, 256)
        gram = np.array([[dot_mean(a, b) for b in basis] for a in basis])
        coeffs = np.linalg.solve(gram, [dot_mean(phi, b) for b in basis])
        phi = phi - np.tensordot(coeffs, basis, axes=1)
        back = solve_linearization_euclid(apply_linearization_euclid(phi, K), K)
        assert np.abs(back - phi).max() < 1e-10


class TestDiskAverage:
    def test_constant_field_is_disk_area(self):
        assert melnikov_value((0.3, -0.7), K, "1", geometry=FLAT) == pytest.approx(
            np.pi / K**2, abs=1e-10
        )

    def test_linear_field_is_centroid(self):
        # the mean of z1 over a disk is its center, exactly for this rule
        for z in ((0.3, -0.7), (-2.0, 5.0)):
            assert melnikov_value(z, K, "z1", geometry=FLAT) == pytest.approx(
                np.pi * z[0] / K**2, abs=1e-10
            )

    def test_unresolved_value_names_the_center(self):
        # a kink inside the disk keeps the doubling gap above 1e-9
        with pytest.raises(QuadratureFailure,
                           match=r"3 doublings at center \(0, 2\): last gap \d\.\d{3}e-0\d$"):
            melnikov_value((0, 2), 0.5, "abs(z1 - 0.3)", geometry=FLAT)

    def test_quadratic_critical_point(self):
        search = find_critical(K, QUADRATIC, BOX, grid=12, geometry=FLAT)
        assert len(search.points) == 1
        p = search.points[0]
        assert np.hypot(p.z[0] - 0.0, p.z[1] - 2.0) < 1e-9
        assert np.abs(p.grad).max() < 1e-10
        assert p.classification == "min"

    def test_gradient_grid_matches_fd(self):
        z = np.array([0.4, -0.2])
        g1, g2 = melnikov_gradient_grid_euclid([z[0]], [z[1]], K, QUADRATIC)
        h = 1e-6
        fd1 = (
            melnikov_value(z + [h, 0], K, QUADRATIC, geometry=FLAT)
            - melnikov_value(z - [h, 0], K, QUADRATIC, geometry=FLAT)
        ) / (2 * h)
        assert g1[0] == pytest.approx(fd1, rel=1e-6)


class TestSolve:
    def test_unperturbed_is_translated_circle(self):
        report = solve_full_euclid(0.0, K, QUADRATIC, BOX, grid=12)
        assert report.c0_dist < 1e-12
        assert np.hypot(report.z_critical[0], report.z_critical[1] - 2.0) < 1e-8

    def test_perturbed_solution_quality(self):
        report = solve_full_euclid(0.01, K, QUADRATIC, BOX, grid=12)
        d = report.defects
        assert report.mu == 1 and report.embedded
        assert d.curvature_defect < 1e-9
        assert d.speed_defect < 1e-9
        assert np.abs(d.killing).max() < 1e-9
        assert abs(report.state.t) < 1e-10

    def test_reduction_invariants(self):
        state = reduce_generic(EuclideanProblem(K, QUADRATIC, 256), 1e-2, (0.1, 1.9))
        assert state.residual_sup < 1e-11
        assert abs(state.t) < 1e-10
        assert np.abs(state.constraint_res).max() < 1e-11

    def test_continuation(self):
        result = continue_generic(EuclideanProblem(K, QUADRATIC, 256), BOX, [0.001, 0.01, 0.05],
                                  grid=12)
        assert [r.eps for r in result.reports] == [0.001, 0.01, 0.05]
        assert result.failure is None

    def test_constant_perturbation_matches_rescaled_circles(self):
        # a constant perturbation only changes the curvature constant, in
        # both geometries: the right circles already solve the problem
        eps = 0.05
        hyp = reference_loop(K + eps, 128)
        assert np.abs(residual(hyp, K, eps, "1")).max() < 1e-10
        euc = reference_circle(K + eps, 128)
        assert np.abs(residual(euc, K, eps, "1", FLAT)).max() < 1e-12


    def test_random_cases_above_the_flat_residual_floor(self):
        # the flat residual floor sits at REDUCE_TOL; the correction stops on its step
        rng = np.random.default_rng(2024)
        for _ in range(30):
            k, eps = rng.uniform(2.0, 3.0), rng.uniform(0.005, 0.02)
            report = solve_full_euclid(eps, k, QUADRATIC, BOX, grid=12)
            assert report.mu == 1 and report.embedded
            assert report.defects.curvature_defect < 1e-9


class TestVerifyEuclid:
    def test_circle_report(self):
        rep = verify_solution(reference_circle(K, 128), K, geometry=FLAT)
        assert rep.residual_sup < 1e-11
        assert rep.speed_defect < 1e-13
        assert rep.curvature_defect < 1e-10
        assert np.abs(rep.killing).max() < 1e-13
        assert rep.mu == 1 and rep.embedded

    def test_curvature_of_circle(self):
        kappa = geodesic_curvature(reference_circle(3.0, 64), FLAT)
        assert np.abs(kappa - 3.0).max() < 1e-11

    def test_signed_area_constant_field(self):
        # N.B. negatively weighted: mean Q . (i u') = -area/(2 pi) for ccw loops
        circ = reference_circle(K, 64)
        assert signed_area(circ, "1", geometry=FLAT) == pytest.approx(-1 / (2 * K**2), abs=1e-12)


class TestProblemAdapter:
    def test_frozen_solve_inverts(self, rng):
        problem = EuclideanProblem(K, QUADRATIC, 256)
        rhs = band_limited_field(rng, n=256, modes=6)
        cons = rng.normal(size=3)
        phi, a, p = problem.frozen_solve(np.zeros(2), rhs, cons)
        tang = problem.tangent
        lhs1 = apply_linearization_euclid(phi, K) - a * tang[0] - p[0] * tang[1] - p[1] * tang[2]
        assert np.abs(lhs1 - rhs).max() < 1e-8
        lhs2 = np.array([dot_mean(phi, t) for t in tang])
        assert np.abs(lhs2 - cons).max() < 1e-12
