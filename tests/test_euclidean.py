import numpy as np
import pytest

from hyploop._quad import disk_rule
from hyploop.errors import EvalDomainError, QuadratureFailure
from hyploop.euclidean import (
    FLAT,
    EuclideanProblem,
    apply_linearization_euclid,
    kernel_basis_euclid,
    melnikov_grid_euclid,
    melnikov_gradient_grid_euclid,
    reference_circle,
    solve_full_euclid,
    solve_linearization_euclid,
)
from hyploop.fields import PlaneBox, eval_field, parse_field
from hyploop.halfplane import HALFPLANE, HyperPoint, geodesic_curvature
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
TRANSCENDENTAL = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"
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
        # a kink inside the disk keeps the halving gap above 1e-10 up to the last order
        with pytest.raises(QuadratureFailure,
                           match=r"disk average did not stabilize at center \(0, 2\): "
                                 r"halving estimate \d\.\d{3}e-\d\d with \d+ points$"):
            melnikov_value((0, 2), 0.5, "abs(z1 - 0.3)", geometry=FLAT)

    @staticmethod
    def reference(z, k, field):
        """F on D_{1/k}(z) by disk_rule(1024, 2048), far past the orders the rule reaches."""
        q, w = disk_rule(1024, 2048)
        return w @ eval_field(parse_field(field), z[0] + q[:, 0] / k, z[1] + q[:, 1] / k) / k**2

    @pytest.mark.parametrize("field", [TRANSCENDENTAL, "tanh(5*z1)"])
    @pytest.mark.parametrize("k", [0.1, 0.25, 0.5, 2.0])
    def test_small_k_is_resolved_or_names_the_center(self, field, k):
        # a fixed 64 x 128 rule is off by 5.6e-5 here at k = 0.25, and by 1.6e-1 at k = 0.1
        want = self.reference((0.3, 1.9), k, field)
        try:
            got = melnikov_grid_euclid([0.3], [1.9], k, field)[0]
        except QuadratureFailure as err:
            assert k == 0.1 and "at center (0.3, 1.9):" in str(err)
            return
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_a_center_alone_and_in_a_batch_agree_bitwise(self):
        z1, z2 = np.array([0.3, -1.0, 0.3, 2.0]), np.array([1.9, 0.5, 1.9, -3.0])
        batch = melnikov_grid_euclid(z1, z2, 0.25, TRANSCENDENTAL)
        alone = [melnikov_grid_euclid([a], [b], 0.25, TRANSCENDENTAL)[0] for a, b in zip(z1, z2)]
        assert batch.tolist() == alone

    def test_non_finite_field_names_the_center(self):
        # exp(400*p2) overflows inside the disk of (0, 2), not inside that of (0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalDomainError, match=r"inside the disk of center \(0, 2\)$"):
                melnikov_grid_euclid([0.0, 0.0], [1.0, 2.0], K, "exp(400*z2) - exp(400*z2)")

    @pytest.mark.parametrize("geometry", [HALFPLANE, FLAT])
    def test_value_takes_a_hyperpoint_or_a_pair(self, geometry):
        pair = melnikov_value((0.3, 1.9), K, TRANSCENDENTAL, geometry=geometry)
        assert melnikov_value(HyperPoint(0.3, 1.9), K, TRANSCENDENTAL, geometry=geometry) == pair

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
