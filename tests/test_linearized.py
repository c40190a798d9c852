import numpy as np
import pytest

from hyploop.errors import NotOrthogonal
from hyploop.halfplane import as_point, rot90
from hyploop.linearized import (
    _circle,
    _make_block,
    _project_kernel,
    apply_frame_operator,
    apply_linearization,
    frozen_solve,
    from_frame,
    kernel_basis,
    kernel_report,
    linearization_fd,
    mode_blocks,
    solve_frame_operator,
    tangent_fields,
    to_frame,
)
from hyploop.loops import curvature_radius, dot_mean, reference_loop

from conftest import band_limited_field, count_ffts

K_VALUES = (1.1, 2.0, 5.0, 50.0)
N = 256


def frame_field(rng, modes=8):
    return band_limited_field(rng, n=N, modes=modes)


def deproject(field, k):
    _, proj = _project_kernel(field, k)
    return field - proj


class TestFrameIsomorphism:
    def test_images_of_kernel_basis(self):
        k = 2.0
        base = reference_loop(k, N)
        om_p = tangent_fields(k, N)[0]
        e1, g, gp = kernel_basis(k, N)
        assert np.array_equal(from_frame(e1, k), om_p)  # frame image IS the tangent
        assert np.abs(om_p - base.deriv(1)).max() < 1e-12  # and matches the spectral one
        assert np.abs(from_frame(g, k) - base.samples).max() < 1e-12
        expected = np.column_stack((np.ones(N), np.zeros(N))) - om_p
        assert np.abs(from_frame(gp, k) - expected).max() < 1e-12

    def test_round_trip(self, rng):
        g = frame_field(rng)
        assert np.abs(to_frame(from_frame(g, 2.0), 2.0) - g).max() < 1e-13

    def test_weighted_pairing_identity(self, rng):
        # mean of w2^-2 Phi(g).Phi(h) equals R_k^2 mean of g.h
        k = 2.0
        base = reference_loop(k, N)
        g, h = frame_field(rng), frame_field(rng)
        lhs = dot_mean(from_frame(g, k) / base.samples[:, 1:2] ** 2, from_frame(h, k))
        rhs = curvature_radius(k) ** 2 * dot_mean(g, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFrameOperator:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_kernel_annihilated(self, k):
        for field in kernel_basis(k, N):
            assert np.abs(apply_frame_operator(field, k)).max() < 1e-12

    def test_constant_e1_killed(self):
        g = np.column_stack((np.ones(N), np.zeros(N)))
        assert np.abs(apply_frame_operator(g, 2.0)).max() == 0.0

    def test_tangential_multiplier_formula(self):
        # J(psi * u') = -psi'' u' - k R_k psi' i u' for scalar psi
        k = 2.0
        base = reference_loop(k, N)
        theta = base.theta
        psi = np.sin(2 * theta) + 0.3 * np.cos(5 * theta)
        psi_p = 2 * np.cos(2 * theta) - 1.5 * np.sin(5 * theta)
        psi_pp = -4 * np.sin(2 * theta) - 7.5 * np.cos(5 * theta)
        g = np.column_stack((psi, np.zeros(N)))
        image = from_frame(apply_frame_operator(g, k), k)
        rk = curvature_radius(k)
        expected = -psi_pp[:, None] * base.deriv(1) - k * rk * psi_p[:, None] * rot90(base.deriv(1))
        assert np.abs(image - expected).max() < 1e-10

    def test_symmetric(self, rng):
        for _ in range(5):
            g, h = frame_field(rng), frame_field(rng)
            lhs = dot_mean(apply_frame_operator(g, 2.0), h)
            rhs = dot_mean(g, apply_frame_operator(h, 2.0))
            assert abs(lhs - rhs) < 1e-12

    def test_matches_block_application(self, rng):
        # the block application agrees with B written out per Fourier mode m,
        # with c = k*R_k and derivative i*m:
        #   out1 = m**2 g1 + i c m g2
        #   out2 = m**2 g2 - i c m g1 + R_k**2 g2    (m >= 1)
        #   out2 = R_k**2 (1 - k**2) g2              (m = 0)
        # with no cross terms at the Nyquist mode
        for k in K_VALUES:
            g = frame_field(rng)
            rk = curvature_radius(k)
            m = np.fft.rfftfreq(N, d=1.0 / N)
            cross = k * rk * m
            cross[-1] = 0.0
            g1, g2 = np.fft.rfft(g[:, 0]), np.fft.rfft(g[:, 1])
            out1 = m**2 * g1 + 1j * cross * g2
            out2 = (m**2 + rk**2) * g2 - 1j * cross * g1
            out2[0] = rk**2 * (1.0 - k**2) * g2[0]
            formula = np.column_stack((np.fft.irfft(out1, n=N), np.fft.irfft(out2, n=N)))
            image = apply_frame_operator(g, k)
            assert np.abs(image - formula).max() < 1e-10


class TestModeBlocks:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_zero_singular_value_layout(self, k):
        blocks = mode_blocks(k, N)
        zeros = {b.n: b.zero_count for b in blocks if b.zero_count}
        assert zeros == {0: 1, 1: 2}

    @pytest.mark.parametrize("k", K_VALUES + (1.01, 1.2, 8.0))
    @pytest.mark.parametrize("n", [4, 16, 256, 1024])
    def test_stacked_svd_matches_per_block(self, k, n):
        for block in mode_blocks(k, n):
            ref = _make_block(block.n, block.matrix.copy())
            assert np.array_equal(block.matrix, ref.matrix)
            assert np.array_equal(block.sigmas, ref.sigmas)
            assert np.array_equal(block.null, ref.null)
            assert np.abs(block.pinv - ref.pinv).max() <= 1e-15 * np.abs(ref.pinv).max()
            for arr in (block.matrix, block.sigmas, block.pinv, block.null):
                assert not arr.flags.writeable

    def test_blocks_symmetric(self):
        for b in mode_blocks(2.0, 64):
            assert np.abs(b.matrix - b.matrix.T).max() == 0.0

    @pytest.mark.parametrize("k", K_VALUES + (1.01,))
    def test_kernel_report(self, k):
        rep = kernel_report(k, N)
        assert rep.dimension == 3
        assert rep.max_principal_angle < 1e-8
        assert rep.sigma_min_nonzero > 0.0

    def test_conditioning_reported_near_one(self):
        # R_k blows up as k -> 1+; the smallest nonzero sigma is survey data
        rep = kernel_report(1.01, N)
        assert np.isfinite(rep.sigma_min_nonzero)


class TestSolve:
    def test_round_trip(self, rng):
        k = 2.0
        g0 = deproject(frame_field(rng), k)
        f = apply_frame_operator(g0, k)
        g = solve_frame_operator(f, k)
        assert np.abs(g - g0).max() < 1e-10

    def test_residual_of_solution(self, rng):
        k = 2.0
        f = apply_frame_operator(deproject(frame_field(rng), k), k)
        g = solve_frame_operator(f, k)
        assert np.abs(apply_frame_operator(g, k) - f).max() < 1e-10

    def test_kernel_rhs_rejected(self):
        k = 2.0
        _, g, _ = kernel_basis(k, N)
        with pytest.raises(NotOrthogonal) as info:
            solve_frame_operator(g, k)
        assert info.value.projection is not None

    def test_solution_is_kernel_orthogonal(self, rng):
        k = 2.0
        f = apply_frame_operator(deproject(frame_field(rng), k), k)
        g = solve_frame_operator(f, k)
        coeffs, _ = _project_kernel(g, k)
        assert np.abs(coeffs).max() < 1e-11


class TestLinearization:
    def test_kernel_fields(self):
        # tangent fields of the solution manifold are annihilated
        k = 2.0
        for z in ((0.0, 1.0), (3.0, 0.5)):
            for phi in tangent_fields(k, N):
                assert np.abs(apply_linearization(z, phi, k)).max() < 1e-11

    @pytest.mark.parametrize("z", [(0.0, 1.0), (3.0, 0.5), (-2.0, 4.0)])
    def test_matches_finite_differences(self, z, rng):
        k = 2.0
        phi = band_limited_field(rng, n=N, modes=6)
        lin = apply_linearization(z, phi, k)
        fd = linearization_fd(z, phi, k, h=1e-5)
        assert np.abs(fd - lin).max() / np.abs(lin).max() < 1e-5

    def test_self_adjoint(self, rng):
        k = 2.0
        z = (1.0, 2.0)
        phi, psi = band_limited_field(rng, n=N), band_limited_field(rng, n=N)
        lhs = dot_mean(apply_linearization(z, phi, k), psi)
        rhs = dot_mean(apply_linearization(z, psi, k), phi)
        assert abs(lhs - rhs) < 1e-11


class TestFrozenSolve:
    @pytest.mark.parametrize("z", [(0.0, 1.0), (0.5, 2.0)])
    def test_inverts_bordered_system(self, z, rng):
        k = 2.0
        rhs = band_limited_field(rng, n=N, modes=6)
        cons = rng.normal(size=3)
        phi, a, p = frozen_solve(z, k, rhs, cons)
        tang = tangent_fields(k, N)
        lhs1 = apply_linearization(z, phi, k) - a * tang[0] - p[0] * tang[1] - p[1] * tang[2]
        assert np.abs(lhs1 - rhs).max() < 1e-8
        lhs2 = np.array([dot_mean(phi, t) for t in tang])
        assert np.abs(lhs2 - cons).max() < 1e-12

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("z2", [0.3, 1.0, 4.0])
    def test_matches_frame_solve_chain(self, n, z2, rng):
        # calls for two k alternate, so data cached under a wrong key would show
        for ks in ((1.2, 8.0), (2.0, 1.2), (8.0, 2.0)):
            for k in ks:
                rhs = band_limited_field(rng, n=n, modes=min(6, n // 2 - 1))
                cons = rng.normal(size=3)
                z = (rng.normal(), z2)
                phi, a, p = frozen_solve(z, k, rhs, cons)
                phi0, a0, p0 = frozen_solve_oracle(z, k, rhs, cons)
                assert np.abs(phi - phi0).max() <= 1e-13 * np.abs(phi0).max()
                mults, mults0 = np.array([a, *p]), np.array([a0, *p0])
                assert np.abs(mults - mults0).max() <= 1e-13 * np.abs(mults0).max()

    def test_one_fft_each_way(self, monkeypatch, rng):
        k = 2.0
        rhs = band_limited_field(rng, n=N)
        frozen_solve((0.0, 1.5), k, rhs, np.zeros(3))  # fill the caches
        calls = count_ffts(monkeypatch)
        frozen_solve((0.3, 1.5), k, rhs, rng.normal(size=3))
        assert calls == {"rfft": 1, "irfft": 1}


def frozen_solve_oracle(z, k, rhs, cons):
    """The bordered solve written out with the public frame operations.

    Pairings by ``dot_mean``, Gram solves per right-hand side, and the
    to_frame -> solve_frame_operator -> from_frame chain.
    """
    zp = as_point(z)
    n = rhs.shape[0]
    base = _circle(k, n).base
    tang = tangent_fields(k, n)
    gram = np.array([[dot_mean(a, b) for b in tang] for a in tang])
    mults = np.linalg.solve(gram, -np.array([dot_mean(rhs, t) for t in tang]))
    f = rhs + np.tensordot(mults, tang, axes=1)
    phi_tan = np.tensordot(np.linalg.solve(gram, cons), tang, axes=1)
    frame_rhs = zp.z2**2 * to_frame(base.samples[:, 1:2] ** 2 * f, k, n)
    phi_perp = from_frame(solve_frame_operator(frame_rhs, k, orth_tol=np.inf), k, n)
    tcoef = np.linalg.solve(gram, np.array([dot_mean(phi_perp, t) for t in tang]))
    phi_perp = phi_perp - np.tensordot(tcoef, tang, axes=1)
    return phi_tan + phi_perp, float(mults[0]), mults[1:]
