import numpy as np
import pytest

from hyploop.errors import DegenerateLoop
from hyploop.halfplane import (
    HypDisk,
    HyperPoint,
    christoffel,
    disk_to_euclid,
    geodesic_curvature,
    hyp_distance,
    rot90,
    translate,
)
from hyploop.loops import Loop, reference_loop

from conftest import band_limited_loop


def random_points(rng, count):
    return [HyperPoint(*p) for p in zip(rng.normal(0, 3, count), rng.uniform(0.2, 5, count))]


class TestDistance:
    def test_identity(self):
        assert hyp_distance((0, 1), (0, 1)) == 0.0

    def test_vertical_geodesic(self):
        # cosh d = (e^2 + 1) / (2e) = cosh 1 exactly
        assert hyp_distance((0, 1), (0, np.e)) == pytest.approx(1.0, abs=1e-14)

    def test_horizontal_pair(self):
        # direct evaluation of the cosh formula: cosh d = 1 + 9/2
        assert hyp_distance((0, 1), (3, 1)) == pytest.approx(np.arccosh(5.5), abs=1e-14)

    def test_symmetry_and_triangle(self, rng):
        pts = random_points(rng, 30)
        for p, q, r in zip(pts[::3], pts[1::3], pts[2::3]):
            assert hyp_distance(p, q) == pytest.approx(hyp_distance(q, p), abs=1e-14)
            assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-12

    def test_invariant_under_translation(self, rng):
        pts = random_points(rng, 20)
        z = HyperPoint(1.7, 0.4)
        for p, q in zip(pts[::2], pts[1::2]):
            before = hyp_distance(p, q)
            after = hyp_distance(translate(z, p), translate(z, q))
            assert after == pytest.approx(before, abs=1e-13)

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            HyperPoint(0.0, -1.0)


class TestDisk:
    def test_degenerate(self):
        center, radius = disk_to_euclid(HypDisk(HyperPoint(0, 1), 0.0))
        assert radius == 0.0
        assert np.allclose(center, [0, 1])

    def test_curvature_two_circle(self):
        # radius artanh(1/2) about (0,1): Euclidean center (0, 2/sqrt3), radius 1/sqrt3
        rho = np.arctanh(0.5)
        center, radius = disk_to_euclid(HypDisk(HyperPoint(0, 1), rho))
        assert np.allclose(center, [0, 2 / np.sqrt(3)], atol=1e-15)
        assert radius == pytest.approx(1 / np.sqrt(3), abs=1e-15)

    def test_generic(self):
        center, radius = disk_to_euclid(HypDisk(HyperPoint(5, 2), 1.0))
        assert np.allclose(center, [5, 2 * np.cosh(1.0)])
        assert radius == pytest.approx(2 * np.sinh(1.0))
        assert radius < center[1]  # stays inside the half-plane


class TestChristoffel:
    def test_values(self):
        assert np.allclose(christoffel([0.0, 1.0]), [0.0, 1.0])
        assert np.allclose(christoffel([1.0, 0.0]), [0.0, -1.0])

    @pytest.mark.parametrize("shape", [(2,), (64, 2), (3, 64, 2), "transposed"])
    def test_bitwise_equal_to_the_stacked_formulas_on_a_new_array(self, shape, rng):
        v = rng.normal(size=(2, 64)).T if shape == "transposed" else rng.normal(size=shape)
        stacked = {rot90: np.stack((-v[..., 1], v[..., 0]), axis=-1),
                   christoffel: np.stack((2.0 * v[..., 0] * v[..., 1],
                                          v[..., 1] ** 2 - v[..., 0] ** 2), axis=-1)}
        before = v.copy()
        for fn, expect in stacked.items():
            out = fn(v)
            assert out.shape == v.shape and np.array_equal(out, expect)
            assert not np.shares_memory(out, v) and out.flags.writeable
        assert np.array_equal(v, before)


class TestTranslate:
    def test_identity_element(self, rng):
        u = band_limited_loop(rng)
        out = translate((0.0, 1.0), u)
        assert np.array_equal(out.samples, u.samples)

    def test_moves_base_point(self):
        assert translate((3.0, 2.0), HyperPoint(0, 1)) == HyperPoint(3.0, 2.0)

    def test_loop_type_preserved(self, rng):
        u = band_limited_loop(rng)
        assert isinstance(translate((1.0, 0.5), u), Loop)


class TestGeodesicCurvature:
    def test_reference_loop_constant(self):
        u = reference_loop(2.0, 256)
        assert np.abs(geodesic_curvature(u) - 2.0).max() < 1e-10

    def test_euclidean_circle(self):
        # hyperbolic curvature of the Euclidean circle of center c, radius R
        # is c2/R: invert the disk map (c2 = z2 cosh rho, R = z2 sinh rho)
        theta = 2 * np.pi * np.arange(128) / 128
        u = Loop(np.column_stack((np.cos(theta), 2.0 + np.sin(theta))))
        assert np.abs(geodesic_curvature(u) - 2.0).max() < 1e-10

    def test_orientation_flip(self):
        u = reference_loop(2.0, 128)
        reversed_samples = np.roll(u.samples[::-1], 1, axis=0)
        kappa = geodesic_curvature(Loop(reversed_samples))
        assert np.abs(kappa + 2.0).max() < 1e-10

    def test_translation_invariance(self, rng):
        u = band_limited_loop(rng)
        kappa = geodesic_curvature(u)
        moved = geodesic_curvature(translate((1.3, 0.7), u))
        assert np.abs(kappa - moved).max() < 1e-10

    def test_degenerate_rejected(self):
        u = Loop(np.tile([0.0, 1.0], (64, 1)))
        with pytest.raises(DegenerateLoop):
            geodesic_curvature(u)
