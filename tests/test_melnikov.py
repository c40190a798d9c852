import numpy as np
import pytest
from scipy import integrate

from hyploop import _quad, euclidean, melnikov
from hyploop.errors import EvalDomainError, NoCritical, QuadratureFailure
from hyploop.euclidean import FLAT, melnikov_gradient_grid_euclid
from hyploop.fields import RegionBox, eval_field, parse_field
from hyploop.halfplane import HALFPLANE, translate
from hyploop.loops import curvature_radius, reference_loop, signed_area
from hyploop.melnikov import (
    asymptotic_check,
    critical_point,
    find_critical,
    melnikov_gradient_grid,
    melnikov_grid,
    melnikov_value,
)

from conftest import TEST_FIELDS, disk_value, interior_gradient

QUADRATIC = parse_field("z1^2 + (z2-2)^2")


def gradient_at(z, k, field):
    """grad F at one center: the batched rule on one-element arrays."""
    return np.ravel(melnikov_gradient_grid([z[0]], [z[1]], k, field))


def brute_force_value(z, k, field_fn):
    """Independent oracle: Cartesian dblquad of z2**-2 K over the Euclidean disk."""
    rk = curvature_radius(k)
    cx, cy = z[0], k * rk * z[1]
    radius = rk * z[1]
    val, _ = integrate.dblquad(
        lambda y, x: field_fn(x, y) / y**2,
        cx - radius, cx + radius,
        lambda x: cy - np.sqrt(max(radius**2 - (x - cx) ** 2, 0.0)),
        lambda x: cy + np.sqrt(max(radius**2 - (x - cx) ** 2, 0.0)),
        epsabs=1e-12, epsrel=1e-12,
    )
    return val


class TestValue:
    def test_constant_field_closed_form(self):
        # the weighted disk volume: 2 pi (k R_k - 1)
        for k in (1.5, 2.0, 5.0):
            rk = curvature_radius(k)
            expect = 2 * np.pi * (k * rk - 1)
            assert melnikov_value((0.7, 1.3), k, "1") == pytest.approx(expect, abs=1e-8)

    def test_constant_field_translation_invariant(self, rng):
        vals = [
            melnikov_value((z1, z2), 2.0, "1")
            for z1, z2 in zip(rng.normal(0, 3, 10), rng.uniform(0.3, 4, 10))
        ]
        assert np.ptp(vals) < 1e-9

    def test_vertical_field_closed_form(self):
        # for K = z2 the angular integral collapses: F = 2 pi z2 (k R_k - 1)
        k = 2.0
        for z in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
            expect = 2 * np.pi * z[1] * (k * curvature_radius(k) - 1)
            assert melnikov_value(z, k, "z2") == pytest.approx(expect, abs=1e-10)

    def test_against_brute_force_quadrature(self):
        k = 2.0
        val = melnikov_value((0.0, 1.0), k, "z2")
        oracle = brute_force_value((0.0, 1.0), k, lambda x, y: y)
        assert abs(val - oracle) / abs(oracle) < 1e-7

    def test_quadratic_against_brute_force(self):
        k = 2.0
        z = (0.3, 1.8)
        val = melnikov_value(z, k, QUADRATIC)
        oracle = brute_force_value(z, k, lambda x, y: x**2 + (y - 2) ** 2)
        assert abs(val - oracle) / abs(oracle) < 1e-7

    def test_matches_weighted_area_of_translated_reference(self, rng):
        # the disk average equals -2 pi times the weighted signed area
        k = 2.0
        fields = ["1", "z2", "z1^2 + (z2-2)^2", "tanh(z1)", "exp(-z2)"]
        for text in fields:
            z = (rng.normal(0, 1), rng.uniform(0.8, 2.5))
            lhs = melnikov_value(z, k, text)
            rhs = -2 * np.pi * signed_area(translate(z, reference_loop(k, 256)), text)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_quadrature_refinement_stable(self):
        # the self-checked rule against the fixed 512 x 1024 rule
        got = melnikov_grid([0.2], [1.5], 2.0, QUADRATIC)
        assert abs(got - disk_value([0.2], [1.5], 2.0, QUADRATIC))[0] < 1e-10


class TestGradient:
    def test_constant_field(self):
        assert np.abs(gradient_at((0.4, 1.1), 2.0, "1")).max() < 1e-12

    def test_non_finite_field_names_the_first_such_center(self, monkeypatch):
        # exp(400*p2) overflows on the boundary circle of (0, 2) but not on that of (0, 1)
        calls = []

        def counted(*args, _fn=melnikov.eval_field):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(melnikov, "eval_field", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalDomainError, match=r"disk boundary of center \(0, 2\)$"):
                melnikov_gradient_grid([0.0, 0.0], [1.0, 2.0], 2.0,
                                       "exp(400*z2) - exp(400*z2)")
        assert len(calls) == 1  # no doubling of the nodes

    @pytest.mark.parametrize(
        "text", ["z2", "z1^2 + (z2-2)^2", "tanh(z1)", "sin(z1) * cos(z2)", "exp(-z2)"]
    )
    def test_matches_finite_differences(self, text, rng):
        k = 2.0
        z = np.array([rng.normal(0, 1), rng.uniform(1.0, 2.5)])
        g = gradient_at(z, k, text)
        h = 1e-5
        fd = np.array(
            [
                (melnikov_value(z + [h, 0], k, text) - melnikov_value(z - [h, 0], k, text)) / (2 * h),
                (melnikov_value(z + [0, h], k, text) - melnikov_value(z - [0, h], k, text)) / (2 * h),
            ]
        )
        assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6

    def test_even_field_symmetry(self):
        # K = z1^2 is even in q1, so dF/dz1 vanishes on the axis z1 = 0
        for z2 in (0.7, 1.5, 3.0):
            g = gradient_at((0.0, z2), 2.0, "z1^2")
            assert abs(g[0]) < 1e-12


PLANES = {"halfplane": (melnikov_gradient_grid, True),
          "flat": (melnikov_gradient_grid_euclid, False)}
TRANSCENDENTAL = "exp(-z1^2)*sin(z2) + tanh(z1*z2)"
ACCURACY_FIELDS = TEST_FIELDS + [TRANSCENDENTAL, "exp(-10*(z1^2+(z2-2)^2))", "1/(1+z1^2)",
                                 "sin(3*z1)*cos(2*z2)", "tanh(5*z1)"]


def count_points(monkeypatch) -> list:
    """Record the shape of every field evaluation the value and gradient kernels make."""
    shapes = []

    def counted(expr, z1, z2, _fn=melnikov.eval_field):
        shapes.append(np.shape(z1))
        return _fn(expr, z1, z2)

    monkeypatch.setattr(melnikov, "eval_field", counted)
    return shapes


class TestBoundaryGradient:
    """The boundary-integral gradient against the interior oracle, and its self-check."""

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("text", TEST_FIELDS)
    def test_matches_refined_interior_oracle(self, plane, text, rng):
        # 128 x 512, not the default 64 x 128, which is off by 9e-7 at k = 1.5
        # on the transcendental landscape field
        grad_grid, curved = PLANES[plane]
        for k in (1.5, 2.0, 8.0):
            z1, z2 = rng.uniform(-0.6, 0.6, 3), rng.uniform(1.0, 2.5, 3)
            got = np.array(grad_grid(z1, z2, k, text))
            want = interior_gradient(z1, z2, k, text, 128, 512, curved)
            scale = np.maximum(1.0, np.hypot(*want))
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (k, got - want)

    def test_resolves_the_landscape_at_small_k(self):
        # at k = 1.2 the boundary circle comes close to the field's complex
        # singularities: some centers double up to 2048 nodes
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(4)
        z1, z2 = g1.ravel(), g2.ravel()
        got = np.array(melnikov_gradient_grid(z1, z2, 1.2, TRANSCENDENTAL))
        want = interior_gradient(z1, z2, 1.2, TRANSCENDENTAL, 256, 1024)
        assert np.abs(got - want).max() <= 1e-10
        coarse = interior_gradient(z1, z2, 1.2, TRANSCENDENTAL, 64, 128)
        assert np.abs(coarse - want).max() > 1e-4  # the old default rule

    @pytest.mark.parametrize("plane", PLANES)
    def test_error_estimate_costs_no_field_points(self, plane, monkeypatch):
        grad_grid, _ = PLANES[plane]
        shapes = count_points(monkeypatch)
        grad_grid([0.1, -0.2, 0.3], [1.5, 1.8, 2.1], 2.0, QUADRATIC)
        assert shapes == [(3, 2 * melnikov.NA_DEFAULT)]

    def test_only_an_unresolved_center_doubles(self, monkeypatch):
        # the spike at z1 = 5 needs 1024 nodes; the center at 0 sees K = 0.
        # Each doubling evaluates K only at its new nodes, the odd ones
        text, z1, z2 = "exp(-1000*(z1-5)^2)", [0.0, 5.0], [1.5, 1.5]
        shapes = count_points(monkeypatch)
        both = np.array(melnikov_gradient_grid(z1, z2, 2.0, text))
        assert shapes == [(2, 256), (1, 256), (1, 512)]
        alone = np.column_stack([melnikov_gradient_grid([a], [b], 2.0, text) for a, b in zip(z1, z2)])
        assert np.array_equal(both, alone)

    @pytest.mark.parametrize("plane", PLANES)
    def test_batch_and_single_centers_agree_bitwise(self, plane):
        # the scanned CSV and Newton's one-center calls see the same numbers
        grad_grid, _ = PLANES[plane]
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(5)
        z1, z2 = g1.ravel(), g2.ravel()
        batch = np.array(grad_grid(z1, z2, 2.0, TRANSCENDENTAL))
        single = np.column_stack([grad_grid([a], [b], 2.0, TRANSCENDENTAL) for a, b in zip(z1, z2)])
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("text", ["abs(z1 - 0.3)", "1e6 + abs(z1 - 0.3)"])
    def test_kink_on_the_boundary_fails_at_the_cap(self, plane, text, monkeypatch):
        grad_grid, _ = PLANES[plane]
        shapes = count_points(monkeypatch)
        with pytest.raises(QuadratureFailure, match=r"center \(0, 2\): halving estimate"):
            grad_grid([0.0], [2.0], 2.0, text)
        assert [s[1] for s in shapes] == [256, 256, 512, 1024]  # the new nodes of 256 ... 2048

    @pytest.mark.parametrize("plane", PLANES)
    def test_large_offset_adds_no_rounding(self, plane, monkeypatch):
        # a constant drops out with each center's mean of K: the pure offset
        # gives exactly zero, and no center doubles for the rounding of 1e6
        grad_grid, _ = PLANES[plane]
        z1, z2 = [0.1, -0.2, 0.3], [1.5, 1.8, 2.1]
        want = np.array(grad_grid(z1, z2, 2.0, QUADRATIC))
        shapes = count_points(monkeypatch)
        assert not np.any(grad_grid(z1, z2, 2.0, "1e6"))
        shifted = np.array(grad_grid(z1, z2, 2.0, "1e6 + z1^2 + (z2-2)^2"))
        scaled = np.array(grad_grid(z1, z2, 2.0, "1e6*(1 + 1e-3*(z1^2 + (z2-2)^2))"))
        assert shapes == [(3, 256)] * 3
        assert np.abs(shifted - want).max() < 1e-10
        assert np.abs(scaled - 1e3 * want).max() < 1e-10


class TestValueRule:
    """The self-checked disk average against the fixed-rule oracle, its cost and its failures."""

    @pytest.mark.parametrize("text", [QUADRATIC, TRANSCENDENTAL])
    @pytest.mark.parametrize("k", [1.2, 1.5, 2.0, 3.0])
    def test_matches_refined_oracle(self, k, text):
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(3)
        z1, z2 = np.append(g1.ravel(), -0.25), np.append(g2.ravel(), 3.0)
        got, want = melnikov_grid(z1, z2, k, text), disk_value(z1, z2, k, text)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), got - want

    def test_the_old_fixed_rule_misses_near_k_1(self):
        # at k = 1.2 the disk of (-0.25, 3) comes close to the complex poles of
        # tanh(z1*z2): the former default 64 x 128 rule is off by 6.5e-5 there
        old = disk_value([-0.25], [3.0], 1.2, TRANSCENDENTAL, 64, 128)
        want = disk_value([-0.25], [3.0], 1.2, TRANSCENDENTAL)
        assert abs(old - want)[0] > 1e-5
        assert abs(melnikov_grid([-0.25], [3.0], 1.2, TRANSCENDENTAL) - want)[0] < 1e-13

    @pytest.mark.parametrize("k", [1.2, 1.5, 2.0, 3.0])
    def test_fourteen_fields_within_tolerance(self, k):
        # the rate-aware estimate accepts no value off by more than the tolerance
        rng = np.random.default_rng(2101)
        z1, z2 = rng.uniform(-0.6, 0.6, 4), rng.uniform(1.2, 2.8, 4)
        for text in ACCURACY_FIELDS:
            got, want = melnikov_grid(z1, z2, k, text), disk_value(z1, z2, k, text)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), text

    def test_steep_bump_on_the_disk_edge(self):
        # the first order's n/4 level (4 radii x 8 angles) misses the bump, so
        # its gap to n/2 says nothing of the rate: the rule must not trust it
        k, rk = 1.2, curvature_radius(1.2)
        q1, q2, _, _, quarter = _quad.nested_disk_rule(16)
        q1, q2 = q1[: quarter.size], q2[: quarter.size] + k
        for angle in np.arange(8) * np.pi / 4 + 0.1:
            b1, b2 = 2.0 * rk * np.cos(angle), 2.0 * rk * (np.sin(angle) + k)
            text = f"exp(-100*((z1-{b1:.4f})^2 + (z2-{b2:.4f})^2))"
            want = disk_value([0.0], [2.0], k, text)[0]
            first = quarter / q2**2 @ eval_field(parse_field(text), 2.0 * rk * q1, 2.0 * rk * q2)
            assert abs(first - want) > 0.9 * want
            assert abs(melnikov_grid([0.0], [2.0], k, text)[0] - want) <= 1e-10, text

    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_points_per_center(self, k, monkeypatch):
        # the fixed rule took 64 x 128 = 8192 points per center
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(8)
        shapes = count_points(monkeypatch)
        melnikov_grid(g1.ravel(), g2.ravel(), k, QUADRATIC)
        assert sum(np.prod(s) for s in shapes) <= 2048 * g1.size

    @pytest.mark.parametrize("text, k, budget", [(TRANSCENDENTAL, 2.0, 8192), (QUADRATIC, 2.5, 512)])
    def test_landscape_points_per_center(self, text, k, budget, monkeypatch):
        # accepted on the rate of three nested levels, not on the gap of the
        # coarse half: 12,734 and 2,048 points per center when it was
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(32)
        shapes = count_points(monkeypatch)
        melnikov_grid(g1.ravel(), g2.ravel(), k, text)
        assert sum(np.prod(s) for s in shapes) <= budget * g1.size

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_rule_nodes_are_nested(self, n):
        # K at the order-n/2 points is the leading block of K at order n
        q1, q2, fine, half, quarter = _quad.nested_disk_rule(n)
        c1, c2, *coarse = _quad.nested_disk_rule(n // 2)
        assert np.array_equal(q1[: c1.size], c1) and np.array_equal(q2[: c2.size], c2)
        assert np.array_equal(half, coarse[0]) and np.array_equal(quarter, coarse[1])
        assert fine.size == 2 * n * n and half.size == n * n // 2 and quarter.size == n * n // 8
        for w in (fine, half, quarter):  # each level integrates q1**2 over the unit disk
            assert w @ q1[: w.size] ** 2 == pytest.approx(np.pi / 4, rel=1e-14)

    def test_large_batches_are_split(self, monkeypatch):
        # about 2**19 points per evaluation, never all centers of a large grid at once
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(30)
        shapes = count_points(monkeypatch)
        got = melnikov_grid(g1.ravel(), g2.ravel(), 2.0, QUADRATIC)
        assert max(np.prod(s) for s in shapes) <= 2**19 < g1.size * 2048
        assert np.array_equal(got, np.concatenate(
            [melnikov_grid(a, b, 2.0, QUADRATIC) for a, b in zip(g1, g2)]))

    def test_only_an_unresolved_center_refines(self, monkeypatch):
        # the spike at z1 = 5 needs order 64; the center at 0 sees K = 0
        text, z1, z2 = "exp(-1000*(z1-5)^2)", [0.0, 5.0], [1.5, 1.5]
        shapes = count_points(monkeypatch)
        both = melnikov_grid(z1, z2, 2.0, text)
        assert shapes[0] == (2, 512) and all(s[0] == 1 for s in shapes[1:])
        assert len(shapes) > 1
        alone = [melnikov_grid([a], [b], 2.0, text)[0] for a, b in zip(z1, z2)]
        assert np.array_equal(both, alone)

    def test_batch_and_single_centers_agree_bitwise(self):
        # the CSV's F and the one-center values of the search see the same numbers
        g1, g2 = RegionBox(-0.6, 0.6, 1.2, 2.8).grid(5)
        z1, z2 = g1.ravel(), g2.ravel()
        batch = melnikov_grid(z1, z2, 2.0, TRANSCENDENTAL)
        single = [melnikov_grid([a], [b], 2.0, TRANSCENDENTAL)[0] for a, b in zip(z1, z2)]
        assert np.array_equal(batch, single)

    def test_kink_fails_at_the_cap_naming_the_center(self, monkeypatch):
        shapes = count_points(monkeypatch)
        with pytest.raises(QuadratureFailure,
                           match=r"did not stabilize at center \(0.3, 2\): halving estimate"):
            melnikov_grid([0.3], [2.0], 2.0, "abs(z1 - 0.3) + (z2-2)^2")
        # order n has 2 n**2 points, of which the n**2 / 2 of order n/2 are known
        assert shapes == [(1, 512)] + [(1, 3 * n * n // 2) for n in (32, 64, 128, 256, 512)]

    def test_non_finite_field_names_the_first_such_center(self, monkeypatch):
        # exp(400*p2) overflows inside the disk of (0, 2), not inside that of (0, 1)
        shapes = count_points(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalDomainError, match=r"inside the disk of center \(0, 2\)$"):
                melnikov_grid([0.0, 0.0], [1.0, 2.0], 2.0, "exp(400*z2) - exp(400*z2)")
        assert shapes == [(2, 512)]  # no refinement

    def test_large_offset_is_resolved_to_its_rounding(self):
        # a field of size 1e8 whose average cancels: the gap is below the rounding of K
        got = melnikov_grid([0.0, 0.1], [1.5, 1.5], 2.0, "1e8*z1")
        want = disk_value([0.0, 0.1], [1.5, 1.5], 2.0, "1e8*z1")
        assert np.all(np.abs(got - want) < 1e-6)


class TestCriticalSearch:
    BOX = RegionBox(-0.6, 0.6, 1.2, 2.8)

    def test_constant_field_no_critical_point(self):
        search = find_critical(2.0, "1", self.BOX, grid=8)
        assert search.points == ()
        assert "constant" in search.note
        with pytest.raises(NoCritical):
            critical_point(2.0, "1", self.BOX, grid=8)

    def test_quadratic_minimum(self):
        search = find_critical(2.0, QUADRATIC, self.BOX, grid=12)
        assert len(search.points) == 1
        p = search.points[0]
        assert abs(p.z[0]) < 1e-8
        assert p.classification == "min"
        assert search.interior_min

    def test_quadratic_center_against_axis_scan(self):
        # cross-check the refined z2 with a 1-D brute scan of F(0, .)
        search = find_critical(2.0, QUADRATIC, self.BOX, grid=12)
        z2s = np.linspace(1.2, 2.8, 2001)
        values = melnikov_grid(np.zeros_like(z2s), z2s, 2.0, QUADRATIC)
        i = int(values.argmin())
        a, b, c = values[i - 1], values[i], values[i + 1]
        refined = z2s[i] + 0.5 * (a - c) / (a - 2 * b + c) * (z2s[1] - z2s[0])
        assert search.points[0].z[1] == pytest.approx(refined, abs=1e-9)

    def test_negated_field_is_max(self):
        search = find_critical(2.0, "-(z1^2) - (z2-2)^2", self.BOX, grid=12)
        assert len(search.points) == 1
        assert search.points[0].classification == "max"
        assert search.points[0].z[1] == pytest.approx(np.sqrt(3), abs=1e-4)
        assert search.interior_max

    @pytest.mark.parametrize("geometry, zstar", [(HALFPLANE, (0.0, np.sqrt(3.0))), (FLAT, (0.0, 2.0))])
    def test_large_offset_finds_the_same_point(self, geometry, zstar):
        # grad F is resolved only to the rounding of K, about 1e-16 |F|, and
        # Newton stops there; a constant field of any size is still constant
        search = find_critical(2.0, "1e6", self.BOX, grid=8, geometry=geometry)
        assert search.points == () and "constant" in search.note
        for text in ("1e6 + z1^2 + (z2-2)^2", "1e6*(1 + 1e-3*(z1^2 + (z2-2)^2))"):
            search = find_critical(2.0, text, self.BOX, grid=12, geometry=geometry)
            assert [p.classification for p in search.points] == ["min"]
            assert np.hypot(*np.subtract(search.points[0].z, zstar)) < 1e-8

    def test_monotone_field_has_no_zero(self):
        search = find_critical(2.0, "tanh(z1)", self.BOX, grid=8)
        assert search.points == ()

    def test_gradient_at_root_small(self):
        search = find_critical(2.0, QUADRATIC, self.BOX, grid=12)
        assert np.abs(search.points[0].grad).max() < 1e-10


class TestNewtonIterate:
    """Each Newton iterate is one gradient call on a point and its four +-h neighbours."""

    @pytest.mark.parametrize("plane", PLANES)
    def test_one_scan_and_one_five_center_call_per_iterate(self, plane, monkeypatch):
        grad_grid, curved = PLANES[plane]
        module, name = melnikov if curved else euclidean, grad_grid.__name__
        sizes = []

        def counted(z1, z2, *args, _fn=grad_grid):
            sizes.append(np.size(z1))
            return _fn(z1, z2, *args)

        monkeypatch.setattr(module, name, counted)
        search = find_critical(2.0, QUADRATIC, TestCriticalSearch.BOX, grid=12,
                               geometry=HALFPLANE if curved else FLAT)
        assert [p.classification for p in search.points] == ["min"]
        assert sizes == [12**2] + [5] * 4

    @pytest.mark.parametrize("plane", PLANES)
    def test_hessian_is_the_central_difference_of_one_center_calls(self, plane):
        grad_grid, curved = PLANES[plane]
        search = find_critical(3.0, "sin(2*z1)*cos(2*z2)", RegionBox(-1.5, 1.5, 1.2, 2.8), grid=8,
                               geometry=HALFPLANE if curved else FLAT)
        assert len(search.points) >= 5

        def gradient(z):
            return np.ravel(grad_grid([z[0]], [z[1]], 3.0, "sin(2*z1)*cos(2*z2)"))

        for p in search.points:
            z = np.array(p.z)
            h, cols = 1e-5 * max(1.0, float(np.hypot(*z))), []
            for axis in range(2):
                dz = np.zeros(2)
                dz[axis] = h
                cols.append((gradient(z + dz) - gradient(z - dz)) / (2.0 * h))
            jac = np.column_stack(cols)
            assert p.hess.tobytes() == (0.5 * (jac + jac.T)).tobytes()
            assert p.grad.tobytes() == gradient(z).tobytes()


SEARCH_FIELDS = TEST_FIELDS + [
    "1e6", "1e6 + z1^2 + (z2-2)^2", "1e8 + z1^2 + (z2-2)^2", "-3e5 + " + TRANSCENDENTAL,
]


def count_value_centers(monkeypatch) -> list:
    """Record how many centers each call of either plane's value rule gets."""
    sizes = []
    for module, name in ((melnikov, "melnikov_grid"), (euclidean, "melnikov_grid_euclid")):
        def counted(z1, z2, *args, _fn=getattr(module, name)):
            sizes.append(np.size(z1))
            return _fn(z1, z2, *args)

        monkeypatch.setattr(module, name, counted)
    return sizes


class TestSearchWithoutLandscape:
    """The seed search works from grad F; only ``find_critical`` adds the F landscape."""

    BOX = RegionBox(-0.6, 0.6, 1.2, 2.8)

    @pytest.mark.parametrize("geometry", [HALFPLANE, FLAT])
    @pytest.mark.parametrize("text", ["z1^2 + (z2-2)^2", "sin(z1) * cos(z2)", "1e6"])
    def test_value_rule_budget(self, geometry, text, monkeypatch):
        sizes = count_value_centers(monkeypatch)
        points = find_critical(2.0, text, self.BOX, grid=8, geometry=geometry).points
        assert sum(sizes) == 8**2 + len(points)
        sizes.clear()
        try:
            critical_point(2.0, text, self.BOX, 8, geometry)
        except NoCritical:
            assert not points
        # one node for the rounding scale, then one center per reported point
        assert sizes == [1] * (1 + len(points))

    @pytest.mark.parametrize("geometry", [HALFPLANE, FLAT])
    @pytest.mark.parametrize("text", SEARCH_FIELDS)
    def test_seed_is_the_first_nondegenerate_point_of_the_landscape(self, geometry, text):
        for k in (1.5, 2.0, 8.0):
            points = find_critical(k, text, self.BOX, grid=8, geometry=geometry).points
            if not points:
                with pytest.raises(NoCritical):
                    critical_point(k, text, self.BOX, 8, geometry)
                continue
            want = next((p.z for p in points if p.classification != "degenerate"), points[0].z)
            got = critical_point(k, text, self.BOX, 8, geometry)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (k, got, want)


class TestAsymptotics:
    def test_vertical_field_decreasing(self):
        errs = [asymptotic_check((0.0, 2.0), k, "z2").relerr for k in (10.0, 50.0, 250.0)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2

    def test_constant_field_closed_forms(self):
        # lhs = 2 (k R_k - 1) / (R_k^2 z2^2) against rhs = 1/z2^2
        z = (0.5, 1.5)
        errs = []
        for k in (10.0, 50.0, 250.0):
            chk = asymptotic_check(z, k, "1")
            rk = curvature_radius(k)
            lhs_exact = 2 * (k * rk - 1) / (rk**2 * z[1] ** 2)
            assert chk.lhs == pytest.approx(lhs_exact, rel=1e-9)
            assert chk.rhs == pytest.approx(1 / z[1] ** 2, rel=1e-14)
            errs.append(chk.relerr)
        assert errs[0] > errs[1] > errs[2]

    def test_zero_at_field_minimum_reports_absolute_gap(self):
        errs = []
        for k in (10.0, 50.0, 250.0):
            chk = asymptotic_check((0.0, 2.0), k, QUADRATIC)
            assert chk.rhs == 0.0
            errs.append(chk.relerr)  # absolute gap when rhs vanishes
        assert errs[0] > errs[1] > errs[2]
