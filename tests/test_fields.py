import numpy as np
import pytest

from hyploop.errors import EvalDomainError, FieldSyntaxError, NonDifferentiable
from hyploop.fields import (
    RegionBox,
    check_nonexistence,
    eval_field,
    eval_grad,
    grad_field,
    parse_field,
)

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


class TestParsing:
    def test_constant(self):
        assert eval_field(parse_field("1"), 0.3, 7.7) == 1.0

    def test_quadratic_minimum(self):
        k = parse_field("z1^2 + (z2-2)^2")
        assert eval_field(k, 0.0, 2.0) == 0.0
        assert eval_field(k, 1.0, 3.0) == 2.0

    def test_precedence(self):
        assert eval_field(parse_field("2 + 3 * 4"), 0, 1) == 14.0
        assert eval_field(parse_field("2 * 3 ^ 2"), 0, 1) == 18.0
        assert eval_field(parse_field("2 ^ 3 ^ 2"), 0, 1) == 512.0  # right-assoc
        assert eval_field(parse_field("-z1^2"), 3.0, 1.0) == -9.0
        assert eval_field(parse_field("z1^-2"), 2.0, 1.0) == 0.25
        assert eval_field(parse_field("6 - 2 - 1"), 0, 1) == 3.0  # left-assoc

    def test_whitespace_insensitive(self):
        a = parse_field("z1^2+(z2-2)^2")
        b = parse_field("  z1 ^ 2 + ( z2 - 2 ) ^ 2 ")
        pts = np.linspace(0.1, 3.0, 7)
        assert np.array_equal(eval_field(a, pts, pts), eval_field(b, pts, pts))

    def test_tanh_bounded(self):
        k = parse_field("tanh(z1)")
        vals = eval_field(k, np.linspace(-50, 50, 1001), 1.0)
        assert np.abs(vals).max() <= 1.0
        assert eval_field(k, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("2z1", 1),          # implicit multiplication
            ("z1 +", 4),         # dangling operator
            ("(z1", 3),          # unbalanced paren
            ("z3", 0),           # unknown name
            ("sin z1", 4),       # function without parens
            ("z1 $ z2", 3),      # stray character
        ],
    )
    def test_syntax_errors_carry_offsets(self, text, offset):
        with pytest.raises(FieldSyntaxError) as info:
            parse_field(text)
        assert info.value.offset == offset

    def test_empty_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("   ")


class TestEvaluation:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            eval_field(parse_field("1 / z1"), 0.0, 1.0)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            eval_field(parse_field("log(z1)"), -1.0, 1.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            eval_field(parse_field("sqrt(z1)"), -2.0, 1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalDomainError):
            eval_field(parse_field("z1 ^ 0.5"), -1.0, 1.0)

    def test_integer_power_of_negative_ok(self):
        assert eval_field(parse_field("(0 - 1) ^ 2"), 0.0, 1.0) == 1.0
        assert eval_field(parse_field("z1 ^ 3"), -2.0, 1.0) == -8.0

    def test_vectorized_broadcast(self):
        k = parse_field("z1 * z2")
        z1 = np.ones((4, 1)) * np.arange(3)
        out = eval_field(k, z1, 2.0)
        assert out.shape == (4, 3)
        assert np.array_equal(out[0], [0.0, 2.0, 4.0])


class TestGradient:
    def test_linear(self):
        d1, d2 = grad_field(parse_field("z2"))
        assert eval_field(d1, 1.0, 1.0) == 0.0
        assert eval_field(d2, 1.0, 1.0) == 1.0

    def test_constructed_minimum(self):
        g1, g2 = eval_grad(parse_field("z1^2 + (z2-2)^2"), 0.0, 2.0)
        assert g1 == 0.0 and g2 == 0.0

    @pytest.mark.parametrize("text", TEST_FIELDS)
    def test_matches_finite_differences(self, text, rng):
        expr = parse_field(text)
        h = 1e-6
        for _ in range(20):
            z1 = rng.uniform(0.5, 2.5)
            z2 = rng.uniform(0.5, 3.0)
            g1, g2 = eval_grad(expr, z1, z2)
            f1 = (eval_field(expr, z1 + h, z2) - eval_field(expr, z1 - h, z2)) / (2 * h)
            f2 = (eval_field(expr, z1, z2 + h) - eval_field(expr, z1, z2 - h)) / (2 * h)
            scale = max(1.0, abs(g1), abs(g2))
            assert abs(g1 - f1) / scale < 1e-6
            assert abs(g2 - f2) / scale < 1e-6

    def test_abs_gradient_away_from_zero(self):
        expr = parse_field("abs(z1)")
        g1, _ = eval_grad(expr, 2.0, 1.0)
        assert g1 == 1.0
        g1, _ = eval_grad(expr, -2.0, 1.0)
        assert g1 == -1.0

    def test_abs_gradient_at_zero_raises(self):
        expr = parse_field("abs(z1 - 1)")
        with pytest.raises(NonDifferentiable):
            eval_grad(expr, 1.0, 1.0)

    def test_hyperbolic_gradient_same_zero_set(self, rng):
        # scaled gradient z2^2 * grad vanishes exactly where grad does
        expr = parse_field("sin(z1) * (z2 - 2)")
        z1 = rng.uniform(-3, 3, 200)
        z2 = rng.uniform(0.5, 4, 200)
        g1, g2 = eval_grad(expr, z1, z2)
        euc = np.hypot(g1, g2)
        hyp = z2**2 * euc
        tol = 1e-12
        assert np.array_equal(euc < tol, hyp < tol)


# text -> (K, dK/dz1, dK/dz2) in plain numpy, and the (z1, z2) ranges sampled,
# inside the field's domain
HAND_WRITTEN = {
    "1": (lambda a, b: 1.0 + 0 * a, lambda a, b: 0 * a, lambda a, b: 0 * a, (0.5, 2.5), (0.5, 3)),
    "z1^2 + (z2-2)^2": (
        lambda a, b: a**2 + (b - 2) ** 2, lambda a, b: 2 * a, lambda a, b: 2 * (b - 2),
        (0.5, 2.5), (0.5, 3),
    ),
    "tanh(z1)": (
        lambda a, b: np.tanh(a), lambda a, b: 1 - np.tanh(a) ** 2, lambda a, b: 0 * a,
        (0.5, 2.5), (0.5, 3),
    ),
    "sin(z1) * cos(z2)": (
        lambda a, b: np.sin(a) * np.cos(b), lambda a, b: np.cos(a) * np.cos(b),
        lambda a, b: -np.sin(a) * np.sin(b), (0.5, 2.5), (0.5, 3),
    ),
    "exp(-z1^2 - (z2-2)^2)": (
        lambda a, b: np.exp(-(a**2) - (b - 2) ** 2),
        lambda a, b: -2 * a * np.exp(-(a**2) - (b - 2) ** 2),
        lambda a, b: -2 * (b - 2) * np.exp(-(a**2) - (b - 2) ** 2), (0.5, 2.5), (0.5, 3),
    ),
    "atan(z1 * z2)": (
        lambda a, b: np.arctan(a * b), lambda a, b: b / (1 + (a * b) ** 2),
        lambda a, b: a / (1 + (a * b) ** 2), (0.5, 2.5), (0.5, 3),
    ),
    "sqrt(z2) + z1 / z2": (
        lambda a, b: np.sqrt(b) + a / b, lambda a, b: 1 / b,
        lambda a, b: 1 / (2 * np.sqrt(b)) - a / b**2, (0.5, 2.5), (0.5, 3),
    ),
    "log(z2) - z1^3 / 7": (
        lambda a, b: np.log(b) - a**3 / 7, lambda a, b: -3 * a**2 / 7, lambda a, b: 1 / b,
        (-2.5, -0.5), (1.0, 3),
    ),
    "2 ^ z2": (
        lambda a, b: 2.0**b, lambda a, b: 0 * a, lambda a, b: 2.0**b * np.log(2.0),
        (0.5, 2.5), (0.5, 3),
    ),
    "z1^0": (
        lambda a, b: 1.0 + 0 * a, lambda a, b: 0 * a, lambda a, b: 0 * a, (-2.5, 2.5), (0.5, 3),
    ),
    "z1^1": (lambda a, b: a, lambda a, b: 1.0 + 0 * a, lambda a, b: 0 * a, (-2.5, 2.5), (0.5, 3)),
    "z1^3": (lambda a, b: a**3, lambda a, b: 3 * a**2, lambda a, b: 0 * a, (-2.5, 2.5), (0.5, 3)),
    "z1^-1": (lambda a, b: 1 / a, lambda a, b: -1 / a**2, lambda a, b: 0 * a, (0.5, 2.5), (0.5, 3)),
    "z2^0.5": (
        lambda a, b: np.sqrt(b), lambda a, b: 0 * a, lambda a, b: 0.5 / np.sqrt(b),
        (-2.5, 2.5), (0.5, 3),
    ),
    "z2^z1": (
        lambda a, b: b**a, lambda a, b: b**a * np.log(b), lambda a, b: a * b ** (a - 1),
        (-2.5, 2.5), (0.5, 3),
    ),
    "abs(z1-0.3)": (
        lambda a, b: np.abs(a - 0.3), lambda a, b: np.sign(a - 0.3), lambda a, b: 0 * a,
        (-2.5, 2.5), (0.5, 3),
    ),
}


class TestCompiledKernels:
    """Compiled value and gradient against hand-written numpy, to 1e-14 relative."""

    @pytest.mark.parametrize(
        "text", TEST_FIELDS + ["z1^0", "z1^1", "z1^3", "z1^-1", "z2^0.5", "z2^z1", "abs(z1-0.3)"]
    )
    def test_value_and_gradient(self, text, rng):
        k, k1, k2, (lo1, hi1), (lo2, hi2) = HAND_WRITTEN[text]
        z1 = rng.uniform(lo1, hi1, 500)
        z2 = rng.uniform(lo2, hi2, 500)
        expr = parse_field(text)
        g1, g2 = eval_grad(expr, z1, z2)
        np.testing.assert_allclose(eval_field(expr, z1, z2), k(z1, z2), rtol=1e-14, atol=0)
        np.testing.assert_allclose(g1, k1(z1, z2), rtol=1e-14, atol=0)
        np.testing.assert_allclose(g2, k2(z1, z2), rtol=1e-14, atol=0)

    def test_deep_tree(self):
        # a left-leaning sum 500 levels deep compiles, evaluates and differentiates
        expr = parse_field(" + ".join(["z1 * z2"] * 500))
        assert eval_field(expr, 1.0, 2.0) == 1000.0
        g1, g2 = eval_grad(expr, 1.0, 2.0)
        assert g1 == 1000.0 and g2 == 500.0

    def test_gradient_is_built_once_per_expression(self):
        expr = parse_field("exp(-z1^2)*sin(z2) + tanh(z1*z2)")
        assert grad_field(expr) is grad_field(expr)


class TestDomain:
    """Each domain check raises its error with the message naming the node."""

    @pytest.mark.parametrize(
        "text,z,message",
        [
            ("1/(z1-z1)", (0.7, 1.0), "division by zero in '1.0 / (z1 - z1)'"),
            ("atan(1/z1)", (0.0, 1.0), "division by zero in '1.0 / z1'"),
            ("exp(-1/z1)", (0.0, 1.0), "division by zero in '-1.0 / z1'"),
            ("log(z1)", (0.0, 1.0), "log of non-positive value in 'log(z1)'"),
            ("sqrt(z1)", (-1.0, 1.0), "sqrt of negative value in 'sqrt(z1)'"),
            ("z1^-1", (0.0, 1.0), "0 raised to a negative power in 'z1^(-1.0)'"),
            ("z1^0.5", (-1.0, 1.0), "negative base with non-integer exponent in 'z1^0.5'"),
            ("z1^z2", (-1.0, 0.5), "negative base with non-integer exponent in 'z1^z2'"),
        ],
    )
    def test_eval_domain_error(self, text, z, message):
        with pytest.raises(EvalDomainError) as info:
            eval_field(parse_field(text), *z)
        assert str(info.value) == message

    def test_abs_gradient_at_zero(self):
        with pytest.raises(NonDifferentiable) as info:
            eval_grad(parse_field("abs(z1)"), 0.0, 1.0)
        assert str(info.value) == "gradient of abs(...) queried where its argument vanishes"

    def test_overflow_gives_inf_not_an_error(self):
        with pytest.warns(RuntimeWarning):
            assert eval_field(parse_field("exp(z1)"), 1000.0, 1.0) == np.inf


class TestRoundTrip:
    @pytest.mark.parametrize("text", TEST_FIELDS + ["-(z1 - z2) ^ 3", "1 - (2 - z1)"])
    def test_pretty_print_reparses_bitwise(self, text, rng):
        expr = parse_field(text)
        again = parse_field(expr.text())
        z1 = rng.uniform(0.5, 2.5, 100)
        z2 = rng.uniform(0.5, 3.0, 100)
        assert np.array_equal(eval_field(expr, z1, z2), eval_field(again, z1, z2))

    def test_derivative_prints_reparse(self, rng):
        expr = parse_field("exp(-z1^2) * sin(z2)")
        for node in grad_field(expr):
            again = parse_field(node.text())
            z1 = rng.uniform(-2, 2, 50)
            z2 = rng.uniform(0.5, 3, 50)
            assert np.array_equal(eval_field(node, z1, z2), eval_field(again, z1, z2))


class TestRegionBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegionBox(1.0, -1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RegionBox(-1.0, 1.0, -0.5, 2.0)

    def test_grid_includes_corners(self):
        box = RegionBox(-1.0, 1.0, 1.0, 3.0)
        g1, g2 = box.grid(3)
        assert g1.min() == -1.0 and g1.max() == 1.0
        assert g2.min() == 1.0 and g2.max() == 3.0


class TestNonexistence:
    def test_tanh_flags_two_ways(self):
        box = RegionBox(-2.0, 2.0, 0.5, 3.0)
        rep = check_nonexistence("tanh(z1)", box, samples=16)
        assert rep.supnorm_le_one            # |tanh| <= 1
        assert rep.monotone_e1               # d/dz1 tanh > 0
        assert rep.blocked
        assert "sampled" in rep.note

    def test_constant_field(self):
        rep = check_nonexistence("1", RegionBox(-1, 1, 1, 2), samples=8)
        assert rep.supnorm_le_one
        assert not rep.monotone_e1
        assert not rep.monotone_radial
        assert not rep.monotone_squared

    def test_radial_monotonicity(self):
        # grad(|z|^2) . z = 2|z|^2 > 0 away from the origin
        rep = check_nonexistence("z1^2 + z2^2", RegionBox(1.0, 2.0, 1.0, 2.0), samples=8)
        assert rep.monotone_radial
        assert not rep.supnorm_le_one

    def test_unbounded_quadratic_not_blocked(self):
        rep = check_nonexistence("z1^2 + (z2-2)^2", RegionBox(-3, 3, 0.5, 4), samples=16)
        assert not rep.blocked

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_nonexistence("1", RegionBox(-1, 1, 1, 2), samples=1)
