import numpy as np
import pytest

from orlicz_wct import (
    YoungFunction,
    capped,
    complementary,
    deadzone,
    exp_type,
    generalized_inverse,
    power_plain,
    power_scaled,
)
from orlicz_wct import young
from orlicz_wct.harness import young_from_spec, young_to_spec
from orlicz_wct.young import _conjugate_eval

CATALOG = [
    power_scaled(2),
    power_scaled(1.5),
    power_plain(2),
    power_plain(3),
    exp_type(),
    deadzone(),
    capped(),
]


class TestEval:
    def test_evenness(self):
        assert power_plain(2)(-3.0) == 9.0

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.kind + str(p.params))
    def test_zero_at_zero(self, phi):
        assert phi(0.0) == 0.0

    def test_capped_beyond_cap(self):
        assert capped()(2.0) == np.inf
        assert capped()(1.0) == 1.0  # left-continuous at b_phi

    def test_vectorized(self):
        vals = power_scaled(2)(np.array([-2.0, 0.0, 2.0]))
        np.testing.assert_allclose(vals, [2.0, 0.0, 2.0])

    def test_audit_rejects_concave(self):
        with pytest.raises(ValueError, match="convex"):
            YoungFunction("bad", (), lambda x: np.sqrt(x))

    def test_audit_rejects_nonzero_origin(self):
        with pytest.raises(ValueError, match="phi\\(0\\)"):
            YoungFunction("bad", (), lambda x: x + 1.0)


class TestComplementary:
    def test_power_scaled_closed_form(self):
        # conjugate exponent of 2 is 2, and |3|^2 / 2 = 4.5
        psi = complementary(power_scaled(2))
        assert psi.kind == "power_scaled"
        assert psi(3.0) == pytest.approx(4.5, abs=1e-12)

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.kind + str(p.params))
    def test_conjugate_attribute_is_built_once(self, phi, monkeypatch):
        # a fresh gauge of the same kind: its first access builds the
        # conjugate, through one complementary call, and later ones share it
        fresh = young_from_spec(young_to_spec(phi))
        calls = []

        def counted(gauge):
            calls.append(gauge)
            return complementary(gauge)

        monkeypatch.setattr(young, "complementary", counted)
        psi = fresh.conjugate
        assert fresh.conjugate is psi
        assert calls == [fresh]
        grid = np.concatenate([[0.0], np.logspace(-4, 4, 81)])
        np.testing.assert_array_equal(psi(grid), complementary(phi)(grid))

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.kind + str(p.params))
    def test_zero_at_zero(self, phi):
        assert complementary(phi)(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_deadzone_value_against_grid_oracle(self):
        # oracle first: dense maximization of 0.5*x - max(0, x - 1) on [0, 100]
        xs = np.arange(0.0, 100.0, 1e-4)
        oracle = float(np.max(0.5 * xs - np.maximum(0.0, xs - 1.0)))
        assert oracle == pytest.approx(0.5, abs=1e-4)
        psi = complementary(deadzone())
        assert psi(0.5) == pytest.approx(oracle, abs=1e-8)

    def test_numeric_conjugate_of_non_catalog_square(self):
        # oracle: dense maximization of x*y - x^2, maximum y^2/4 at x = y/2;
        # a gauge built outside the catalog has no closed form to fall back on
        psi = complementary(YoungFunction("square", (), lambda x: x**2))
        assert psi.kind == "numeric_conjugate"
        for y in (0.5, 1.0, 3.0, 10.0):
            xs = np.linspace(0.0, 4.0 * y, 200001)
            oracle = float(np.max(xs * y - xs**2))
            assert psi(y) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_biconjugation_power_scaled(self):
        phi = power_scaled(3)
        back = complementary(complementary(phi))
        xs = np.logspace(-3, 3, 40)
        np.testing.assert_allclose(back(xs), phi(xs), rtol=1e-6)

    def test_numeric_biconjugation(self):
        # numeric route: conjugate of the numeric conjugate of a non-catalog
        # square must come back to x^2 on a grid
        phi = YoungFunction("square", (), lambda x: x**2)
        back = complementary(complementary(phi))
        assert back.kind == "numeric_conjugate"
        xs = np.logspace(-2, 2, 25)
        np.testing.assert_allclose(back(xs), phi(xs), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("factory", [power_scaled, power_plain])
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
    def test_power_closed_form_against_numeric_conjugate(self, factory, p):
        # oracle: the numeric maximization, with a search cap past every
        # maximizer on the grid and the ternary search run to exhaustion
        phi = factory(p)
        ys = np.logspace(-6, 6, 49)
        oracle = _conjugate_eval(phi, ys, grid_max=1e30, grid_n=129, xtol=0.0)
        psi = complementary(phi)
        assert psi.kind != "numeric_conjugate"
        np.testing.assert_allclose(psi(ys), oracle, rtol=1e-9, atol=0.0)

    def test_p_one_stays_numeric(self):
        assert complementary(power_plain(1)).kind == "numeric_conjugate"
        assert complementary(power_scaled(1)).kind == "numeric_conjugate"


class TestGeneralizedInverse:
    def test_strict_inverse_of_square(self):
        assert generalized_inverse(power_plain(2), 9.0) == pytest.approx(3.0, abs=1e-9)

    def test_deadzone_at_zero_jumps_to_one(self):
        assert generalized_inverse(deadzone(), 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_power_scaled_against_analytic_oracle(self):
        # oracle: solve x^2/2 = 2 analytically; the gauge is strictly
        # increasing so the generalized inverse is the true inverse
        oracle = float(np.sqrt(2.0 * 2.0))
        assert generalized_inverse(power_scaled(2), 2.0) == pytest.approx(
            oracle, abs=1e-9
        )

    def test_vectorized_and_inf(self):
        out = generalized_inverse(power_plain(2), np.array([0.0, 4.0, np.inf]))
        np.testing.assert_allclose(out[:2], [0.0, 2.0], atol=1e-9)
        assert np.isinf(out[2])

    def test_capped_saturates_at_cap(self):
        assert generalized_inverse(capped(), 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generalized_inverse(power_plain(2), -1.0)

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.kind + str(p.params))
    def test_inverse_composition_bounds(self, phi):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 50.0, 1000)
        inv = generalized_inverse(phi, xs)
        finite = np.isfinite(inv)
        vals = phi(inv[finite])
        assert np.all(vals <= xs[finite] + 1e-8 * (1.0 + xs[finite]))
        fx = phi(xs)
        ok = np.isfinite(fx)
        back = generalized_inverse(phi, fx[ok])
        assert np.all(xs[ok] <= back + 1e-8 * (1.0 + back))

    @pytest.mark.parametrize(
        "phi", [power_scaled(2), power_plain(1.5), power_plain(3), exp_type()],
        ids=lambda p: p.kind + str(p.params),
    )
    def test_n_function_roundtrip(self, phi):
        rng = np.random.default_rng(6)
        xs = rng.uniform(1e-3, 20.0, 1000)
        back = generalized_inverse(phi, phi(xs))
        np.testing.assert_allclose(back, xs, rtol=1e-8, atol=1e-8)


class TestClosedFormInverse:
    @pytest.mark.parametrize("conjugate", [False, True], ids=["phi", "psi"])
    @pytest.mark.parametrize("factory", [power_scaled, power_plain])
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
    def test_against_bisection(self, p, factory, conjugate):
        # oracle: bisection on a gauge with the same evaluator and no hint
        phi = complementary(factory(p)) if conjugate else factory(p)
        bare = YoungFunction("bare", (), phi._fn)
        ys = np.logspace(-6, 6, 49)
        oracle = generalized_inverse(bare, ys, tol=1e-15)
        np.testing.assert_allclose(
            generalized_inverse(phi, ys), oracle, rtol=1e-9, atol=0.0
        )

    @pytest.mark.parametrize("factory", [power_scaled, power_plain])
    def test_finite_beyond_the_bisection_bracket(self, factory):
        phi = factory(2.0)
        y = float(phi(1e15)) * 1e4
        assert np.isinf(generalized_inverse(YoungFunction("bare", (), phi._fn), y))
        inv = generalized_inverse(phi, y)
        assert inv == pytest.approx(1e17, rel=1e-12)
        assert phi(inv) == pytest.approx(y, rel=1e-12)

    def test_zero_and_inf(self):
        psi = complementary(power_plain(1.5))
        out = generalized_inverse(psi, np.array([0.0, np.inf]))
        assert out[0] == 0.0 and np.isinf(out[1])


class TestGrowthConditions:
    def test_young_equality_at_conjugate_point(self):
        phi = power_scaled(2)
        psi = complementary(phi)
        # equality 1*1 = phi(1) + psi(1) = 1/2 + 1/2
        assert phi(1.0) + psi(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_product_at_two(self):
        phi = power_scaled(2)
        psi = complementary(phi)
        # oracle: sqrt(2*2) * sqrt(2*2) = 4, inside (2, 4]
        prod = generalized_inverse(phi, 2.0) * generalized_inverse(psi, 2.0)
        assert prod == pytest.approx(4.0, abs=1e-8)
        assert 2.0 < prod <= 4.0 * (1.0 + 1e-8)


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.kind + str(p.params))
def test_inverse_product_sandwich_on_wide_grid(phi):
    """x < phi_inv(x) psi_inv(x) <= 2x on a log grid spanning twelve decades."""
    psi = complementary(phi)
    grid = np.logspace(-6, 6, 97)
    prod = generalized_inverse(phi, grid, tol=1e-12)
    prod = prod * generalized_inverse(psi, grid, tol=1e-12)
    inside = (prod > grid * (1.0 - 1e-8)) & (prod <= 2.0 * grid * (1.0 + 1e-8))
    assert inside.all(), (grid[~inside], prod[~inside])
