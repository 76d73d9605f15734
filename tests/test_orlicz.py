import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_wct import (
    FiniteMeasureSpace,
    OrliczContext,
    YoungFunction,
    capped,
    complementary,
    deadzone,
    exp_type,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    power_plain,
    power_scaled,
)


def _bare(phi):
    """Same evaluator without the power-law pair, so norms bisect."""
    return YoungFunction("bare", phi.params, phi._fn)


@pytest.fixture
def ctx_pp2(two_atom_space):
    return OrliczContext(two_atom_space, power_plain(2))


@pytest.fixture
def ctx_ps2(two_atom_space):
    return OrliczContext(two_atom_space, power_scaled(2))


class TestModular:
    def test_sum_of_squares(self, ctx_pp2):
        assert modular(ctx_pp2, [3.0, 4.0]) == 25.0

    def test_zero(self, ctx_ps2):
        assert modular(ctx_ps2, [0.0, 0.0]) == 0.0

    def test_infinite_beyond_cap(self, two_atom_space):
        ctx = OrliczContext(two_atom_space, capped())
        assert modular(ctx, [2.0, 0.0]) == np.inf

    def test_weighted(self, r2_space):
        ctx = OrliczContext(r2_space, power_plain(2))
        assert modular(ctx, [1.0, 1.0]) == pytest.approx(4.0)


class TestLuxemburgNorm:
    def test_matches_euclidean_norm(self, ctx_pp2):
        # oracle: N(f) = ||f||_2 for phi = x^2 on unit weights
        assert luxemburg_norm(ctx_pp2, [3.0, 4.0]) == pytest.approx(5.0, rel=1e-9)

    def test_zero_function(self, ctx_pp2):
        assert luxemburg_norm(ctx_pp2, [0.0, 0.0]) == 0.0

    def test_scaled_power_oracle(self, ctx_ps2):
        # oracle: modular(f/k) = ||f||_p^p / (p k^p) = 1 gives k = ||f||_p / p^(1/p)
        oracle = 5.0 / np.sqrt(2.0)
        assert luxemburg_norm(ctx_ps2, [3.0, 4.0]) == pytest.approx(oracle, rel=1e-9)

    def test_deadzone_oracle(self, two_atom_space):
        # oracle: solve (3/k - 1) + (4/k - 1) = 1 while both terms positive
        ctx = OrliczContext(two_atom_space, deadzone())
        assert luxemburg_norm(ctx, [3.0, 4.0]) == pytest.approx(7.0 / 3.0, rel=1e-9)

    def test_batch_matches_single(self, ctx_ps2):
        rng = np.random.default_rng(0)
        cols = rng.uniform(-3, 3, (2, 20))
        batch = luxemburg_norms(ctx_ps2, cols)
        singles = [luxemburg_norm(ctx_ps2, cols[:, j]) for j in range(20)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(-8, 8), seed=st.integers(0, 2**16))
    def test_absolute_homogeneity(self, scale, seed):
        rng = np.random.default_rng(seed)
        space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 5))
        ctx = OrliczContext(space, power_scaled(2))
        f = rng.uniform(-2, 2, 5)
        lhs = luxemburg_norm(ctx, scale * f)
        rhs = abs(scale) * luxemburg_norm(ctx, f)
        assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + rhs))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for phi in (power_scaled(2), power_plain(3), exp_type(), deadzone()):
            space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 6))
            ctx = OrliczContext(space, phi)
            for _ in range(40):
                f = rng.uniform(-2, 2, 6)
                g = rng.uniform(-2, 2, 6)
                lhs = luxemburg_norm(ctx, f + g)
                rhs = luxemburg_norm(ctx, f) + luxemburg_norm(ctx, g)
                assert lhs <= rhs + 1e-8 * (1 + rhs)

    def test_unit_ball_characterization(self):
        rng = np.random.default_rng(4)
        for phi in (power_scaled(2), power_plain(2), exp_type(), deadzone(), capped()):
            space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 6))
            ctx = OrliczContext(space, phi)
            for _ in range(40):
                f = rng.uniform(-2, 2, 6)
                if np.all(f == 0):
                    continue
                norm = luxemburg_norm(ctx, f)
                assert modular(ctx, f / norm) <= 1.0 + 1e-8

    def test_lebesgue_consistency(self):
        # for phi = |x|^p the norm is the weighted p-norm, on the closed-form
        # route of the catalog gauge and on the bisection route of a
        # hint-less gauge with the same evaluator
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 3.0):
            space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 8))
            phi = power_plain(p)
            ctxs = [OrliczContext(space, phi), OrliczContext(space, _bare(phi))]
            for _ in range(30):
                f = rng.uniform(-3, 3, 8)
                oracle = float(
                    np.sum(np.abs(f) ** p * space.weights) ** (1.0 / p)
                )
                for ctx in ctxs:
                    got = luxemburg_norm(ctx, f)
                    assert got == pytest.approx(oracle, abs=1e-9 * (1 + oracle))

    def test_monotone_in_absolute_value(self):
        rng = np.random.default_rng(6)
        space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 6))
        for phi in (power_scaled(2), exp_type()):
            ctx = OrliczContext(space, phi)
            for _ in range(40):
                f = rng.uniform(-2, 2, 6)
                g = np.sign(f) * (np.abs(f) + rng.uniform(0, 1, 6))
                assert luxemburg_norm(ctx, f) <= luxemburg_norm(ctx, g) + 1e-10

    def test_non_finite_rejected(self, ctx_pp2):
        with pytest.raises(ValueError, match="finite"):
            luxemburg_norm(ctx_pp2, [np.inf, 1.0])


class TestPowerLawNorms:
    """Closed-form norms of power laws against bisection on the same evaluator."""

    SCALES = (1e-150, 1e-8, 1.0, 1e8, 1e150)

    def _cols(self, rng, n_atoms):
        cols = []
        for scale in self.SCALES:
            block = scale * rng.uniform(-3.0, 3.0, (n_atoms, 12))
            block[rng.random(block.shape) < 0.2] = 0.0
            block[:, 0] = 0.0
            cols.append(block)
        return np.hstack(cols)

    def _gauges(self):
        for p in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0):
            for phi in (power_scaled(p), power_plain(p)):
                yield phi
                if p > 1:
                    yield complementary(phi)

    def test_matches_bisection_and_keeps_the_unit_ball(self):
        rng = np.random.default_rng(11)
        for phi in self._gauges():
            assert phi._power is not None, phi
            space = FiniteMeasureSpace.from_weights(rng.uniform(0.2, 2.0, 9))
            cols = self._cols(rng, space.n_atoms)
            ctx = OrliczContext(space, phi)
            exact = luxemburg_norms(ctx, cols)
            bisected = luxemburg_norms(OrliczContext(space, _bare(phi)), cols)
            np.testing.assert_array_equal(exact == 0.0, bisected == 0.0)
            np.testing.assert_array_equal(exact == 0.0, ~cols.any(axis=0))
            live = exact > 0.0
            gap = np.abs(exact[live] - bisected[live]) / bisected[live]
            assert gap.max() <= 2e-10, (phi, gap.max())
            # the closed form itself: a few ulps from the weighted p-norm
            c, p = phi._power
            f = cols[:, live]
            s = np.abs(f).max(axis=0)
            direct = s * (c * space.weights @ np.abs(f / s) ** p) ** (1.0 / p)
            np.testing.assert_allclose(exact[live], direct, rtol=1e-13)
            for j in np.flatnonzero(live):
                assert modular(ctx, cols[:, j] / exact[j]) <= 1.0, (phi, j)

    def test_subnormal_weights_fall_back_to_bisection(self):
        # the evaluator loses precision with weights this small, so the
        # closed form stays above modular 1 for more than 16 ulps; those
        # columns get exactly what the bisection route returns (this checks
        # the route taken and that it terminates, not the value)
        cases = [
            ([1e-320, 5e-321, 1e-319], [[1.0, 0.5], [-2.0, 0.0], [0.5, 3.0]]),
            # the modular at f/max|f| rounds to 0, so the closed form gives
            # k = 0 and modular(f/k) is NaN; that too must fall back
            ([5e-324, 5e-324], [[1.0], [0.0]]),
        ]
        for weights, f in cases:
            space = FiniteMeasureSpace.from_weights(weights)
            for phi in (power_plain(2), power_scaled(2)):
                exact = luxemburg_norms(OrliczContext(space, phi), np.array(f))
                bisected = luxemburg_norms(
                    OrliczContext(space, _bare(phi)), np.array(f)
                )
                np.testing.assert_array_equal(exact, bisected)
                assert np.all(exact > 0.0), (weights, phi, exact)


class TestBisectionBracket:
    """Norms far from max|f|: the bisection bracket must reach them."""

    F = np.array([1.0, -2.0, 0.5, 3.0])

    def _norms(self, phi, weight):
        space = FiniteMeasureSpace.from_weights([weight] * 4)
        # with the pair, the exact route falls back to bisection at 1e300
        for gauge in (_bare(phi), phi):
            ctx = OrliczContext(space, gauge)
            k = luxemburg_norm(ctx, self.F)
            assert modular(ctx, self.F / k) <= 1.0, (weight, gauge.kind, k)
            yield ctx, k

    @pytest.mark.parametrize("weight", [1e300, 1e-300])
    def test_matches_the_log_space_norm(self, weight):
        for phi in (power_scaled(1.5), power_plain(2), power_plain(3)):
            c, p = phi._power
            log_sum = np.log(np.sum(np.abs(self.F) ** p)) + np.log(weight)
            oracle = np.exp((np.log(c) + log_sum) / p)
            for _, k in self._norms(phi, weight):
                assert k == pytest.approx(oracle, rel=1e-9), (weight, phi.kind)

    def test_subnormal_weights_reach_the_least_certified_k(self):
        # near the true norm phi(f/k) is about 1/mu, which overflows, so no k
        # within 1e-9 of it has modular(f/k) <= 1 in floating point; the
        # bracket must still reach the least k that does, to tolerance
        for phi in (power_scaled(1.5), power_plain(2)):
            for ctx, k in self._norms(phi, 1e-320):
                assert not modular(ctx, self.F / (k * (1.0 - 2e-10))) <= 1.0

