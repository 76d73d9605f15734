import numpy as np
import pytest

from orlicz_wct import (
    CondExp,
    FiniteMeasureSpace,
    OrliczContext,
    Partition,
    YoungFunction,
    check_condexp_laws,
    complementary,
    cond_exp,
    deadzone,
    estimate_gch_constant,
    gch_constant_report,
    luxemburg_norm,
    power_plain,
    power_scaled,
    support,
)

from conftest import random_operator


@pytest.fixture
def e_weighted(r2_space):
    return CondExp(r2_space, Partition.single_block(2))


class TestCondExp:
    def test_weighted_average(self, e_weighted):
        # oracle: (4*1 + 0*3) / (1 + 3) = 1 on the block
        np.testing.assert_allclose(cond_exp(e_weighted, [4.0, 0.0]), [1.0, 1.0])

    def test_finest_partition_is_identity(self):
        space = FiniteMeasureSpace.from_weights([1.0, 3.0])
        e = CondExp(space, Partition.finest(2))
        np.testing.assert_allclose(cond_exp(e, [4.0, 0.0]), [4.0, 0.0])

    def test_equal_weight_average(self, e_one_block):
        np.testing.assert_allclose(cond_exp(e_one_block, [1.0, 3.0]), [2.0, 2.0])

    def test_columns(self, e_weighted):
        cols = np.array([[4.0, 1.0], [0.0, 1.0]])
        out = cond_exp(e_weighted, cols)
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_defining_identity_on_blocks(self):
        rng = np.random.default_rng(0)
        for seed in range(25):
            t = random_operator(seed)
            e = t.e
            f = rng.uniform(-3, 3, e.space.n_atoms)
            ef = cond_exp(e, f)
            for idx in e.partition.index_arrays:
                lhs = float(f[idx] @ e.space.weights[idx])
                rhs = float(ef[idx] @ e.space.weights[idx])
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_idempotent_matrix(self):
        for seed in range(10):
            e = random_operator(seed).e
            p = e.matrix
            assert np.max(np.abs(p @ p - p)) <= 1e-14

    def test_self_adjoint_for_weighted_pairing(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            e = random_operator(seed).e
            n = e.space.n_atoms
            f = rng.uniform(-3, 3, n)
            g = rng.uniform(-3, 3, n)
            lhs = float(np.sum(cond_exp(e, f) * g * e.space.weights))
            rhs = float(np.sum(f * cond_exp(e, g) * e.space.weights))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_idempotent_on_measurable_function(self, e_one_block):
        np.testing.assert_allclose(cond_exp(e_one_block, [5.0, 5.0]), [5.0, 5.0])

    def test_contraction_on_orlicz_norm(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            e = random_operator(seed).e
            ctx = OrliczContext(e.space, power_scaled(2))
            for _ in range(20):
                f = rng.uniform(-3, 3, e.space.n_atoms)
                assert luxemburg_norm(ctx, cond_exp(e, f)) <= luxemburg_norm(
                    ctx, f
                ) + 1e-9

    def test_space_mismatch(self, r2_space):
        with pytest.raises(ValueError, match="atom count"):
            CondExp(r2_space, Partition.single_block(3))


class TestLaws:
    def test_jensen_hand_example(self, e_one_block):
        # E(1,3) = (2,2); squares: (4,4) <= E(1,9) = (5,5)
        phi = power_plain(2)
        ef = cond_exp(e_one_block, [1.0, 3.0])
        np.testing.assert_allclose(phi(ef), [4.0, 4.0])
        np.testing.assert_allclose(cond_exp(e_one_block, phi([1.0, 3.0])), [5.0, 5.0])

    def test_signed_cancellation_kills_support(self, e_one_block):
        # supports of E(f) and E(phi(f)) differ for signed f, which is why
        # the law suite restricts to nonnegative draws
        ef = cond_exp(e_one_block, [1.0, -1.0])
        assert support(ef, 1e-10) == set()
        assert support(cond_exp(e_one_block, power_plain(2)([1.0, -1.0])), 1e-10) == {
            0,
            1,
        }

    def test_full_suite_passes(self):
        for seed in (0, 1):
            e = random_operator(seed).e
            report = check_condexp_laws(e, power_scaled(2), trials=150, seed=seed)
            for name, law in report.laws.items():
                assert law.passed is True, (name, law.counterexample)

    def test_support_transfer_skipped_for_deadzone(self, e_one_block):
        report = check_condexp_laws(e_one_block, deadzone(), trials=20, seed=0)
        assert report.laws["condexp_support_transfer"].passed is None
        others = [n for n, r in report.laws.items() if r.passed is not None]
        assert all(report.laws[n].passed for n in others)

    def test_trials_validated(self, e_one_block):
        with pytest.raises(ValueError):
            check_condexp_laws(e_one_block, power_scaled(2), trials=0)


class TestGchConstant:
    def test_identity_expectation_gives_one(self):
        # finest partition: E is the identity and the ratio is |fg|/(|f||g|)
        space = FiniteMeasureSpace.from_weights([1.0, 2.0, 0.5])
        e = CondExp(space, Partition.finest(3))
        phi = power_scaled(2)
        c = estimate_gch_constant(e, phi, power_scaled(2), samples=100, seed=0)
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_single_block_against_enumeration_oracle(self, e_one_block):
        # oracle first: exhaustive maximization over integer grids; for the
        # self-conjugate scaled square the ratio is a Cauchy-Schwarz quotient
        phi = power_scaled(2)
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        oracle = 0.0
        for a in grid:
            for b in grid:
                for c in grid:
                    for d in grid:
                        num = (abs(a * c) + abs(b * d)) / 2.0
                        den = np.sqrt((a * a + b * b) / 2.0) * np.sqrt(
                            (c * c + d * d) / 2.0
                        )
                        if den > 1e-12:
                            oracle = max(oracle, num / den)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        est = estimate_gch_constant(e_one_block, phi, phi, samples=200, seed=1)
        assert 0.0 < est <= 2.0
        assert est <= oracle + 1e-6
        assert est >= 0.8 * oracle

    def test_rejects_non_conjugate_pair(self, e_one_block):
        with pytest.raises(ValueError, match="not complementary"):
            estimate_gch_constant(
                e_one_block, power_scaled(2), power_scaled(3), samples=10
            )

    def test_rejects_scaled_conjugate(self, e_one_block):
        # 2 psi dominates psi, so Young's inequality still holds; only the
        # comparison with the numerically maximized conjugate can catch it
        phi = power_plain(1.5)
        psi = complementary(phi)
        doubled = YoungFunction("doubled", (), lambda y: 2.0 * psi(y))
        with pytest.raises(ValueError, match="conjugate audit failed"):
            estimate_gch_constant(e_one_block, phi, doubled, samples=10)

    def test_accepts_exact_conjugate_beyond_the_search_cap(self, e_one_block):
        # for p = 1.1 the maximizer behind psi(100) lies near 1e20, beyond
        # any search cap; the capped numeric value only bounds psi from below
        phi = power_scaled(1.1)
        c = estimate_gch_constant(e_one_block, phi, complementary(phi), samples=10)
        assert c > 0.0

    def test_report_detail(self, e_one_block):
        value, detail = gch_constant_report(
            e_one_block, power_scaled(2), power_scaled(2), samples=50, seed=2
        )
        assert detail["label"] == "empirical lower bound"
        assert len(detail["worst_f"]) == 2
        assert value == pytest.approx(detail["constant"])

    def test_samples_validated(self, e_one_block):
        with pytest.raises(ValueError):
            estimate_gch_constant(
                e_one_block, power_scaled(2), power_scaled(2), samples=0
            )
