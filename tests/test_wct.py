import tracemalloc

import numpy as np
import pytest

from orlicz_wct import (
    CondExp,
    FiniteMeasureSpace,
    OrliczContext,
    Partition,
    WctOperator,
    apply,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    cond_exp,
    estimate_gch_constant,
    generalized_inverse,
    iterate,
    luxemburg_norms,
    matrix_of,
    pairing_adjoint,
    power_bounded_report,
    power_scaled,
    complementary,
    support,
)

from orlicz_wct import wct
from orlicz_wct.harness import PROFILES, generate_random_instance

from conftest import random_operator


class TestApply:
    def test_hand_evaluation(self, r1):
        # E(u * (1,0)) = 1/2 on the block, then times w = (1,-1)
        np.testing.assert_allclose(apply(r1, [1.0, 0.0]), [0.5, -0.5])

    def test_zero(self, r1):
        np.testing.assert_allclose(apply(r1, [0.0, 0.0]), [0.0, 0.0])

    def test_constant_input(self, r3):
        # E(u * (1,1)) = 1, times w = (1/2, 1/2)
        np.testing.assert_allclose(apply(r3, [1.0, 1.0]), [0.5, 0.5])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for seed in range(25):
            t = random_operator(seed)
            n = t.space.n_atoms
            f, g = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
            a, b = rng.uniform(-2, 2, 2)
            lhs = apply(t, a * f + b * g)
            rhs = a * apply(t, f) + b * apply(t, g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_symbol_cached_and_measurable(self, r3):
        np.testing.assert_allclose(r3.h, [0.5, 0.5])

    def test_symbol_is_blockwise_constant(self):
        for seed in range(20):
            t = random_operator(seed)
            for idx in t.e.partition.index_arrays:
                assert np.ptp(t.h[idx]) <= 2e-12, (seed, idx)


class TestMatrix:
    def test_r1_matrix(self, r1):
        # oracle: images of the two indicators
        np.testing.assert_allclose(matrix_of(r1), [[0.5, 0.5], [-0.5, -0.5]])

    def test_r3_matrix(self, r3):
        np.testing.assert_allclose(matrix_of(r3), [[0.25, 0.25], [0.25, 0.25]])

    def test_zero_weight(self, e_one_block):
        t = WctOperator([1.0, 1.0], [0.0, 0.0], e_one_block)
        np.testing.assert_allclose(matrix_of(t), np.zeros((2, 2)))

    def test_matrix_is_cached_and_read_only(self):
        for seed in range(10):
            t = random_operator(seed)
            m = matrix_of(t)
            assert matrix_of(t) is m
            assert not m.flags.writeable
            expected = (t.w[:, None] * t.e.matrix) * t.u[None, :]
            assert m.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            t = random_operator(seed)
            m = matrix_of(t)
            f = rng.uniform(-3, 3, t.space.n_atoms)
            assert np.max(np.abs(m @ f - apply(t, f))) <= 1e-13 * (
                1 + np.max(np.abs(m @ f))
            )


class TestIterate:
    def test_nilpotent_square(self, r1):
        # oracle: direct squaring of [[1/2,1/2],[-1/2,-1/2]] is the zero matrix
        oracle = np.linalg.matrix_power(matrix_of(r1), 2)
        np.testing.assert_allclose(oracle, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(
            iterate(r1, 2, "closed_form"), oracle, atol=1e-15
        )

    def test_first_power_both_modes(self, r3):
        np.testing.assert_allclose(iterate(r3, 1, "direct"), matrix_of(r3))
        np.testing.assert_allclose(iterate(r3, 1, "closed_form"), matrix_of(r3))

    def test_r3_cube(self, r3):
        # oracle: direct cubing; the square halves the matrix, so the cube
        # scales it by 1/4
        oracle = np.linalg.matrix_power(matrix_of(r3), 3)
        np.testing.assert_allclose(oracle, 0.25 * matrix_of(r3), atol=1e-15)
        np.testing.assert_allclose(iterate(r3, 3, "closed_form"), oracle, atol=1e-14)

    def test_modes_agree_on_random_instances(self):
        for seed in range(100):
            t = random_operator(seed)
            for n in range(1, 7):
                direct = iterate(t, n, "direct")
                closed = iterate(t, n, "closed_form")
                scale = 1.0 + np.max(np.abs(direct))
                assert np.max(np.abs(direct - closed)) <= 1e-9 * scale

    def test_validation(self, r3):
        with pytest.raises(ValueError):
            iterate(r3, 0)
        with pytest.raises(ValueError, match="mode"):
            iterate(r3, 1, "fast")


class TestCesaroMean:
    def test_first_mean_is_identity(self, r4):
        np.testing.assert_allclose(cesaro_mean(r4, 1, "closed_form"), np.eye(2))
        np.testing.assert_allclose(cesaro_mean(r4, 1, "direct"), np.eye(2))

    def test_r3_third_mean(self, r3):
        # oracle: (I + T + T^2)/3 with T^2 = T/2, i.e. (I + 1.5 T)/3
        m = matrix_of(r3)
        oracle = (np.eye(2) + m + np.linalg.matrix_power(m, 2)) / 3.0
        np.testing.assert_allclose(oracle, (np.eye(2) + 1.5 * m) / 3.0, atol=1e-15)
        np.testing.assert_allclose(cesaro_mean(r3, 3, "closed_form"), oracle, atol=1e-14)

    def test_r1_second_mean(self, r1):
        oracle = (np.eye(2) + matrix_of(r1)) / 2.0
        np.testing.assert_allclose(cesaro_mean(r1, 2, "closed_form"), oracle)
        np.testing.assert_allclose(cesaro_mean(r1, 2, "direct"), oracle)


class TestRemainderOperator:
    def test_n2_is_half_identity(self, r3):
        np.testing.assert_allclose(b_n_operator(r3, 2, "closed_form"), np.eye(2) / 2)
        np.testing.assert_allclose(b_n_operator(r3, 2, "direct"), np.eye(2) / 2)

    def test_r3_fourth(self, r3):
        # oracle: (T^2 + 2T + 3I)/4 with T^2 = T/2, i.e. (2.5 T + 3 I)/4
        m = matrix_of(r3)
        oracle = (np.linalg.matrix_power(m, 2) + 2 * m + 3 * np.eye(2)) / 4.0
        np.testing.assert_allclose(oracle, (2.5 * m + 3 * np.eye(2)) / 4.0, atol=1e-15)
        np.testing.assert_allclose(b_n_operator(r3, 4, "closed_form"), oracle, atol=1e-14)

    def test_telescoping_identity_exact(self, r1):
        # (I - T) A_n = (I - T^n)/n, here with n = 5
        m = matrix_of(r1)
        lhs = (np.eye(2) - m) @ cesaro_mean(r1, 5, "direct")
        rhs = (np.eye(2) - np.linalg.matrix_power(m, 5)) / 5.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_remainder_factorization(self):
        for seed in range(25):
            t = random_operator(seed)
            n_dim = t.space.n_atoms
            for n in (2, 3, 7):
                lhs = np.eye(n_dim) - cesaro_mean(t, n, "direct")
                rhs = (np.eye(n_dim) - matrix_of(t)) @ b_n_operator(t, n, "direct")
                scale = 1.0 + np.max(np.abs(rhs))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_validation(self, r3):
        with pytest.raises(ValueError):
            b_n_operator(r3, 1)


# Verbatim copies of the per-n loops that the single walk and the blockwise
# accumulations replace; the routes below must equal them bit for bit.
def _loop_cesaro_direct(t, n):
    dim = t.space.n_atoms
    eye = np.eye(dim)
    acc = np.zeros((dim, dim))
    power = eye
    m = matrix_of(t)
    for _ in range(n):
        acc += power
        power = power @ m
    return acc / n


def _loop_b_n_direct(t, n):
    dim = t.space.n_atoms
    eye = np.eye(dim)
    m = matrix_of(t)
    acc = (n - 1) * eye
    power = eye
    for k in range(1, n - 1):
        power = power @ m
        acc += (n - 1 - k) * power
    return acc / n


def _loop_v_n(h, n):
    v_n = np.zeros(h.size)
    hpow = np.ones(h.size)
    for _ in range(n - 1):
        v_n += hpow
        hpow *= h
    return v_n


def _loop_w_n(h, n):
    w_n = np.zeros(h.size)
    hpow = np.ones(h.size)
    for i in range(1, n - 1):
        w_n += (n - i - 1) * hpow
        hpow *= h
    return w_n


def _loop_cesaro_closed(t, n):
    eye = np.eye(t.space.n_atoms)
    if n == 1:
        return eye
    return (eye + _loop_v_n(t.h, n)[:, None] * matrix_of(t)) / n


def _loop_b_n_closed(t, n):
    eye = np.eye(t.space.n_atoms)
    return (_loop_w_n(t.h, n)[:, None] * matrix_of(t) + (n - 1) * eye) / n


def _same_bits(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


def _instance(i):
    n_atoms = 2 + (5 * i) % 63
    n_blocks = 1 + (3 * i) % n_atoms
    profile = PROFILES[i % len(PROFILES)]
    return generate_random_instance(1000 + i, n_atoms, n_blocks, profile).operator()


class TestSinglePassRoutes:
    def test_closed_forms_equal_the_loops_bit_for_bit(self):
        # 200 instances, 40 per profile, 2 to 64 atoms; the expanding
        # profile overflows to inf (and inf - inf) at the long horizons
        sizes = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(200):
                t = _instance(i)
                sizes.add(t.space.n_atoms)
                for n in (1, 2, 3, 5, 20, 200, 2001):
                    got = cesaro_mean(t, n, "closed_form")
                    assert _same_bits(got, _loop_cesaro_closed(t, n)), (i, n)
                    if n >= 2:
                        got = b_n_operator(t, n, "closed_form")
                        assert _same_bits(got, _loop_b_n_closed(t, n)), (i, n)
        assert min(sizes) == 2 and max(sizes) == 64

    def test_power_sum_at_fixed_points_and_block_edges(self):
        # 0, inf and subnormal powers that h maps to themselves, sign-flipping
        # zeros and infinities, and horizons on either side of a block edge
        h = np.array([0.0, -0.0, 0.3, -0.3, 0.6, -0.6, 0.999, -1.0, 1.0,
                      1.5, -1.5, 2.0, 5e-324, -5e-324, 0.5, -0.5])
        block = wct._BLOCK
        with np.errstate(over="ignore", invalid="ignore"):
            for n in (2, block, block + 1, block + 2, 2 * block + 1, 3000):
                assert _same_bits(wct._power_sum(h, n - 1, False), _loop_v_n(h, n))
                assert _same_bits(wct._power_sum(h, n - 2, True), _loop_w_n(h, n))

    def test_walk_equals_the_per_n_loops_bit_for_bit(self):
        ns = (2, 3, 5, 8, 13, 20)
        for i in range(0, 200, 7):
            t = _instance(i)
            a_walk, b_walk = wct._direct_sums(
                t, (1,) + ns + tuple(n + 1 for n in ns), ns
            )
            for n in (1,) + ns:
                assert _same_bits(a_walk[n], _loop_cesaro_direct(t, n)), (i, n)
            for n in ns:
                assert _same_bits(a_walk[n + 1], _loop_cesaro_direct(t, n + 1))
                assert _same_bits(b_walk[n], _loop_b_n_direct(t, n)), (i, n)
                assert _same_bits(b_n_operator(t, n, "direct"), b_walk[n])
            assert _same_bits(cesaro_mean(t, 13, "direct"), a_walk[13])

    def test_closed_form_memory_does_not_grow_with_n(self):
        t = generate_random_instance(3, 64, 8, "contracting_h").operator()

        def peak(n):
            tracemalloc.start()
            try:
                cesaro_mean(t, n, "closed_form")
                b_n_operator(t, n, "closed_form")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(4 * wct._BLOCK), peak(100_000)
        # one (n, 64) array of powers would take 51.2 MB at n = 100_000
        assert long <= 2_000_000
        assert long <= short + 64 * 1024


class TestBoundConstant:
    def test_zero_u_gives_zero(self, e_one_block):
        t = WctOperator([0.0, 0.0], [1.0, 1.0], e_one_block)
        phi = power_scaled(2)
        assert bound_constant(t, phi, complementary(phi), 1.0) == 0.0
        np.testing.assert_allclose(matrix_of(t), np.zeros((2, 2)))

    def test_finest_partition_reduces_to_pointwise_product(self):
        # oracle: psi_inv(psi(|u|)) = |u| for the strictly increasing pair
        rng = np.random.default_rng(3)
        space = FiniteMeasureSpace.from_weights(rng.uniform(0.5, 2, 4))
        e = CondExp(space, Partition.finest(4))
        u = rng.uniform(-2, 2, 4)
        w = rng.uniform(-2, 2, 4)
        t = WctOperator(u, w, e)
        phi = power_scaled(2)
        got = bound_constant(t, phi, complementary(phi), 1.0)
        assert got == pytest.approx(float(np.max(np.abs(w * u))), rel=1e-8)

    def test_r3_value(self, r3):
        # oracle chain: psi(1) = 1/2, E gives 1/2, psi_inv(1/2) = 1, times w
        phi = power_scaled(2)
        psi = complementary(phi)
        assert psi(1.0) == pytest.approx(0.5)
        ef = cond_exp(r3.e, psi(np.abs(r3.u)))
        np.testing.assert_allclose(ef, [0.5, 0.5])
        assert generalized_inverse(psi, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert bound_constant(r3, phi, psi, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_c_gch_validated(self, r3):
        phi = power_scaled(2)
        with pytest.raises(ValueError):
            bound_constant(r3, phi, complementary(phi), 0.0)


class TestPowerBoundedReport:
    def test_contracting_symbol(self, r3):
        phi = power_scaled(2)
        rep = power_bounded_report(r3, phi, complementary(phi), n_max=10)
        assert rep.criterion_holds
        assert rep.h_sup == pytest.approx(0.5)
        # norms decay geometrically, so the sup is the first estimate
        assert rep.sup_norm_estimate == pytest.approx(rep.norm_estimates[0])
        assert rep.criterion_support == [0, 1]
        assert rep.horizon_bounded and rep.horizon_equivalence_ok

    def test_expanding_symbol(self, r4):
        phi = power_scaled(2)
        rep = power_bounded_report(r4, phi, complementary(phi), n_max=10)
        assert not rep.criterion_holds
        assert rep.h_sup == pytest.approx(2.0)
        # closed-form iterates double per step
        assert rep.norm_estimates[-1] >= 100 * rep.norm_estimates[0]
        assert not rep.horizon_bounded and rep.horizon_equivalence_ok

    def test_nilpotent_symbol(self, r1):
        phi = power_scaled(2)
        rep = power_bounded_report(r1, phi, complementary(phi), n_max=6)
        assert rep.criterion_holds
        assert rep.norm_estimates[0] > 0
        assert all(v <= 1e-12 for v in rep.norm_estimates[1:])

    def test_validation(self, r3):
        phi = power_scaled(2)
        with pytest.raises(ValueError):
            power_bounded_report(r3, phi, complementary(phi), n_max=1)


class TestStructuralInvariants:
    def test_norm_bound_self_consistency(self):
        # N(Tf) <= (C_emp * M + 1e-6) N(f) with the empirical pairing constant
        rng = np.random.default_rng(9)
        for seed in range(5):
            t = random_operator(seed)
            phi = power_scaled(2)
            psi = complementary(phi)
            c_emp = estimate_gch_constant(t.e, phi, psi, samples=150, seed=seed)
            bound = bound_constant(t, phi, psi, c_emp)
            ctx = OrliczContext(t.space, phi)
            fs = rng.uniform(-3, 3, (t.space.n_atoms, 100))
            base = luxemburg_norms(ctx, fs)
            keep = base > 0
            ratios = luxemburg_norms(ctx, matrix_of(t) @ fs[:, keep]) / base[keep]
            assert np.max(ratios) <= bound + 1e-6

    def test_range_support_containment(self):
        rng = np.random.default_rng(10)
        phi = power_scaled(2)
        psi = complementary(phi)
        for seed in range(20):
            t = random_operator(seed)
            h_set = support(
                t.w * generalized_inverse(psi, cond_exp(t.e, psi(np.abs(t.u)))),
                1e-10,
            )
            for _ in range(10):
                f = rng.uniform(-3, 3, t.space.n_atoms)
                assert support(apply(t, f), 1e-10) <= h_set
            # the rank can never exceed the carrier of the weights
            rank = np.linalg.matrix_rank(matrix_of(t), tol=1e-10)
            assert rank <= len(h_set)

    def test_adjoint_swaps_u_and_w(self):
        for seed in range(20):
            t = random_operator(seed)
            swapped = WctOperator(t.w, t.u, t.e)
            adj = pairing_adjoint(matrix_of(t), t.space.weights)
            scale = 1.0 + np.max(np.abs(adj))
            assert np.max(np.abs(adj - matrix_of(swapped))) <= 1e-12 * scale
