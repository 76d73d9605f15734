import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    exact_norm_powers,
    gch_constant_report,
    generalized_inverse,
    iterate,
    luxemburg_norms,
    matrix_of,
    power_bounded_report,
    power_plain,
    power_scaled,
    complementary,
    support,
)
from orlicz_wct.young import capped, deadzone, exp_type

from orlicz_wct import harness, wct
from orlicz_wct.harness import PROFILES, Scenario, generate_random_instance

from conftest import random_operator
from oracles import pairing_adjoint, power_walk


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
        np.testing.assert_allclose(iterate(r1, 2), oracle, atol=1e-15)

    def test_first_power_both_modes(self, r3):
        np.testing.assert_allclose(power_walk(r3, t_ns=(1,))[2][1], matrix_of(r3))
        np.testing.assert_allclose(iterate(r3, 1), matrix_of(r3))

    def test_r3_cube(self, r3):
        # oracle: direct cubing; the square halves the matrix, so the cube
        # scales it by 1/4
        oracle = np.linalg.matrix_power(matrix_of(r3), 3)
        np.testing.assert_allclose(oracle, 0.25 * matrix_of(r3), atol=1e-15)
        np.testing.assert_allclose(iterate(r3, 3), oracle, atol=1e-14)

    def test_modes_agree_on_random_instances(self):
        for seed in range(100):
            t = random_operator(seed)
            for n in range(1, 7):
                direct = np.linalg.matrix_power(matrix_of(t), n)
                closed = iterate(t, n)
                scale = 1.0 + np.max(np.abs(direct))
                assert np.max(np.abs(direct - closed)) <= 1e-9 * scale

    def test_validation(self, r3):
        with pytest.raises(ValueError):
            iterate(r3, 0)
        with pytest.raises(ValueError):
            power_walk(r3, t_ns=(0,))


class TestCesaroMean:
    def test_first_mean_is_identity(self, r4):
        np.testing.assert_allclose(cesaro_mean(r4, 1), np.eye(2))
        np.testing.assert_allclose(power_walk(r4, a_ns=(1,))[0][1], np.eye(2))

    def test_r3_third_mean(self, r3):
        # oracle: (I + T + T^2)/3 with T^2 = T/2, i.e. (I + 1.5 T)/3
        m = matrix_of(r3)
        oracle = (np.eye(2) + m + np.linalg.matrix_power(m, 2)) / 3.0
        np.testing.assert_allclose(oracle, (np.eye(2) + 1.5 * m) / 3.0, atol=1e-15)
        np.testing.assert_allclose(cesaro_mean(r3, 3), oracle, atol=1e-14)

    def test_r1_second_mean(self, r1):
        oracle = (np.eye(2) + matrix_of(r1)) / 2.0
        np.testing.assert_allclose(cesaro_mean(r1, 2), oracle)
        np.testing.assert_allclose(power_walk(r1, a_ns=(2,))[0][2], oracle)


class TestRemainderOperator:
    def test_n2_is_half_identity(self, r3):
        np.testing.assert_allclose(b_n_operator(r3, 2), np.eye(2) / 2)
        np.testing.assert_allclose(power_walk(r3, b_ns=(2,))[1][2], np.eye(2) / 2)

    def test_r3_fourth(self, r3):
        # oracle: (T^2 + 2T + 3I)/4 with T^2 = T/2, i.e. (2.5 T + 3 I)/4
        m = matrix_of(r3)
        oracle = (np.linalg.matrix_power(m, 2) + 2 * m + 3 * np.eye(2)) / 4.0
        np.testing.assert_allclose(oracle, (2.5 * m + 3 * np.eye(2)) / 4.0, atol=1e-15)
        np.testing.assert_allclose(b_n_operator(r3, 4), oracle, atol=1e-14)

    def test_telescoping_identity_exact(self, r1):
        # (I - T) A_n = (I - T^n)/n, here with n = 5
        m = matrix_of(r1)
        lhs = (np.eye(2) - m) @ power_walk(r1, a_ns=(5,))[0][5]
        rhs = (np.eye(2) - np.linalg.matrix_power(m, 5)) / 5.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_remainder_factorization(self):
        for seed in range(25):
            t = random_operator(seed)
            n_dim = t.space.n_atoms
            a_walk, b_walk, _ = power_walk(t, (2, 3, 7), (2, 3, 7))
            for n in (2, 3, 7):
                lhs = np.eye(n_dim) - a_walk[n]
                rhs = (np.eye(n_dim) - matrix_of(t)) @ b_walk[n]
                scale = 1.0 + np.max(np.abs(rhs))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_validation(self, r3):
        with pytest.raises(ValueError):
            b_n_operator(r3, 1)
        with pytest.raises(ValueError):
            power_walk(r3, b_ns=(1,))


# Verbatim copies of the per-n loops that the single walk and the blockwise
# accumulations replace; the routes below must equal them bit for bit. The
# direct loops take the matrix they walk: from wct._CORE_MIN_ATOMS atoms on,
# ``_on_blocks`` runs them on each diagonal block of M, as the walk does.
def _loop_cesaro_direct(m, n):
    dim = m.shape[0]
    eye = np.eye(dim)
    acc = np.zeros((dim, dim))
    power = eye
    for _ in range(n):
        acc += power
        power = power @ m
    return acc / n


def _loop_power_direct(m, n):
    power = np.eye(m.shape[0])
    for _ in range(n):
        power = power @ m
    return power


def _loop_b_n_direct(m, n):
    dim = m.shape[0]
    eye = np.eye(dim)
    acc = (n - 1) * eye
    power = eye
    for k in range(1, n - 1):
        power = power @ m
        acc += (n - 1 - k) * power
    return acc / n


def _on_blocks(loop, t, n):
    """loop(M, n) below wct._CORE_MIN_ATOMS atoms; from there on, loop on
    each diagonal block of M, placed in atom order with zeros elsewhere."""
    m = matrix_of(t)
    if t.space.n_atoms < wct._CORE_MIN_ATOMS:
        return loop(m, n)
    out = np.zeros_like(m)
    for idx in t.e.partition.index_arrays:
        out[np.ix_(idx, idx)] = loop(m[np.ix_(idx, idx)], n)
    return out


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
                    got = cesaro_mean(t, n)
                    assert _same_bits(got, _loop_cesaro_closed(t, n)), (i, n)
                    if n >= 2:
                        got = b_n_operator(t, n)
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
        sizes = set()
        for i in range(0, 200, 7):
            t = _instance(i)
            sizes.add(t.space.n_atoms)
            a_walk, b_walk, t_walk = power_walk(
                t, (1,) + ns + tuple(n + 1 for n in ns), ns, (1,) + ns
            )
            for n in (1,) + ns:
                want = _on_blocks(_loop_cesaro_direct, t, n)
                assert _same_bits(a_walk[n], want), (i, n)
                assert _same_bits(t_walk[n], _on_blocks(_loop_power_direct, t, n))
            for n in ns:
                want = _on_blocks(_loop_cesaro_direct, t, n + 1)
                assert _same_bits(a_walk[n + 1], want), (i, n)
                assert _same_bits(b_walk[n], _on_blocks(_loop_b_n_direct, t, n))
                assert _same_bits(power_walk(t, b_ns=(n,))[1][n], b_walk[n])
                assert _same_bits(power_walk(t, t_ns=(n,))[2][n], t_walk[n])
            assert _same_bits(power_walk(t, a_ns=(13,))[0][13], a_walk[13])
        # both routes: dense below wct._CORE_MIN_ATOMS atoms, blockwise above
        assert min(sizes) < wct._CORE_MIN_ATOMS <= max(sizes)

    def test_closed_form_memory_does_not_grow_with_n(self):
        t = generate_random_instance(3, 64, 8, "contracting_h").operator()

        def peak(n):
            tracemalloc.start()
            try:
                cesaro_mean(t, n)
                b_n_operator(t, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(4 * wct._BLOCK), peak(100_000)
        # one (n, 64) array of powers would take 51.2 MB at n = 100_000
        assert long <= 2_000_000
        assert long <= short + 64 * 1024


# A fixed, derandomized example budget: Tier-1 stays deterministic, and the
# two tests below draw 40 operators each (about 3 s together).
_WALK_EXAMPLES = settings(
    max_examples=40, derandomize=True, deadline=None, database=None
)
_NS = (2, 3, 5, 8, 13, 20)


@st.composite
def _block_operators(draw, huge=st.just(1.0), sizes=st.integers(32, 96)):
    """Scenarios on ``sizes`` atoms (32-96, at or above the size rule), with all
    singletons, one whole-space block, blocks listed out of order with
    unsorted indices, or one block of n - k atoms; u and w with scattered
    zeros, and w rescaled per block, by at most a factor 4, towards a draw
    of h_B in [-h_top, h_top]. A larger factor makes the block's terms
    cancel, and the rounding of both routes then outgrows the claim bounds.
    ``huge`` then scales w on every other block whose symbol is not zero,
    to overflow the powers (a zero symbol keeps T^20 = 0 on its block)."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["singletons", "whole", "shuffled", "skewed"]))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    top = draw(st.sampled_from([0.5, 1.0, 1.5]))
    factor = draw(huge)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n).tolist()
    if kind == "singletons":
        blocks = [[i] for i in perm]
    elif kind == "whole":
        blocks = [perm]
    elif kind == "shuffled":
        count = int(rng.integers(1, max(2, n // 2)))
        cuts = np.sort(rng.choice(np.arange(1, n), count))
        blocks = [c.tolist() for c in np.split(np.array(perm), cuts) if c.size]
    else:
        k = draw(st.integers(1, min(8, n - 1)))
        blocks = [perm[k:]] + [[i] for i in perm[:k]]
    rng.shuffle(blocks)
    mu = rng.uniform(0.5, 2.0, n)
    u = rng.uniform(-2.0, 2.0, n)
    w = rng.uniform(-2.0, 2.0, n)
    u[rng.random(n) < zeros] = 0.0
    w[rng.random(n) < zeros] = 0.0
    for idx in blocks:
        h_b = (mu[idx] * u[idx] * w[idx]).sum() / mu[idx].sum()
        if h_b != 0.0:
            w[idx] *= np.clip(rng.uniform(-top, top) / h_b, -4.0, 4.0)
    for idx in [b for b in blocks if (mu[b] * u[b] * w[b]).sum() != 0.0][::2]:
        w[idx] *= factor
    space = FiniteMeasureSpace.from_weights(mu)
    partition = Partition(tuple(tuple(b) for b in blocks), n)
    return Scenario(space, partition, u, w, power_scaled(2.0))


def _group_rows(s):
    runs = [(s.operator().block_layout, s.tolerances["comparison"])]
    rows = harness._iterate_claims(runs)[0] + harness._cesaro_claims(runs)[0]
    return {r.claim_id: (r.status, r.residual) for r in rows}


def _dense_route_rows(s):
    """The iterate and Cesaro rows of a fresh copy of s, walked densely."""
    with mock.patch.object(wct, "_CORE_MIN_ATOMS", s.space.n_atoms + 1):
        fresh = Scenario(s.space, s.partition, s.u, s.w, s.phi)
        return _group_rows(fresh)


class TestBlockWalkAgainstDenseWalk:
    """The per-block walk (32 atoms and up) against a dense sequential walk
    on the same operators, and the iterate and Cesaro rows of both routes."""

    @_WALK_EXAMPLES
    @given(_block_operators())
    def test_walk_and_residuals(self, s):
        t = s.operator()
        m = matrix_of(t)
        n_atoms = t.space.n_atoms
        ns = _NS + tuple(n + 1 for n in _NS)
        a_walk, b_walk, t_walk = power_walk(t, ns, _NS, (1, 4, 6) + _NS)
        pairs = [(a_walk[n], _loop_cesaro_direct(m, n)) for n in ns]
        pairs += [(b_walk[n], _loop_b_n_direct(m, n)) for n in _NS]
        pairs += [(t_walk[n], _loop_power_direct(m, n)) for n in t_walk]
        # the block products are often bit-equal to the dense ones (they add
        # the same nonzero terms in the same order), but BLAS does not
        # promise it; the stated tolerance is the classical rounding bound of
        # 21 products of order n, n * 21 * eps * max_k max |M|^k (the worst
        # gap seen over 600 draws was 0.2% of it)
        power, scale = np.eye(n_atoms), 0.0
        for _ in range(21):
            power = power @ np.abs(m)
            scale = max(scale, float(power.max()))
        bound = n_atoms * 21 * np.finfo(float).eps * (1.0 + scale)
        off = t.e._labels[:, None] != t.e._labels
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= bound
            assert not np.any(got[off])
        # every iterate and Cesaro residual, against the dense route's: the
        # worst gap seen over 600 draws was 1.4e-15
        block, dense = _group_rows(s), _dense_route_rows(s)
        assert block.keys() == dense.keys()
        for cid, (status, residual) in block.items():
            assert status == dense[cid][0] == "pass", cid
            assert residual == pytest.approx(dense[cid][1], rel=0, abs=1e-13)

    @_WALK_EXAMPLES
    @given(_block_operators(huge=st.sampled_from([1e30, 1e80, 1e200])))
    def test_overflowing_walk_keeps_the_dense_statuses(self, s):
        # T^20 overflows to inf (or inf - inf = NaN) within the scaled
        # blocks, and the dense products turn inf * 0 into NaN off them; the
        # block walk keeps exact zeros there. Both routes read inf or NaN in
        # the same rows, which are then not checked, so every status agrees
        # and every passing residual is finite; a finite residual of a
        # failing row is rounding of overflowing terms, which need not agree
        t = s.operator()
        with np.errstate(over="ignore", invalid="ignore"):
            block_t20 = power_walk(t, t_ns=(20,))[2][20]
            # the layout is cached per operator, so the dense walk needs a
            # fresh operator built under the size rule
            with mock.patch.object(wct, "_CORE_MIN_ATOMS", t.space.n_atoms + 1):
                fresh = WctOperator(t.u, t.w, t.e)
                dense_t20 = power_walk(fresh, t_ns=(20,))[2][20]
            block, dense = _group_rows(s), _dense_route_rows(s)
        off = t.e._labels[:, None] != t.e._labels
        assert not np.isfinite(block_t20).all() and not np.any(block_t20[off])
        if off.any():
            assert np.isnan(dense_t20[off]).any()
        for cid, (status, residual) in block.items():
            assert status == dense[cid][0], cid
            if status == "pass":
                assert np.isfinite(residual), cid
                assert residual == pytest.approx(dense[cid][1], rel=0, abs=1e-13)


# atom counts on both sides of the size rule, and at its edge
_LAYOUT_SIZES = st.sampled_from((2, 3, 8, 17, 31, 32, 33, 47, 64, 96))


class TestBlockLayoutAgainstDense:
    """``BlockLayout.apply`` and ``solve`` against ``@`` and np.linalg.solve
    on the unpacked arrays, on 2-96 atoms, so on both sides of the size rule,
    with (n,) and (n, m) right-hand sides."""

    @_WALK_EXAMPLES
    @given(_block_operators(sizes=_LAYOUT_SIZES), st.integers(0, 3))
    def test_apply_and_solve(self, s, width):
        t = s.operator()
        layout, n = t.block_layout, t.space.n_atoms
        # M entry by entry has the bits of the dense product on the blocks
        on = t.e._labels[:, None] == t.e._labels
        m = layout.unpack(layout.m)
        assert _same_bits(m[on], matrix_of(t)[on]) and not m[~on].any()
        assert np.array_equal(layout.unpack(layout.eye), np.eye(n))
        rng = np.random.default_rng(n)
        f = rng.uniform(-1.0, 1.0, (n, width) if width else n)
        # blocks strictly diagonally dominant by at least 1, so every solve
        # has a condition number below 2n + 1
        x = rng.uniform(-1.0, 1.0, layout.eye.size) + (n + 1) * layout.eye
        for packed in (x, layout.eye - layout.m):
            got, want = layout.apply(packed, f), layout.unpack(packed) @ f
            assert got.shape == f.shape
            if n < wct._CORE_MIN_ATOMS:
                assert _same_bits(got, want)
            else:
                # the same nonzero terms, summed in another order
                scale = np.abs(layout.unpack(packed)) @ np.abs(f)
                assert np.all(np.abs(got - want) <= n * np.finfo(float).eps * scale)
        got, want = layout.solve(x, f), np.linalg.solve(layout.unpack(x), f)
        assert got.shape == f.shape
        if n < wct._CORE_MIN_ATOMS:
            assert _same_bits(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(layout.apply(x, got) - f)) <= 1e-12 * n

    @_WALK_EXAMPLES
    @given(_block_operators(sizes=_LAYOUT_SIZES), st.data())
    def test_a_singular_block_fails_both_solves(self, s, data):
        # I - T with one row zeroed is exactly singular on that atom's
        # block, and elimination keeps the row zero: both routes raise, so
        # the ergodic rows' solve route reads "not invertible" on both
        t = s.operator()
        layout, n = t.block_layout, t.space.n_atoms
        x = layout.eye - layout.m
        x[layout.rows(np.arange(n)) == data.draw(st.integers(0, n - 1))] = 0.0
        f = np.ones(n)
        with pytest.raises(np.linalg.LinAlgError):
            layout.solve(x, f)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(layout.unpack(x), f)

    def test_block_power_sums_equal_the_atom_sums_bit_for_bit(self):
        # _power_sum acts elementwise, so one value per block spread by the
        # labels is the per-atom sum, for symbols that are 0, +-1,
        # subnormal, or overflow within the horizon
        h = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 1e300,
                      -1e300, 1.5, -2.0, 0.3, -0.7, 0.999, 1 - 2**-52])
        labels = np.random.default_rng(0).permutation(np.arange(60) % h.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in (0, 1, 2, 7, wct._BLOCK, wct._BLOCK + 1, 1500):
                for weighted in (False, True):
                    per_block = wct._power_sum(h, n, weighted)[labels]
                    per_atom = wct._power_sum(h[labels], n, weighted)
                    assert _same_bits(per_block, per_atom), (n, weighted)
        # the closed forms, packed on the layout, are the dense ones on the
        # blocks, bit for bit, on both sides of the size rule (expanding
        # symbols overflow by n = 600)
        for i in range(0, 200, 9):
            t = _instance(i)
            layout = t.block_layout
            on = t.e._labels[:, None] == t.e._labels
            with np.errstate(over="ignore", invalid="ignore"):
                for n in (2, 7, 600):
                    a_n = layout.unpack(cesaro_mean(layout, n))
                    assert _same_bits(a_n[on], cesaro_mean(t, n)[on])
                    b_n = layout.unpack(b_n_operator(layout, n))
                    assert _same_bits(b_n[on], b_n_operator(t, n)[on])


class TestBlockSpectrum:
    def test_matches_the_svd_of_every_power(self):
        # 100 instances of 2-64 atoms over the five profiles, powers 1-7:
        # sigma_B |h_B|^(k-1) from the block record and n - (number of
        # blocks) zeros; the gaps are rounding of the powers and of the SVD
        # (worst seen 5.6e-15 of ||M||^k)
        for i in range(0, 200, 2):
            t = _instance(i)
            n = t.space.n_atoms
            rec = t.block_record
            sigma, h = rec.sigma, rec.h
            assert sigma.shape == h.shape == (t.e.partition.n_blocks,)
            m = matrix_of(t)
            base = np.linalg.svd(m, compute_uv=False)[0]
            power = np.eye(n)
            for k in range(1, 8):
                power = power @ m
                want = np.linalg.svd(power, compute_uv=False)
                got = np.concatenate([sigma * np.abs(h) ** (k - 1), np.zeros(n)])
                got = np.sort(got)[::-1][:n]
                assert np.max(np.abs(got - want)) <= 1e-13 * base**k, (i, k)

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_scales_with_w_beyond_the_range_of_squares(self, scale):
        # |w| * 1e-200 squares to 0 and |w| * 1e160 to inf; sigma_B is
        # linear in w
        for i in range(0, 40, 2):
            t = _instance(i)
            scaled = WctOperator(t.u, t.w * scale, t.e)
            got = scaled.block_record.sigma
            np.testing.assert_allclose(got, t.block_record.sigma * scale, rtol=1e-14)

    def test_record_matches_the_partition_and_the_symbol(self):
        # labels and sizes are the partition's; h_B spread over the atoms by
        # the labels is the operator's symbol bit for bit
        for i in range(0, 200, 2):
            t = _instance(i)
            rec = t.block_record
            for b, idx in enumerate(t.e.partition.index_arrays):
                assert np.all(rec.labels[idx] == b), i
                assert rec.sizes[b] == idx.size, i
            assert np.array_equal(rec.h[rec.labels], t.h), i
            assert rec.e1.shape == rec.e2.shape == (t.space.n_atoms,)

    def test_record_is_built_once_and_read_only(self):
        t = _instance(0)
        with mock.patch.object(wct, "_block_frame", wraps=wct._block_frame) as spy:
            rec = t.block_record
            assert t.block_record is rec
        assert spy.call_count == 1
        for name in ("labels", "sizes", "h", "sigma", "rho", "e1", "e2"):
            with pytest.raises(ValueError):
                getattr(rec, name)[0] = 0
        with pytest.raises(AttributeError):
            rec.h = np.zeros(1)


class TestBoundConstant:
    def test_zero_u_gives_zero(self, e_one_block):
        t = WctOperator([0.0, 0.0], [1.0, 1.0], e_one_block)
        phi = power_scaled(2)
        assert bound_constant(t, phi, 1.0) == 0.0
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
        got = bound_constant(t, phi, 1.0)
        assert got == pytest.approx(float(np.max(np.abs(w * u))), rel=1e-8)

    def test_r3_value(self, r3):
        # oracle chain: psi(1) = 1/2, E gives 1/2, psi_inv(1/2) = 1, times w
        phi = power_scaled(2)
        psi = complementary(phi)
        assert psi(1.0) == pytest.approx(0.5)
        ef = cond_exp(r3.e, psi(np.abs(r3.u)))
        np.testing.assert_allclose(ef, [0.5, 0.5])
        assert generalized_inverse(psi, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert bound_constant(r3, phi, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_c_gch_validated(self, r3):
        phi = power_scaled(2)
        with pytest.raises(ValueError):
            bound_constant(r3, phi, 0.0)


class TestPowerBoundedReport:
    def test_contracting_symbol(self, r3):
        phi = power_scaled(2)
        rep = power_bounded_report(r3, phi, n_max=10)
        assert rep.criterion_holds
        assert rep.h_sup == pytest.approx(0.5)
        # norms decay geometrically, so the sup is the first estimate
        assert rep.sup_norm_estimate == pytest.approx(rep.norm_estimates[0])
        assert rep.criterion_support == [0, 1]
        assert rep.horizon_bounded and rep.horizon_equivalence_ok

    def test_expanding_symbol(self, r4):
        phi = power_scaled(2)
        rep = power_bounded_report(r4, phi, n_max=10)
        assert not rep.criterion_holds
        assert rep.h_sup == pytest.approx(2.0)
        # closed-form iterates double per step
        assert rep.norm_estimates[-1] >= 100 * rep.norm_estimates[0]
        assert not rep.horizon_bounded and rep.horizon_equivalence_ok

    def test_nilpotent_symbol(self, r1):
        phi = power_scaled(2)
        rep = power_bounded_report(r1, phi, n_max=6)
        assert rep.criterion_holds
        assert rep.norm_estimates[0] > 0
        assert all(v <= 1e-12 for v in rep.norm_estimates[1:])

    def test_validation(self, r3):
        phi = power_scaled(2)
        with pytest.raises(ValueError):
            power_bounded_report(r3, phi, n_max=1)



@st.composite
def _draws_with_zeros_in_u(draw):
    """A random instance of each profile, 2-24 atoms, with zeros scattered
    into u (up to half the atoms), w enlarged up to 4-fold so that more
    blocks reach |h_B| >= 1, and its own power law or a non-power gauge."""
    profile = draw(st.sampled_from(PROFILES))
    n_atoms = draw(st.integers(2, 24))
    n_blocks = draw(st.integers(1, n_atoms))
    seed = draw(st.integers(0, 2**20))
    s = generate_random_instance(seed, n_atoms, n_blocks, profile)
    rng = np.random.default_rng(seed)
    u = np.where(rng.random(n_atoms) < draw(st.sampled_from([0.2, 0.5])), 0.0, s.u)
    w = s.w * draw(st.sampled_from([1.0, 4.0]))
    gauge = draw(st.sampled_from([None, exp_type, deadzone, capped]))
    phi = s.phi if gauge is None else gauge()
    return WctOperator(u, w, s.operator().e), phi


class TestGrowthWitnessFacts:
    """The growth witness of power_bounded_criterion takes |h_i|^(n-1) at
    every violating atom of the criterion support, with no check that
    T e_i != 0. That gives the same largest witness because of two facts."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_draws_with_zeros_in_u())
    def test_support_is_whole_blocks_and_violating_blocks_carry_t(self, draw):
        t, phi = draw
        crit, _ = wct.contraction_criterion(t, phi)
        inside = np.zeros(t.space.n_atoms, dtype=bool)
        inside[crit] = True
        carried = np.any(matrix_of(t) != 0.0, axis=0)
        for idx in t.e.partition.index_arrays:
            # both inverted gauges are block-constant, so the support holds
            # every atom of a block or none
            assert inside[idx].all() or not inside[idx].any()
            # |h_B| >= 1 needs u_j w_j != 0 at some atom j, whose column of T
            # is then nonzero
            if inside[idx[0]] and abs(t.h[idx[0]]) >= 1.0:
                assert carried[idx].any()


def _exact_norm_cases(count=100):
    """Seeded operators of 2-64 atoms; every third one has zeros sprinkled
    into u and w, so some block pieces vanish."""
    for seed in range(count):
        t = random_operator(500 + seed, n_atoms=2 + (seed * 31) % 63)
        if seed % 3 == 0:
            rng = np.random.default_rng(seed)
            n = t.space.n_atoms
            u = np.where(rng.random(n) < 0.3, 0.0, t.u)
            w = np.where(rng.random(n) < 0.3, 0.0, t.w)
            t = WctOperator(u, w, t.e)
        yield seed, t


def _within_slack(value, bound):
    return value <= bound + harness._EXACT_SLACK * abs(bound)


_POWER_GAUGES = [
    factory(p) for factory in (power_scaled, power_plain) for p in (1.5, 2.0, 3.0)
]


class TestExactNormPowers:
    """exact_norm_powers against independent routes: the weighted spectral
    norm (p = 2), sampled ratios, a Hoelder extremal and the bound M."""

    def test_p2_equals_the_weighted_spectral_norm(self):
        for seed, t in _exact_norm_cases():
            root = np.sqrt(t.space.weights)
            for phi in (power_scaled(2), power_plain(2)):
                got = exact_norm_powers(t, phi, 4)
                for n, value in enumerate(got, start=1):
                    weighted = root[:, None] * iterate(t, n) / root[None, :]
                    ref = np.linalg.norm(weighted, 2)
                    assert abs(value - ref) <= 1e-12 * max(value, ref), (seed, n)

    def test_sampled_ratios_never_exceed_it(self):
        for seed, t in _exact_norm_cases():
            for phi in _POWER_GAUGES:
                got = exact_norm_powers(t, phi, 3)
                sampled = wct._sampled_norm_powers(t, phi, 3, samples=16, seed=seed)
                for value, ratio in zip(got, sampled):
                    assert _within_slack(ratio, value), (seed, phi, ratio, value)

    def test_hoelder_extremal_on_the_best_block_attains_it(self):
        checked = 0
        for seed, t in _exact_norm_cases():
            for phi in _POWER_GAUGES:
                norm = exact_norm_powers(t, phi, 1)[0]
                if norm == 0.0:
                    continue
                p = phi._power[1]
                q = p / (p - 1.0)
                ctx = OrliczContext(t.space, phi)
                # the block of the largest piece: its norm is the L^p norm of
                # w there times the L^q norm of u over the block mass
                pieces = []
                for idx in t.e.partition.index_arrays:
                    mu = t.space.weights[idx]
                    pieces.append(
                        (mu @ np.abs(t.w[idx]) ** p) ** (1 / p)
                        * (mu @ np.abs(t.u[idx]) ** q) ** (1 / q)
                        / mu.sum()
                    )
                best = t.e.partition.index_arrays[int(np.argmax(pieces))]
                # equality in Hoelder's inequality for sum u f mu on the block
                f = np.zeros(t.space.n_atoms)
                f[best] = np.sign(t.u[best]) * np.abs(t.u[best]) ** (q - 1.0)
                cols = np.stack([f, apply(t, f)], axis=1)
                base, image = luxemburg_norms(ctx, cols)
                assert abs(image / base - norm) <= 1e-12 * norm, (seed, phi)
                checked += 1
        assert checked >= 500

    def test_norm_is_at_most_the_weight_bound(self):
        for seed, t in _exact_norm_cases():
            for phi in _POWER_GAUGES:
                norm = exact_norm_powers(t, phi, 1)[0]
                bound = bound_constant(t, phi, 1.0)
                assert _within_slack(norm, bound), (seed, phi, norm, bound)

    def test_scenarios_reach_the_weight_bound(self, r1, r3, r4):
        phi = power_scaled(2)
        for t, norm in ((r1, 1.0), (r3, 0.5), (r4, 2.0)):
            got = exact_norm_powers(t, phi, 3)
            assert got[0] == pytest.approx(norm, rel=1e-15)
            assert bound_constant(t, phi, 1.0) == pytest.approx(
                norm, rel=1e-12
            )
        assert exact_norm_powers(r4, phi, 3)[2] == pytest.approx(8.0, rel=1e-15)

    def test_zero_operator(self, e_one_block):
        t = WctOperator([0.0, 0.0], [1.0, 2.0], e_one_block)
        assert exact_norm_powers(t, power_plain(3), 4) == [0.0] * 4

    @pytest.mark.parametrize(
        "phi",
        [exp_type(), deadzone(), capped(), power_scaled(1), power_plain(1)],
        ids=["exp_type", "deadzone", "capped", "power_scaled_1", "power_plain_1"],
    )
    def test_other_gauges_get_none(self, r3, phi):
        assert exact_norm_powers(r3, phi, 5) is None
        rep = power_bounded_report(r3, phi, n_max=3)
        assert not rep.exact

    def test_report_takes_the_exact_route_for_power_laws(self, r4):
        phi = power_plain(1.5)
        rep = power_bounded_report(r4, phi, n_max=5)
        assert rep.exact
        assert rep.norm_estimates == exact_norm_powers(r4, phi, 5)


class TestStructuralInvariants:
    def test_norm_bound_self_consistency(self):
        # N(Tf) <= (C_emp * M + 1e-6) N(f) with the empirical pairing constant
        rng = np.random.default_rng(9)
        for seed in range(5):
            t = random_operator(seed)
            phi = power_scaled(2)
            c_emp = gch_constant_report(t.e, phi, samples=150, seed=seed)[0]
            bound = bound_constant(t, phi, c_emp)
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
