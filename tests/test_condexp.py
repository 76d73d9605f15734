from pathlib import Path

import numpy as np
import pytest

from orlicz_wct import (
    CondExp,
    FiniteMeasureSpace,
    OrliczContext,
    Partition,
    YoungFunction,
    check_condexp_laws,
    cond_exp,
    deadzone,
    gch_constant_report,
    luxemburg_norm,
    power_plain,
    power_scaled,
    support,
)
from orlicz_wct import condexp
from orlicz_wct.harness import load_scenario
from orlicz_wct.young import capped

from conftest import random_operator
from oracles import law_columns_loop, law_draw, laws_by_trial

EPS = np.finfo(float).eps
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def loop_cond_exp(e, f):
    """Oracle: one weighted dot product per block, as the expectation was
    first written."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    w = e.space.weights
    for idx in e.partition.index_arrays:
        out[idx] = (w[idx] @ f[idx]) / float(w[idx].sum())
    return out


def loop_matrix(e):
    n = e.space.n_atoms
    out = np.zeros((n, n))
    for idx in e.partition.index_arrays:
        w = e.space.weights[idx]
        out[np.ix_(idx, idx)] = w[None, :] / float(w.sum())
    return out


def interleaved_partition(rng, n):
    """Random blocks of a random permutation, each listed unsorted."""
    k = int(rng.integers(1, n + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)) if k > 1 else []
    return Partition(tuple(tuple(b.tolist()) for b in np.split(rng.permutation(n), cuts)), n)


def oracle_partitions():
    rng = np.random.default_rng(11)
    out = []
    for i in range(40):
        n = int(rng.integers(1, 65))
        partition = (
            Partition.single_block(n) if i % 8 == 0
            else Partition.finest(n) if i % 8 == 1
            else interleaved_partition(rng, n)
        )
        space = FiniteMeasureSpace.from_weights(10.0 ** rng.uniform(-3.0, 3.0, n))
        out.append((CondExp(space, partition), rng))
    return out


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


class TestCondExpOracle:
    """The vectorized expectation against the per-block loop.

    Sums in another order agree to a few ulps of E|f|, the scale of the
    summands; the dense matrix divides the same quotients, so it is equal.
    """

    @pytest.mark.parametrize("m", [None, 1, 7])
    def test_matches_per_block_loop(self, m):
        for e, rng in oracle_partitions():
            n = e.space.n_atoms
            f = rng.uniform(-3.0, 3.0, n if m is None else (n, m))
            got = cond_exp(e, f)
            assert got.shape == f.shape
            cols = f.reshape(n, -1)
            want = np.stack([loop_cond_exp(e, c) for c in cols.T], axis=1)
            scale = np.stack([loop_cond_exp(e, np.abs(c)) for c in cols.T], axis=1)
            assert np.all(np.abs(got.reshape(n, -1) - want) <= 8 * EPS * scale)

    def test_nonfinite_entries_stay_in_their_block(self):
        for e, rng in oracle_partitions():
            n = e.space.n_atoms
            f = rng.uniform(0.0, 3.0, (n, 3))
            f[rng.integers(n), 0] = np.inf
            f[rng.integers(n), 2] = np.nan
            got, want = cond_exp(e, f), np.stack([loop_cond_exp(e, c) for c in f.T], 1)
            np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=8 * EPS)

    def test_matrix_equals_loop_construction(self):
        for e, _ in oracle_partitions():
            assert np.array_equal(e.matrix, loop_matrix(e))


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


def law_spaces():
    spaces = [
        (name, load_scenario(SCENARIOS / f"{name}.json").operator().e)
        for name in ("r1_nilpotent", "r3_contracting", "r4_expanding")
    ]
    spaces += [(f"random{seed}", random_operator(seed).e) for seed in (0, 3, 5)]
    space = FiniteMeasureSpace.from_weights([0.5, 2.0, 1.0, 3.0])
    return spaces + [("finest4", CondExp(space, Partition.finest(4)))]


# a gauge so small that E(phi|f|) falls under the support threshold while
# E|f| does not: the support-transfer law fails on its first nonzero draw
TINY = YoungFunction("tiny", (), lambda x: 1e-14 * x * x)


class TestBatchedLaws:
    """The batched suite against the loop over trials.

    Passing residuals are rounding errors of operands up to |fg| <= 9, and
    the batch sums them in another order, so they agree to a few ulps of
    that scale rather than of the residual. The bisection route (every
    gauge but a power law) stops a batch of norms once its widest column is
    within 1e-10, so there the norm residuals agree to that tolerance.
    """

    @pytest.mark.parametrize(
        "phi", [power_scaled(2), deadzone(), capped(), TINY], ids=lambda p: p.kind
    )
    @pytest.mark.parametrize("trials", [1, 16])
    @pytest.mark.parametrize("tol", [1e-9, -0.25, -1.0])
    def test_agrees_with_the_trial_loop(self, phi, trials, tol):
        for label, e in law_spaces():
            got = check_condexp_laws(e, phi, trials=trials, tol=tol, seed=4).laws
            want = laws_by_trial(e, phi, trials, tol, seed=4)
            assert list(got) == list(want)
            for name, law in want.items():
                where = (label, name)
                assert got[name].passed is law.passed, where
                assert got[name].counterexample == law.counterexample, where
                assert got[name].note == law.note, where
                bisected = name == "condexp_norm_contraction" and phi._power is None
                atol = 1e-9 if bisected else 1e-13
                assert got[name].max_residual == pytest.approx(
                    law.max_residual, rel=0.0, abs=atol
                ), where

    @pytest.mark.parametrize("trials", [1, 16, 200])
    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("one_block", [True, False], ids=["1_block", "n_blocks"])
    def test_one_draw_equals_the_trial_loop(self, trials, n, one_block):
        # n one-atom blocks listed in reverse, so that g reads its block
        # values through the labels
        space = FiniteMeasureSpace.from_weights(np.linspace(0.5, 2.0, n))
        blocks = ((tuple(range(n)),) if one_block
                  else tuple((i,) for i in reversed(range(n))))
        e = CondExp(space, Partition(blocks, n))
        for seed in (0, 4):
            f, g = condexp._trial_columns(e, trials, seed)
            want_f, want_g = law_columns_loop(e, trials, seed)
            assert f.flags.c_contiguous and g.flags.c_contiguous
            assert f.tobytes() == want_f.tobytes()
            assert g.tobytes() == want_g.tobytes()

    def test_negative_tolerance_fails_on_trial_zero(self):
        e = random_operator(3).e
        report = check_condexp_laws(e, power_scaled(2), trials=30, tol=-1.0, seed=2)
        f = law_draw(np.random.default_rng(2), e.space.n_atoms)
        law = report.laws["condexp_product_pullout"]
        assert law.passed is False
        assert law.counterexample["f"] == f.tolist()

    def test_tiny_gauge_fails_support_transfer(self):
        report = check_condexp_laws(random_operator(0).e, TINY, trials=5, seed=0)
        assert report.laws["condexp_support_transfer"].passed is False
        assert report.laws["condexp_support_transfer"].max_residual == 1.0

    @pytest.mark.parametrize("trials", [1, 200])
    def test_fixed_call_counts(self, monkeypatch, trials):
        calls = {"cond_exp": 0, "luxemburg_norms": 0}
        for name in calls:
            original = getattr(condexp, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(condexp, name, counted)
        check_condexp_laws(random_operator(1).e, power_scaled(2), trials=trials)
        assert calls == {"cond_exp": 4, "luxemburg_norms": 2}


class TestGchConstant:
    def test_identity_expectation_gives_one(self):
        # finest partition: E is the identity and the ratio is |fg|/(|f||g|)
        space = FiniteMeasureSpace.from_weights([1.0, 2.0, 0.5])
        e = CondExp(space, Partition.finest(3))
        phi = power_scaled(2)
        c = gch_constant_report(e, phi, samples=100, seed=0)[0]
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
        est = gch_constant_report(e_one_block, phi, samples=200, seed=1)[0]
        assert 0.0 < est <= 2.0
        assert est <= oracle + 1e-6
        assert est >= 0.8 * oracle

    def test_report_detail(self, e_one_block):
        value, detail = gch_constant_report(e_one_block, power_scaled(2), 50, seed=2)
        assert detail["label"] == "empirical lower bound"
        assert len(detail["worst_f"]) == 2
        assert value == pytest.approx(detail["constant"])

    def test_samples_validated(self, e_one_block):
        with pytest.raises(ValueError):
            gch_constant_report(e_one_block, power_scaled(2), samples=0)
