import functools
import itertools
from pathlib import Path

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
    ascent_of,
    matrix_of,
    power_scaled,
    verify_structure_theorems,
)
from orlicz_wct.harness import (
    PROFILES,
    Scenario,
    generate_random_instance,
    generate_well_conditioned_instance,
    load_scenario,
    run_verification,
    scenario_from_dict,
)
from orlicz_wct import harness, subspace
from orlicz_wct.subspace import (
    _block_spectra,
    _dense_spectra,
    block_powers_well_conditioned,
    powers_well_conditioned,
)
from orlicz_wct.wct import BlockLayout, OperatorTable, contraction_criterion

from conftest import random_operator
from oracles import (
    dense_ascent,
    meet_dim,
    pairing_adjoint,
    power_ranks,
    range_null,
    sum_dim,
    thresholded,
    well_conditioned_loop,
)


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.T


def line(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return np.outer(v, v) / (v @ v)


class TestBases:
    """Known answers for the dense bases of tests/oracles.py, which the
    differential tests below take as their reference."""

    def test_r1_null_space(self, r1):
        # oracle: solve (f1 + f2)/2 = 0, the line through (1, -1)
        basis = range_null(matrix_of(r1), 1e-8)[1]
        assert basis.shape[1] == 1
        np.testing.assert_allclose(projector(basis), line([1.0, -1.0]), atol=1e-12)

    def test_identity_has_trivial_kernel(self):
        assert range_null(np.eye(4), 1e-8)[1].shape[1] == 0

    def test_zero_matrix_kernel_is_everything(self):
        rng, null = range_null(np.zeros((3, 3)), 1e-8)
        assert null.shape[1] == 3 and rng.shape[1] == 0

    def test_r1_range(self, r1):
        # oracle: both columns are multiples of (1, -1)
        basis = range_null(matrix_of(r1), 1e-8)[0]
        assert basis.shape[1] == 1
        np.testing.assert_allclose(projector(basis), line([1.0, -1.0]), atol=1e-12)

    def test_r3_range(self, r3):
        basis = range_null(matrix_of(r3), 1e-8)[0]
        assert basis.shape[1] == 1
        np.testing.assert_allclose(projector(basis), line([1.0, 1.0]), atol=1e-12)

    def test_rank_nullity(self):
        for seed in range(30):
            m = matrix_of(random_operator(seed))
            rng, null = range_null(m, 1e-8)
            assert rng.shape[1] + null.shape[1] == m.shape[0]


class TestAscentDescent:
    def test_r1_ascent_two(self, r1):
        # oracle: kernel dims 0, 1, 2, 2, ... because the square vanishes
        assert ascent_of(r1) == dense_ascent(matrix_of(r1)) == 2

    def test_r3_ascent_one(self, r3):
        assert ascent_of(r3) == dense_ascent(matrix_of(r3)) == 1

    def test_identity_ascent_zero(self):
        # T = I: one-atom blocks with u = w = 1
        space = FiniteMeasureSpace.from_weights([1.0, 2.0, 0.5])
        e = CondExp(space, Partition.finest(3))
        assert ascent_of(WctOperator(np.ones(3), np.ones(3), e)) == 0
        assert dense_ascent(np.eye(3)) == 0
        assert dense_ascent(np.diag([1.0, 2.0, 3.0])) == 0

    def test_exceeds_k_max(self, r1):
        # r1 has ascent 2, past k_max = 1
        assert ascent_of(r1, k_max=1) is None
        shift = np.diag(np.ones(9), 1)  # nilpotent of index 10
        assert dense_ascent(shift, k_max=3) is None

    def test_chain_monotone_and_stabilizes(self):
        for seed in range(40):
            t = random_operator(seed, well_conditioned=True)
            n = t.space.n_atoms
            spectra = _block_spectra(t.block_record, 8)
            ranks = [n] + list(itertools.islice(power_ranks(spectra, 1e-8), 8))
            dims = [n - r for r in ranks]
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            stable_at = None
            for k in range(len(dims) - 1):
                if dims[k] == dims[k + 1]:
                    stable_at = k
                    break
            assert stable_at is not None
            assert all(d == dims[stable_at] for d in dims[stable_at:])

    def test_finite_ascent_descent_equal(self):
        # the block ascent (also the descent, by rank-nullity) is finite and
        # equals the ascent of the dense powers
        for seed in range(40):
            t = random_operator(seed, well_conditioned=True)
            a = ascent_of(t)
            assert a is not None
            assert a == dense_ascent(matrix_of(t))


class TestSumsAndIntersections:
    """Known answers for the dense sums and intersections of
    tests/oracles.py."""

    def test_orthogonal_lines_span_plane(self):
        a = np.array([[1.0], [1.0]]) / np.sqrt(2)
        b = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert sum_dim(a, b, 1e-8) == 2
        assert meet_dim(a, b, 1e-8) == 0

    def test_sum_idempotent(self):
        v = np.array([[1.0], [2.0]]) / np.sqrt(5)
        assert sum_dim(v, v, 1e-8) == 1
        assert meet_dim(v, v, 1e-8) == 1

    def test_sum_with_trivial(self):
        v = np.array([[1.0], [2.0]]) / np.sqrt(5)
        assert sum_dim(v, np.zeros((2, 0)), 1e-8) == 1

    def test_r1_range_meets_kernel_on_the_diagonal_line(self, r1):
        # oracle: both subspaces equal the line through (1, -1); only the
        # square's range is barred from touching kernels
        rng, null = range_null(matrix_of(r1), 1e-8)
        assert meet_dim(rng, null, 1e-8) == 1
        for basis in (rng, null):
            np.testing.assert_allclose(projector(basis), line([1.0, -1.0]), atol=1e-10)

    def test_dimension_formula(self):
        # against the principal angles: the intersection is where the cosines
        # of the angles between the subspaces reach 1
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            qa, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            qb, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
            assert meet_dim(qa, qb, 1e-8) == int(np.sum(cosines > 1.0 - 1e-8))

    def test_sum_cut_is_relative_to_the_largest_singular_value(self):
        # oracle: two lines with cos(angle) = 0.7 stack to singular values
        # sqrt(1.7) and sqrt(0.3); at tol 0.5 the smaller is under half the
        # larger (0.42) but above tol itself, so the lines merge
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.7], [np.sqrt(0.51)]])
        assert sum_dim(a, b, 0.5) == 1
        assert meet_dim(a, b, 0.5) == 1
        assert sum_dim(a, b, 0.4) == 2


def by_id(rows):
    return {r.claim_id: r for r in rows}


class TestStructureTheorems:
    def test_nilpotent_reference(self, r1):
        rows = by_id(verify_structure_theorems(r1, power_scaled(2)))
        assert rows["ascent_bound"].status == "pass"
        assert "ascent=2" in rows["ascent_bound"].detail
        # the symbol vanishes identically, so the lower-bound hypothesis is
        # vacuous and descent is still within the bound
        assert rows["descent_bound"].hypothesis == "met"
        assert rows["descent_bound"].status == "pass"
        assert "descent=2" in rows["descent_bound"].detail
        assert rows["square_sum_dense"].status == "pass"
        assert all(r.status in ("pass", "not_checked") for r in rows.values())

    def test_contracting_reference(self, r3):
        rows = by_id(verify_structure_theorems(r3, power_scaled(2)))
        assert all(r.status == "pass" for r in rows.values()), {
            k: (v.status, v.detail) for k, v in rows.items() if v.status != "pass"
        }
        # the Cesaro limit is the zero vector here, and it is invariant
        assert rows["ergodic_cesaro_limit"].residual <= 1e-10

    def test_expanding_reference(self, r4):
        rows = by_id(verify_structure_theorems(r4, power_scaled(2)))
        assert rows["ascent_bound"].status == "pass"
        assert "ascent=1" in rows["ascent_bound"].detail
        for cid in (
            "one_minus_t_ascent",
            "one_minus_t_adjoint_ascent",
            "one_minus_t_direct_sum",
            "ergodic_invertibility",
            "ergodic_bn_convergence",
            "ergodic_cesaro_limit",
        ):
            assert rows[cid].hypothesis == "not_met"
            assert rows[cid].status == "not_checked"

    def test_random_instances_pass(self):
        for i, profile in enumerate(
            ("generic", "nilpotent_h", "contracting_h", "expanding_h", "sparse_support")
        ):
            s = generate_well_conditioned_instance(100 + i, 10, 3, profile)
            t = s.operator()
            rows = verify_structure_theorems(t, s.phi, seed=i)
            bad = [r for r in rows if r.status == "fail"]
            assert not bad, [(r.claim_id, r.detail) for r in bad]


class TestFactorOnce:
    """The structure pass takes at most one SVD, of stacked 2 x 2 cores, and
    reports the same chains as the standalone scans and a hand-written power
    loop."""

    def test_rows_match_standalone_scans(self):
        for seed in range(50):
            t = random_operator(seed, well_conditioned=True)
            m = matrix_of(t)
            n = m.shape[0]
            rows = by_id(verify_structure_theorems(t, power_scaled(2)))
            ranks = _dense_chain(m, 1e-8)[0]
            detail = rows["ascent_bound"].detail
            assert f"ascent={dense_ascent(m)}," in detail
            assert f"kernel dims {[n - r for r in ranks]}" in detail
            assert rows["null_chain_stabilization"].detail == (
                f"kernel dims {[n - r for r in ranks]}"
            )
            if rows["descent_bound"].status != "not_checked":
                detail = rows["descent_bound"].detail
                assert f"descent={dense_ascent(m)}," in detail
                assert f"range dims {ranks}," in detail
                assert rows["range_chain_stabilization"].detail == f"range dims {ranks}"
            stable = next(k for k in range(6) if ranks[k] == ranks[k + 1])
            assert f"ascent={stable}," in rows["ascent_bound"].detail

    def test_no_svd_repeats_within_one_pass(self, monkeypatch, r1, r3):
        keys = []
        real = np.linalg.svd

        def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
            a = np.asarray(a)
            keys.append((a.tobytes(), a.shape, compute_uv, full_matrices))
            return real(a, full_matrices, compute_uv, hermitian)

        monkeypatch.setattr(np.linalg, "svd", spy)
        # np.linalg.norm(., 2) calls the svd bound in its own module
        monkeypatch.setitem(getattr(real, "__wrapped__", real).__globals__, "svd", spy)
        operators = [r1, r3] + [
            generate_well_conditioned_instance(40 + i, 9, 3, profile).operator()
            for i, profile in enumerate(PROFILES)
        ]
        factored = 0
        for t in operators:
            keys.clear()
            rows = by_id(verify_structure_theorems(t, power_scaled(2)))
            # the pass factors I - T (one stacked SVD of the 2 x 2 cores of
            # its first power) exactly when the contraction criterion holds
            met = rows["one_minus_t_direct_sum"].hypothesis == "met"
            assert bool(keys) == met, (t.h, len(keys))
            factored += met
            repeats = {k[1:] for k in keys if keys.count(k) > 1}
            assert not repeats, (t.h, repeats)
            assert len(keys) <= 1
        assert factored >= 2
        # the table of all of them: one SVD, of the power-1 cores of I - T of
        # every operator that meets the criterion
        keys.clear()
        tab = OperatorTable.of(operators, [power_scaled(2)] * len(operators))
        columns = verify_structure_theorems(tab, None, 1e-8, 0)
        (direct_sum,) = [c for c in columns if c.claim_id == "one_minus_t_direct_sum"]
        met = [t for t, hyp in zip(operators, direct_sum.hypothesis) if hyp == 1]
        assert len(met) == factored
        blocks = sum(t.block_record.sizes.size for t in met)
        assert [key[1] for key in keys] == [(blocks, 2, 2)]

    def test_no_svd_of_more_than_two_rows_in_verify(self, monkeypatch):
        # every SVD that run_verification takes, on r1, r3, r4 (with ten
        # random instances each, and r4 alone) and the 256-atom wide256
        # seed-1 scenario, acts on 2 x 2 matrices, stacked; each structure
        # pass, one table of a call, makes at most one such call, and one
        # where the contraction criterion holds for an instance of the
        # table: wide256's, of the first power of I - T on its 32 blocks
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(root / "benchmarks")
        import workloads

        runs = [
            (load_scenario(root / "scenarios" / f"{name}.json"), 10)
            for name in ("r1_nilpotent", "r3_contracting", "r4_expanding")
        ]
        runs.append((runs[-1][0], 0))
        runs.append((scenario_from_dict(workloads.wide_scenario_dict(1)), 0))
        real, real_pass = np.linalg.svd, harness.verify_structure_theorems
        shapes, calls = [], []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        def spy_pass(tab, phi, tol, seeds, criterion=None):
            before = len(shapes)
            columns = real_pass(tab, phi, tol, seeds, criterion)
            # the harness passes no criterion: the pass reads the table's,
            # which the power_bounded pass decided
            assert criterion is None and "criterion" in vars(tab)
            calls.append((tab.n.size, bool(tab.criterion[1].any()), len(shapes) - before))
            return columns

        monkeypatch.setattr(np.linalg, "svd", spy)
        # np.linalg.norm(., 2) calls the svd bound in its own module
        monkeypatch.setitem(getattr(real, "__wrapped__", real).__globals__, "svd", spy)
        monkeypatch.setattr(harness, "verify_structure_theorems", spy_pass)
        for scenario, instances in runs:
            run_verification(scenario, seed=1, instances=instances)
        # one table per call: 11 rows each, then r4's and wide256's one
        assert [count for count, _, _ in calls] == [11, 11, 11, 1, 1]
        assert all(svds == met for _, met, svds in calls)
        assert {svds for _, _, svds in calls} == {0, 1}
        assert shapes and all(len(a) >= 2 and max(a[-2:]) <= 2 for a in shapes)
        assert (32, 2, 2) in shapes

    def test_one_core_svd_per_table(self, monkeypatch):
        # a verify of r3 with 20 random instances, cut into tables of at
        # most 40 atoms, takes one structure pass per table; a pass whose
        # table holds instances that meet the contraction criterion factors
        # the power-1 cores of I - T of all their blocks in one SVD, and
        # forms every closed-form sum of every horizon in one _power_sums
        batches = []
        real_batch, real_svd = subspace._structure_columns, np.linalg.svd
        real_sums = subspace._power_sums

        def spy_batch(tab, tol, seeds, holds):
            batches.append({"tab": tab, "holds": holds, "svd": [], "sums": [], "open": True})
            try:
                return real_batch(tab, tol, seeds, holds)
            finally:
                batches[-1]["open"] = False

        def spy_svd(a, *args, **kwargs):
            if batches and batches[-1]["open"]:
                batches[-1]["svd"].append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def spy_sums(h, counts, weighted):
            batches[-1]["sums"].append((h.size, counts, np.broadcast_to(weighted, counts.shape)))
            return real_sums(h, counts, weighted)

        monkeypatch.setattr(subspace, "_structure_columns", spy_batch)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(subspace, "_power_sums", spy_sums)
        monkeypatch.setattr(harness, "_TABLE_ATOMS", 40)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        report = run_verification(load_scenario(path), seed=1, instances=20)
        assert report.exit_status == 0
        assert len(batches) == 4 and all(b["tab"].n.sum() <= 40 for b in batches)
        sizes = np.concatenate([b["tab"].n for b in batches])
        assert sizes.size == 21 and np.all(np.diff(sizes) >= 0)
        met_total = 0
        for b in batches:
            tab, holds = b["tab"], b["holds"]
            met_total += int(holds.sum())
            blocks = int(tab.blocks[holds].sum())
            assert b["svd"] == ([(blocks, 2, 2)] if holds.any() else [])
            assert len(b["sums"]) == int(holds.any())
            if not holds.any():
                continue
            ((rows, counts, weighted),) = b["sums"]
            assert rows == blocks
            horizons = set()
            h_tops = np.maximum.reduceat(np.abs(tab.h), tab.atom_starts)[holds]
            for h_top in h_tops.tolist():
                n_eff = int(min(1e5, max(200, 40.0 / max(1e-4, 1.0 - min(h_top, 1.0)))))
                horizons |= {n_eff // 4, n_eff // 2, n_eff}
            assert set((counts[~weighted] + 1).tolist()) == horizons
            assert set((counts[weighted] + 2).tolist()) == horizons
        svds = sum(len(b["svd"]) for b in batches)
        assert met_total > svds > 0

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.25])
    def test_closed_form_core_values_match_the_svd(self, tol):
        # the rank chains of I - T and its adjoint read the closed-form
        # values of the cores [[(1-h)^k, -gamma_k rho], [0, c]]: against
        # np.linalg.svd of the same cores they agree to rounding and give
        # the same ranks and ascents, on one-atom blocks (c = 0, rho = 0),
        # h_B within 1e-9 of 1, h_B = -100 and h_B = -1e34, where (1-h)^9
        # is near 1e306
        rng = np.random.default_rng(41)
        kinds = {
            "generic": lambda: rng.uniform(-0.95, 0.95),
            "near_one": lambda: 1.0 + rng.uniform(-1e-9, 1e-9),
            "minus_hundred": lambda: -100.0,
            "near_overflow": lambda: -1e34 * rng.uniform(1.0, 1.5),
        }
        seen = set()
        for trial in range(150):
            blocks = rng.integers(1, 5, int(rng.integers(1, 6)))
            starts = np.cumsum(blocks) - blocks
            sizes = rng.integers(1, 4, blocks.sum())
            names = rng.choice(list(kinds), sizes.size, p=[0.55, 0.15, 0.15, 0.15])
            h = np.array([kinds[name]() for name in names])
            pair = sizes > 1
            rho = rng.lognormal(0.0, 2.0, (2, sizes.size)) * pair
            seen |= {(name, bool(p)) for name, p in zip(names, pair)}
            p = ((1.0 - h)[:, None] ** np.arange(10)).T
            a, c = p[1:], pair.astype(float)
            b = -np.cumsum(p[:-1], axis=0) * rho[:, None]
            cores = np.zeros((2, 9, h.size, 2, 2))
            cores[..., 0, 0], cores[..., 0, 1], cores[..., 1, 1] = a, b, c
            closed = subspace._triangular_values(a, b, c)
            dense = np.linalg.svd(cores, compute_uv=False)
            dense[..., 1] *= pair
            assert np.all(closed[..., 1] <= closed[..., 0])
            np.testing.assert_allclose(closed, dense, rtol=1e-12, atol=0)
            n = subspace._owner_sum(sizes, starts)
            trivial = n - subspace._owner_sum(np.minimum(sizes, 2), starts)
            tols = np.full(n.size, tol)
            got, want = (
                subspace._chain(v.reshape(2, 9, -1), 2 * starts, tols, trivial)
                for v in (closed, dense)
            )
            for x, y in zip(got, want):
                assert np.array_equal(x, y)
            for x, y in zip(got[1], want[1]):
                ascent = subspace._ascents(np.vstack([n, x]))
                assert np.array_equal(ascent, subspace._ascents(np.vstack([n, y])))
        assert seen == {(kind, p) for kind in kinds for p in (False, True)}

    def test_one_solve_per_ergodic_run(self, monkeypatch):
        # a table of 20 contracting 12-atom instances, every one meeting the
        # criterion: the ergodic rows go over 4 runs of 5 rows (60 atoms,
        # under _PROBE_ATOMS), each a part of the table's one layout, with
        # one solve of I - T for the run's probe columns, drawn once per row
        # from its own seed; no generator is seeded with seed ^ 0x5EED
        ts = [
            generate_well_conditioned_instance(900 + i, 12, 3, "contracting_h").operator()
            for i in range(20)
        ]
        tab = OperatorTable.of(ts, [power_scaled(2)] * len(ts))
        assert tab.criterion[1].all()
        seeds = list(range(100, 120))
        solves, builds, rngs = [], [], []
        real_solve, real_init = BlockLayout.solve, BlockLayout.__init__
        real_rng = np.random.default_rng

        def spy_solve(layout, x, f):
            solves.append(np.shape(f))
            return real_solve(layout, x, f)

        def spy_init(layout, table):
            builds.append(table.n.size)
            real_init(layout, table)

        def spy_rng(seed=None):
            rngs.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(BlockLayout, "solve", spy_solve)
        monkeypatch.setattr(BlockLayout, "__init__", spy_init)
        monkeypatch.setattr(np.random, "default_rng", spy_rng)
        columns = verify_structure_theorems(tab, None, 1e-8, seeds)
        rows = {c.claim_id: c for c in columns}
        assert (rows["ergodic_invertibility"].status == 0).all()
        assert solves == [(60, 100)] * 4
        assert builds == [20]
        assert sorted(rngs) == seeds
        assert not {seed ^ 0x5EED for seed in seeds} & set(rngs)

    @pytest.mark.parametrize("n_atoms, n_blocks", [(256, 32), (64, 8)])
    def test_no_dense_array_in_a_fast_groups_verify(
        self, monkeypatch, n_atoms, n_blocks
    ):
        # a fast-groups verify of a wide instance (the wide256 workload at
        # 256 atoms) never builds CondExp.matrix, so neither the operator's
        # dense matrix, nor np.eye(n), and every solve and explicit matmul
        # acts on stacks of the partition's blocks: no operand has more rows
        # than the largest block
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(root / "benchmarks")
        import workloads

        s = scenario_from_dict(workloads.wide_scenario_dict(1, n_atoms, n_blocks))
        largest = max(len(b) for b in s.partition.blocks)
        builds, eyes, operands = [], [], {"solve": [], "matmul": []}
        real_matrix, real_eye = CondExp.matrix.fget, np.eye

        def spy_matrix(e):
            builds.append(e)
            return real_matrix(e)

        def spy_eye(size, *args, **kwargs):
            eyes.append(size)
            return real_eye(size, *args, **kwargs)

        def spy(name, real):
            def call(*args, **kwargs):
                operands[name].append([np.shape(a) for a in args])
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(CondExp, "matrix", property(spy_matrix))
        monkeypatch.setattr(np, "eye", spy_eye)
        monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
        monkeypatch.setattr(np, "matmul", spy("matmul", np.matmul))
        report = run_verification(s, seed=1)
        assert all(e.status == "pass" for e in report.entries)
        assert len(builds) == 0 and max(eyes) <= largest
        # the one solve of the ergodic rows, for the probe columns: one
        # stack per run of equal-size blocks
        runs = len({len(b) for b in s.partition.blocks})
        assert len(operands["solve"]) == runs
        assert all(args[1][-1] == 100 for args in operands["solve"])
        shapes = [a for call in operands.values() for args in call for a in args]
        assert max(a[-2] if len(a) > 1 else a[0] for a in shapes) == largest


def _dense_chain(a, tol, k_max=6):
    """Reference for the core: rank of each sequential dense power of a at
    its power threshold, the range and kernel columns of the first four,
    from np.linalg.svd of the powers themselves, and whether a singular
    value sits within a factor 2 of its cut. That band is far wider than the
    rounding gap between the routes, so such a case says nothing."""
    n = a.shape[0]
    base = float(np.linalg.svd(a, compute_uv=False)[0])
    ranks, bases, straddles, power = [n], {}, False, np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ a
        u, s, vh = np.linalg.svd(power)
        cut = max(tol * s[0], 1e-11 * base**k if base > 0 else 0.0)
        ranks.append(int(np.sum(s > cut)))
        straddles |= cut > 0 and bool(np.any((s > cut / 2) & (s <= cut * 2)))
        if k <= 4:
            bases[k] = (u[:, : ranks[-1]], vh[ranks[-1] :].T)
    return ranks, bases, straddles


def _dense_sum(a, b, tol):
    cols = np.hstack([a, b])
    if not cols.shape[1]:
        return 0
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > (tol * s[0] if s[0] > 0 else tol)))


def _dense_well_conditioned(m, k_max, tol, symbol=None):
    """powers_well_conditioned rebuilt on dense powers."""
    base = float(np.linalg.svd(m, compute_uv=False)[0])
    thresholds, retained, power = [], None, np.eye(m.shape[0])
    for k in range(1, k_max + 1):
        power = power @ m
        s = np.linalg.svd(power, compute_uv=False)
        thr = max(tol * s[0], 1e-11 * base**k if base > 0 else 0.0)
        thresholds.append(thr)
        if thr > 0 and np.any((s > thr / 30) & (s <= thr * 30)):
            return False
        if k == 2:
            retained = float(s[s > thr][-1]) if np.any(s > thr) else None
    if symbol is not None and retained is not None:
        h = np.abs(np.asarray(symbol, dtype=float))
        on = h > 1e-12 * (1.0 + h.max())
        if on.any():
            return all(
                h[on].min() ** (k - 2) * retained > 30 * thresholds[k - 1]
                for k in range(3, k_max + 1)
            )
    return True


@functools.lru_cache(maxsize=None)
def _general_matrices():
    """(name, matrix, weights): zero, identity, n = 1, full rank, low rank,
    nilpotent low rank, a planted small singular value, and an M whose I - M
    has the value 1 of its trivial directions as its largest. Low-rank cases
    have 2r < n, so their core is smaller than M."""
    rng = np.random.default_rng(13)
    out = [("one", rng.standard_normal((1, 1))), ("one_zero", np.zeros((1, 1)))]
    out += [(f"zero{n}", np.zeros((n, n))) for n in (2, 5, 40)]
    out += [(f"eye{n}", np.eye(n)) for n in (2, 5, 40)]
    for i in range(20):
        n = int(rng.integers(2, 41))
        out.append((f"full{i}", rng.standard_normal((n, n)) / np.sqrt(n)))
    for i in range(45):
        n = int(rng.integers(6, 49))
        r = int(rng.integers(1, n // 3 + 1))
        x, y = rng.standard_normal((n, r)), rng.standard_normal((n, r))
        if i % 4 == 3:
            # y orthogonal to the columns of x: the square vanishes
            qx = np.linalg.qr(x)[0]
            y -= qx @ (qx.T @ y)
        out.append((f"low{i}", 10.0 ** rng.uniform(-3, 3) * x @ y.T / n))
    # a planted singular value between the rounding cut n*eps*s0 and
    # tol*s0 (1e-9 against 1e-8), outside the span of the leading pair: it
    # sits in the rank band of the first power, so only a core that keeps it
    # sees the band
    for i in range(4):
        n = 20 + 6 * i
        frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
        block = np.zeros((n, n))
        block[0, 1] = 1.0
        block[2, 3] = block[3, 2] = 1e-9
        out.append((f"planted{i}", frame @ block @ frame.T))
    # I - M with core spectrum 0.1: the trivial value 1 is the largest
    # singular value of every power, and at tol 0.25 it alone puts the cut
    # above 0.1^k
    for i in range(4):
        n = 8 + 8 * i
        frame = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :2]
        out.append((f"psd{i}", 0.9 * frame @ frame.T))
    return [(name, m, rng.uniform(0.5, 2.0, m.shape[0])) for name, m in out]


@functools.lru_cache(maxsize=None)
def _wct_operators():
    rng = np.random.default_rng(21)
    out = []
    for i in range(90):
        n_atoms = int(rng.integers(2, 65))
        n_blocks = int(rng.integers(1, min(n_atoms, 12) + 1))
        s = generate_well_conditioned_instance(
            900 + i, n_atoms, n_blocks, PROFILES[i % len(PROFILES)]
        )
        out.append((f"wct{i}", s.operator()))
    return out


class TestCoreAgainstDensePowers:
    """Both routes against sequential dense powers, at the default and a
    coarse tolerance: the compressed route of bare matrices (M, I - M and
    its pairing adjoint), and the structure pass's per-block chains of T,
    I - T and the adjoint with the sums it forms; the dense ascent of
    tests/oracles.py and powers_well_conditioned against dense rebuilds."""

    @staticmethod
    def _bare(m, w):
        imt = np.eye(m.shape[0]) - m
        return [m, imt, pairing_adjoint(imt, w)]

    def _check_bare(self, name, m, w, tol):
        checked = 0
        for a in self._bare(m, w):
            want, _, straddles = _dense_chain(a, tol)
            if straddles:
                continue
            ranks = power_ranks(_dense_spectra(a), tol)
            assert [a.shape[0]] + list(itertools.islice(ranks, 6)) == want, (name, tol)
            checked += 1
        return checked

    def _check_pass(self, name, t, tol):
        """The rows of the pass, with the contraction criterion taken as met
        so that every instance has its I - T rows, read up to the direct-sum
        row (the ergodic rows after it run no chain), against the dense chains
        of M, I - M and its pairing adjoint that no value straddles."""
        # the ergodic rows after the direct-sum row, unread here, may
        # overflow on the expanding instances whose criterion is taken as met
        with np.errstate(over="ignore", invalid="ignore"):
            rows = verify_structure_theorems(t, None, tol, 0, ([], True))
        rows = by_id(rows[:11])
        m = matrix_of(t)
        n = m.shape[0]
        checked = 0
        want, bases, straddles = _dense_chain(m, tol)
        if not straddles:
            assert rows["null_chain_stabilization"].detail == (
                f"kernel dims {[n - r for r in want]}"
            ), (name, tol)
            r2, n2 = bases[2]
            sums = [_dense_sum(r2, bases[k][1], tol) for k in range(1, 5)]
            meets = [
                r2.shape[1] + bases[k][1].shape[1] - sums[k - 1] for k in range(1, 5)
            ]
            assert rows["range_square_null_intersection"].residual == max(meets)
            detail = rows["square_sum_dense"].detail
            assert detail.startswith(f"dim sum={sums[1]}, dim intersection={meets[1]} ")
            full = all(_dense_sum(bases[k][0], n2, tol) == n for k in range(1, 5))
            if rows["range_plus_null_square"].status != "not_checked":
                assert (rows["range_plus_null_square"].status == "pass") == full
            checked += 1
        imt, adj = self._bare(m, t.space.weights)[1:]
        chains = (("one_minus_t_ascent", imt), ("one_minus_t_adjoint_ascent", adj))
        for cid, a in chains:
            ranks, split, straddles = _dense_chain(a, tol)
            if straddles:
                continue
            got = rows[cid].detail.split(" ")[0]
            ascent = next((k for k in range(6) if ranks[k] == ranks[k + 1]), None)
            if ascent is None:
                assert got in ("ascent=None", "ascent=6", "ascent=7", "ascent=8")
            else:
                assert got == f"ascent={ascent}", (name, tol, cid)
            if a is imt:
                row = rows["one_minus_t_direct_sum"]
                assert row.detail == f"dims {ranks[1]}+{n - ranks[1]} of {n}"
                assert (row.status == "pass") == (_dense_sum(*split[1], tol) == n)
            checked += 1
        return checked

    # (tolerance, least count of the 3 * 81 or 3 * 90 chains that no
    # singular value straddles): coarse cuts straddle more often
    @pytest.mark.parametrize("tol, least", [(1e-8, 210), (0.25, 100)])
    def test_general_matrices(self, tol, least):
        cases = _general_matrices()
        assert sum(self._check_bare(name, m, w, tol) for name, m, w in cases) >= least

    @pytest.mark.parametrize("tol, least", [(1e-8, 250), (1e-3, 130), (0.25, 20)])
    def test_wct_instances(self, tol, least):
        cases = _wct_operators()
        assert sum(self._check_pass(name, t, tol) for name, t in cases) >= least

    def test_wide_instance(self, monkeypatch):
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "benchmarks")
        import workloads

        t = scenario_from_dict(workloads.wide_scenario_dict(1)).operator()
        m = matrix_of(t)
        # 32 blocks: the bare route's core has 2 * 32 dimensions
        assert next(_dense_spectra(m)).shape == (64,)
        assert self._check_pass("wide256", t, 1e-8) == 3
        assert powers_well_conditioned(m, 7, symbol=t.h)
        assert dense_ascent(m) == ascent_of(t) == 1

    def test_planted_value_is_kept(self):
        for name, m, _ in _general_matrices():
            if name.startswith("planted"):
                s = next(_dense_spectra(m))
                assert np.any(np.abs(s - 1e-9) < 1e-15), name
                assert not powers_well_conditioned(m, 7)
                assert not _dense_well_conditioned(m, 7, 1e-8)

    def test_public_scans_match_dense_rebuilds(self):
        cases = [(name, m, None) for name, m, _ in _general_matrices()]
        cases += [(name, matrix_of(t), t.h) for name, t in _wct_operators()]
        for name, m, h in cases:
            want = _dense_well_conditioned(m, 7, 1e-8, h)
            assert powers_well_conditioned(m, 7, 1e-8, symbol=h) == want, name
            ranks = _dense_chain(m, 1e-8, 9)[0]
            ascent = next((k for k in range(9) if ranks[k] == ranks[k + 1]), None)
            if want:
                assert dense_ascent(m) == ascent, name


class TestConditioning:
    def test_well_conditioned_detects_threshold_straddlers(self):
        # singular values a hair above and below the rank cut
        m = np.diag([1.0, 5e-9])
        assert not powers_well_conditioned(m, k_max=1, tol=1e-8)
        assert powers_well_conditioned(np.diag([1.0, 0.5]), k_max=4, tol=1e-8)

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.25])
    def test_block_spectrum_decides_like_the_dense_route(self, tol):
        # 300 draws of 2-64 atoms over the five profiles at each tolerance;
        # both decisions occur, and at least 100 draws have 32 atoms or more
        rng = np.random.default_rng(17)
        decisions, large = set(), 0
        for i in range(300):
            n_atoms = int(rng.integers(2, 65))
            n_blocks = int(rng.integers(1, n_atoms + 1))
            s = generate_random_instance(7000 + i, n_atoms, n_blocks, PROFILES[i % 5])
            t = s.operator()
            want = powers_well_conditioned(matrix_of(t), 7, tol, symbol=t.h)
            assert block_powers_well_conditioned(t, 7, tol) == want, (i, tol)
            decisions.add(want)
            large += n_atoms >= 32
        assert decisions == {True, False} and large >= 100

    @pytest.mark.parametrize(
        "h_small, want",
        [(0.5, True), (1e-3, False), (1e-20, True), (0.0, True)],
    )
    def test_block_spectrum_on_a_small_symbol(self, h_small, want):
        # one block's symbol sinks its higher powers: 1e-3 ** 5 against the
        # 1e-11 noise floor is the h_min floor test; 1e-20 lies below the
        # support of h and reads as zero, as does an exact zero
        mu = np.array([1.0, 2.0, 1.5, 0.5, 1.0])
        data = {
            "atoms": mu.tolist(), "blocks": [[0, 3], [1, 2, 4]],
            "u": [1.0, 0.5, 2.0, 1.0, 1.0], "w": [0.6, 1.0, 1.0, 0.6, 1.0],
            "young": {"kind": "power_scaled", "p": 2},
        }
        t = scenario_from_dict(data).operator()
        w = np.asarray(data["w"])
        w[[0, 3]] *= h_small / t.h[0]
        t = scenario_from_dict(dict(data, w=w.tolist())).operator()
        dense = powers_well_conditioned(matrix_of(t), 7, 1e-8, symbol=t.h)
        assert block_powers_well_conditioned(t, 7, 1e-8) == dense == want

    def test_draw_loop_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD in the draw loop")

        draws = []
        draw = harness._draw

        def spy_draw(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(harness, "_draw", spy_draw)
        # the sizes of random suites, 2-12 atoms: 74 draws for 60 instances,
        # so some draws were flagged and redrawn
        for i in range(60):
            n_atoms = 2 + i % 11
            n_blocks = 1 + (7 * i) % n_atoms
            profile = PROFILES[i % 5]
            generate_well_conditioned_instance(300 + i, n_atoms, n_blocks, profile)
        assert len(draws) > 60


def _both_rules(rows, tol, symbol):
    """The draw filter's rule on the spectra rows of the powers 1..k_max at
    once, which must decide as the loop over the powers in tests/oracles.py
    does; returns the decision."""
    rows = np.asarray(rows, dtype=float)
    spectra = thresholded(iter(rows), tol)
    want = well_conditioned_loop(spectra, len(rows), symbol)
    assert subspace._well_conditioned(rows, tol, symbol) is want
    return want


class TestWellConditionedArrayRule:
    """``subspace._well_conditioned`` reads the thresholds, noise floors,
    band test and h_min floor of every power in one pass over an array;
    ``oracles.well_conditioned_loop`` takes one power at a time. They
    decide alike on random draws, block and dense, and on the edges: a
    value exactly on a band edge, a symbol within ulps of the support cut,
    spectra that overflow and an operator that is zero."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.25])
    def test_random_draws(self, tol):
        rng = np.random.default_rng(29)
        decisions = set()
        for i in range(150):
            n_atoms = int(rng.integers(1, 25))
            n_blocks = int(rng.integers(1, n_atoms + 1))
            s = generate_random_instance(8000 + i, n_atoms, n_blocks, PROFILES[i % 5])
            t = s.operator()
            block = _block_spectra(t.block_record, 7)
            for symbol in (t.h, None):
                decisions.add(_both_rules(block, tol, symbol))
            if i % 5 == 0:
                dense = itertools.islice(_dense_spectra(matrix_of(t)), 7)
                decisions.add(_both_rules(list(dense), tol, t.h))
        assert decisions == {True, False}

    @pytest.mark.parametrize("top, k", [(1.0, 1), (1.0, 4), (3.229014507253627, 7)])
    def test_values_on_the_band_edges(self, top, k):
        # a value exactly on thr * 30 is in the band and one an ulp above it
        # is not; exactly on thr / 30 it is not, and an ulp above it is. thr
        # is tol times the largest value, top, or for k = 7 the noise floor
        # 1e-11 top^7: a power that numpy builds with AVX-512 take an ulp
        # away from C's pow when they raise an array
        tol = 1e-8
        thr = max(tol * top, 1e-11 * top**k)
        edges = [
            (thr * 30, False),
            (np.nextafter(thr * 30, np.inf), True),
            (thr / 30, True),
            (np.nextafter(thr / 30, np.inf), False),
        ]
        for value, want in edges:
            rows = np.zeros((7, 2))
            rows[:, 0] = top
            rows[k - 1, 1] = value
            assert _both_rules(rows, tol, None) is want, value

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_symbol_within_ulps_of_the_support_cut(self, ulps):
        # one block of sigma 1 and h 0.5, and a symbol entry within ulps of
        # the cut 1e-12 * (1 + 0.5): above it, its powers sink below every
        # threshold, so the draw is flagged; at or below it the entry reads
        # as zero
        cut = entry = 1e-12 * (1.0 + 0.5)
        for _ in range(abs(ulps)):
            entry = np.nextafter(entry, np.inf if ulps > 0 else 0.0)
        rows = [[0.5**k] for k in range(7)]
        assert _both_rules(rows, 1e-8, np.array([0.5, entry, -entry])) is (ulps <= 0)
        assert bool(entry > cut) is (ulps > 0)

    def test_overflowing_and_zero_spectra(self):
        # w scaled by 1e160: the powers from the second on overflow to inf,
        # and with u by 1e10 and w by 1e300 sigma_B itself does. An operator
        # whose u and w vanish has base norm 0, so every floor is 0
        s = generate_random_instance(3, 6, 2, "contracting_h")
        e = s.operator().e
        for u, w in ((s.u, s.w * 1e160), (s.u * 1e10, s.w * 1e300)):
            with np.errstate(over="ignore", invalid="ignore"):
                t = WctOperator(u, w, e)
                rows = np.array(_block_spectra(t.block_record, 7))
            assert np.isinf(rows[1:]).all()
            for tol in (1e-8, 0.25):
                _both_rules(rows, tol, t.h)
        zero = WctOperator(np.zeros(6), np.zeros(6), e)
        rows = _block_spectra(zero.block_record, 7)
        assert not np.any(rows)
        assert _both_rules(rows, 1e-8, zero.h) and _both_rules(rows, 1e-8, None)
        assert powers_well_conditioned(np.zeros((4, 4)), 7, symbol=np.zeros(4))


def _scalar_thresholds(spectra, starts, tol, ones=0):
    """The rank thresholds with one C pow per operator and power: tol times
    each power's largest value, at least 1e-11 times the first power's
    largest value to the k-th power."""
    top = subspace._owner_max(spectra, starts)
    top = np.where(ones > 0, np.maximum(top, 1.0), top)
    powers = range(1, top.shape[-2] + 1)
    base = top[..., 0, :].reshape(-1, top.shape[-1]).tolist()
    floor = [[subspace._noise_floor(b, k) for b in row] for row in base for k in powers]
    return np.maximum(tol * top, np.reshape(floor, top.shape))


class TestThresholds:
    """``subspace._thresholds`` forms the noise floors with numpy's power
    and takes C's pow only near a threshold; its thresholds equal the
    scalar loop's bit for bit."""

    def test_equal_the_scalar_loop_bit_for_bit(self):
        # random spectra over 80 decades, with bases of 0, negative, NaN,
        # inf, subnormal, and 1e40, whose 8th power overflows; for one and
        # two chains, with and without further values 1
        rng = np.random.default_rng(5)
        specials = [0.0, -1.0, -1e40, np.nan, np.inf, 1e40, 1e300, 5e-324, 1.0]
        near = 0
        for trial in range(400):
            sizes = rng.integers(1, 5, int(rng.integers(1, 6)))
            starts = np.cumsum(sizes) - sizes
            spectra = rng.lognormal(0.0, rng.uniform(0.0, 40.0), (9, sizes.sum()))
            spectra[rng.random(spectra.shape) < 0.1] = rng.choice(specials)
            # a first power of one value: the special is the base itself
            spectra[:, starts[trial % sizes.size]] = rng.choice(specials)
            if trial % 3 == 0:
                spectra = np.stack([spectra, spectra[::-1]])
            tol = rng.choice([1e-16, 1e-8, 1e-3, 0.25], sizes.size)
            ones = rng.integers(0, 3, sizes.size) * (trial % 2)
            with np.errstate(over="ignore", invalid="ignore"):
                want = _scalar_thresholds(spectra, starts, tol, ones)
            got = subspace._thresholds(spectra, starts, tol, ones)
            assert np.array_equal(got, want, equal_nan=True), trial
            assert np.array_equal(np.signbit(got), np.signbit(want))
            near += np.count_nonzero(got != tol * subspace._owner_max(spectra, starts))
        assert near > 0

    def test_named_bases(self):
        # one operator per base, one value per power: its floor decides
        # where it clears tol times the value, including an overflow to inf
        # at k = 9 (1e35^9), and 0 for a base of 0 or negative, NaN for NaN
        bases = np.array([0.0, -2.0, np.nan, 1e35, 1e-3, 1.0, 1e5])
        spectra = np.tile(bases, (9, 1))
        starts = np.arange(bases.size)
        got = subspace._thresholds(spectra, starts, np.full(bases.size, 1e-8))
        with np.errstate(over="ignore", invalid="ignore"):
            want = _scalar_thresholds(spectra, starts, np.full(bases.size, 1e-8))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isinf(got[8, 3]) and np.isfinite(got[7, 3])
        assert not got[:, :2].any()
        assert np.isnan(got[:, 2]).all()


def _cut_bases(p, base, k, tol):
    # range and kernel of p at the rank cut of a k-th power: tol times the
    # 2-norm of p, never below 1e-11 times the k-th power of the base norm
    top = float(np.linalg.norm(p, 2))
    rel = max(tol, 1e-11 * base**k / top) if top > 0 else tol
    return range_null(p, rel)


def reference_rows(t, ctx, tol, seed):
    """claim id -> (hypothesis, status, detail, residual) of the structure
    pass, rebuilt from the dense routes of tests/oracles.py: bases of
    np.linalg.matrix_power at each power's cut, sums and intersections of
    those bases, and the dense ascent. For the two ergodic convergence rows,
    whose status comes from the horizon heuristic, only the hypothesis and
    the invariance residual of the Cesaro limit are rebuilt."""
    m = matrix_of(t)
    n, h = m.shape[0], t.h
    base = float(np.linalg.norm(m, 2))

    def status(ok):
        return "pass" if ok else "fail"

    powers = {
        k: _cut_bases(np.linalg.matrix_power(m, k), base, k, tol) for k in range(1, 7)
    }
    ranks = [n] + [powers[k][0].shape[1] for k in range(1, 7)]
    kernel = [n - r for r in ranks]
    r2, null2 = powers[2]
    a = dense_ascent(m, tol=tol)
    rows = {
        "ascent_bound": (
            "none",
            status(a is not None and a <= 2),
            f"ascent={a}, kernel dims {kernel}",
            None,
        ),
        "null_chain_stabilization": (
            "none",
            status(all(d == kernel[2] for d in kernel[3:])),
            f"kernel dims {kernel}",
            None,
        ),
    }
    on = np.abs(h) > 1e-12
    if not on.any() or np.min(np.abs(h[on])) >= 1e-10:
        # the descent is the ascent, by rank-nullity
        rows["descent_bound"] = (
            "met",
            status(a is not None and a <= 2),
            f"descent={a}, range dims {ranks}, delta=1e-10",
            None,
        )
        rows["range_chain_stabilization"] = (
            "met",
            status(all(r == ranks[2] for r in ranks[3:])),
            f"range dims {ranks}",
            None,
        )
        sums = [sum_dim(powers[k][0], null2, tol) for k in range(1, 5)]
        rows["range_plus_null_square"] = ("met", status(sums == [n] * 4), None, None)
    else:
        for cid in (
            "descent_bound",
            "range_chain_stabilization",
            "range_plus_null_square",
        ):
            rows[cid] = ("not_met", "not_checked", None, None)
    worst = float(max(meet_dim(r2, powers[k][1], tol) for k in range(1, 5)))
    rows["range_square_null_intersection"] = ("none", status(worst == 0), None, worst)
    rs, ns = _cut_bases(h[:, None] * m, base, 2, tol)
    rows["symbol_operator_decomposition"] = (
        "none",
        status(sum_dim(rs, ns, tol) == n),
        None,
        None,
    )
    dim_sum = sum_dim(r2, null2, tol)
    dim_meet = meet_dim(r2, null2, tol)
    rows["square_sum_dense"] = (
        "none",
        status(dim_sum == n and dim_meet == 0),
        f"dim sum={dim_sum}, dim intersection={dim_meet} "
        "(density read as equality in finite dimensions)",
        None,
    )
    ergodic = (
        "one_minus_t_ascent",
        "one_minus_t_adjoint_ascent",
        "one_minus_t_direct_sum",
        "ergodic_invertibility",
        "ergodic_bn_convergence",
        "ergodic_cesaro_limit",
    )
    if not contraction_criterion(t, ctx.phi)[1]:
        rows.update((cid, ("not_met", "not_checked", None, None)) for cid in ergodic)
        return rows
    imt = np.eye(n) - m
    a1 = dense_ascent(imt, tol=tol)
    a2 = dense_ascent(pairing_adjoint(imt, t.space.weights), tol=tol)
    rng_imt, nul_imt = range_null(imt, tol)
    dim_r = rng_imt.shape[1]
    direct = dim_r + nul_imt.shape[1] == n and meet_dim(rng_imt, nul_imt, tol) == 0
    s = np.linalg.svd(imt, compute_uv=False)
    full_rank = bool(s[-1] > tol * s[0]) if s[0] > 0 else False
    # the solve for the probe columns either reproduces them or it does not
    fs = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 100))
    try:
        sol = np.linalg.solve(imt, fs)
        gap = np.max(np.abs(imt @ sol - fs))
        invertible = bool(gap <= 1e-6 * (1.0 + np.max(np.abs(fs))))
    except np.linalg.LinAlgError:
        invertible = False
    basis = np.hstack([rng_imt, nul_imt])
    limit_residual = None
    if basis.shape[1] == n:
        limit = nul_imt @ np.linalg.solve(basis, fs)[dim_r:]
        limit_residual = float(np.max(np.abs(m @ limit - limit), initial=0.0))
    rows.update(
        one_minus_t_ascent=(
            "met",
            status(a1 is not None and a1 <= 1),
            f"ascent={a1}",
            None,
        ),
        one_minus_t_adjoint_ascent=(
            "met",
            status(a2 is not None and a2 <= 1),
            f"ascent={a2} (bilinear pairing adjoint)",
            None,
        ),
        one_minus_t_direct_sum=(
            "met",
            status(direct),
            f"dims {dim_r}+{nul_imt.shape[1]} of {n}",
            None,
        ),
        ergodic_invertibility=(
            "met",
            status(invertible == full_rank),
            f"solve route invertible={invertible}, full range at tolerance={full_rank}",
            float(s[-1] / s[0]) if s[0] > 0 else 0.0,
        ),
        ergodic_bn_convergence=("met",),
        ergodic_cesaro_limit=("met", limit_residual),
    )
    return rows


class TestPassAgainstPublicRoutes:
    """Every structure row equals the one rebuilt from the dense routes, at
    the default rank tolerance and at a coarse one, where a sum's cut
    relative to its largest singular value decides dimensions. The pass
    takes the residuals of ergodic_invertibility and ergodic_cesaro_limit
    from the per-block 2 x 2 cores of I - T, the reference from the dense
    I - T, so those two agree to rounding; every other field is equal bit
    for bit."""

    @staticmethod
    def _check(t, ctx, tol, seed):
        got = {
            r.claim_id: (r.hypothesis, r.status, r.detail, r.residual)
            for r in verify_structure_theorems(t, ctx.phi, tol=tol, seed=seed)
        }
        want = reference_rows(t, ctx, tol, seed)
        assert got.keys() == want.keys()
        for cid, row in want.items():
            have = got[cid]
            if len(row) < 4:
                # partial rows: the hypothesis, then the Cesaro limit residual
                have = (have[0], have[3])[: len(row)]
            if cid in ("ergodic_invertibility", "ergodic_cesaro_limit"):
                # an exact zero must stay one: the floor is below rounding
                # on the O(1) values these residuals take
                close = pytest.approx(row[-1], rel=1e-12, abs=1e-15)
                assert have[-1] == close, (cid, t.h, tol)
                have, row = have[:-1], row[:-1]
            assert have == row, (cid, t.h, tol)
        return got

    @pytest.mark.parametrize("tol", [1e-8, 0.25])
    def test_reference_scenarios(self, r1, r3, r4, tol):
        for seed, t in enumerate((r1, r3, r4)):
            self._check(t, OrliczContext(t.space, power_scaled(2)), tol, seed)

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        for i in range(100):
            n_atoms = int(rng.integers(2, 65))
            n_blocks = int(rng.integers(1, min(n_atoms, 12) + 1))
            s = generate_well_conditioned_instance(
                500 + i, n_atoms, n_blocks, PROFILES[i % len(PROFILES)]
            )
            for tol in (1e-8, 0.25):
                self._check(s.operator(), s.context(), tol, i)

    def test_tiny_weights(self):
        # w * 1e-200 squares to 0, so block norms are taken on each block's
        # entries over its largest one: T keeps its rank, as in the dense
        # reference, and T^2 underflows to 0 on both routes
        s = generate_well_conditioned_instance(5, 12, 3, "contracting_h")
        t = WctOperator(s.u, s.w * 1e-200, s.operator().e)
        got = self._check(t, s.context(), 1e-8, 0)
        assert got["ascent_bound"][2].startswith("ascent=2, kernel dims [0, 9, 12,")

    def test_compressed_instance_with_trivial_kernel(self):
        # a 48-atom instance of 8 blocks of 2 or more atoms (2 x 2 cores, 16
        # dimensions in all) whose I - T has largest singular value 3.36: at
        # tol 0.5 the cut 1.68 passes the trivial value 1, so the 32 trivial
        # directions join the kernel and the Cesaro limit adds the part of f
        # outside the cores
        s = generate_well_conditioned_instance(16, 48, 8, "nilpotent_h")
        t = s.operator()
        sizes = np.bincount(t.e._labels)
        assert sizes.size == 8 and np.minimum(sizes, 2).sum() == 16
        got = self._check(t, s.context(), 0.5, 0)
        assert got["ergodic_cesaro_limit"][0] == "met"
        assert got["one_minus_t_direct_sum"][2] == "dims 7+41 of 48"


_BLOCK_KINDS = (
    "generic", "one_atom", "w_zero", "u_zero", "parallel", "nilpotent", "near_one"
)


@st.composite
def _block_scenarios(draw):
    """Scenarios of at most 48 atoms built block by block, each block of one
    kind: generic, one atom, w or u vanishing, w_B parallel to (u mu)_B
    (rho_B = 0), h_B = 0 exactly (w pairs x, -x on a block where mu and u
    are constant), or h_B = 1 - 10^-d with d in [2, 3]. Other symbols are
    +-[0.2, 0.9], and on a quarter of the draws the first block expands
    (h_B in [1.1, 2]), so the contraction criterion fails. A quarter of the
    partitions are one block over the whole space, the rest 2-6 blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    whole, expand = rng.random(2) < 0.25
    kinds = list(rng.choice(_BLOCK_KINDS, 1 if whole else int(rng.integers(2, 7))))
    kinds = ["generic" if k == "one_atom" and whole else k for k in kinds]
    mu, u, w = [], [], []
    for i, kind in enumerate(kinds):
        size = 1 if kind == "one_atom" else int(rng.integers(2, 49 if whole else 9))
        mu_b, u_b, w_b = rng.uniform(0.5, 2.0, (3, size))
        if kind == "nilpotent":
            mu_b[:], u_b[:] = mu_b[0], u_b[0]
            half = size // 2
            w_b[:] = 0.0
            w_b[: 2 * half : 2], w_b[1 : 2 * half : 2] = u_b[:half], -u_b[:half]
        elif kind == "parallel":
            w_b = u_b * mu_b
        elif kind == "w_zero":
            w_b[:] = 0.0
        elif kind == "u_zero":
            u_b[:] = 0.0
        if kind in ("generic", "one_atom", "parallel", "near_one"):
            if kind == "near_one":
                target = 1.0 - 10.0 ** -rng.uniform(2.0, 3.0)
            elif expand and i == 0:
                target = rng.uniform(1.1, 2.0)
            else:
                target = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.9)
            w_b *= target / ((mu_b * u_b * w_b).sum() / mu_b.sum())
        mu.append(mu_b), u.append(u_b), w.append(w_b)
    sizes = np.cumsum([0] + [b.size for b in mu])
    blocks = tuple(tuple(range(a, b)) for a, b in zip(sizes, sizes[1:]))
    n = int(sizes[-1])
    space = FiniteMeasureSpace.from_weights(np.concatenate(mu))
    u, w = np.concatenate(u), np.concatenate(w)
    return Scenario(space, Partition(blocks, n), u, w, power_scaled(2.0))


class TestBlockPassAgainstReference:
    """The block pass against ``reference_rows`` on crafted block kinds:
    Hypothesis draws (derandomized, 40 per tolerance, about 2.5 s in all)
    whose values are continuous, so no singular value lands on a cut."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(s=_block_scenarios())
    @pytest.mark.parametrize("tol", [1e-8, 0.25, 0.5])
    def test_rows_match_the_reference(self, s, tol):
        TestPassAgainstPublicRoutes._check(s.operator(), s.context(), tol, 0)
