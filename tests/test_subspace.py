import numpy as np
import pytest

from orlicz_wct import (
    OrliczContext,
    SubspaceBasis,
    ascent_of,
    descent_of,
    matrix_of,
    null_space,
    power_scaled,
    range_space,
    subspace_intersection,
    subspace_sum,
    verify_structure_theorems,
)
from orlicz_wct.harness import PROFILES, generate_well_conditioned_instance
from orlicz_wct.subspace import powers_well_conditioned

from conftest import random_operator


def projector(basis: SubspaceBasis) -> np.ndarray:
    return basis.vectors @ basis.vectors.T


def line(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return np.outer(v, v) / (v @ v)


class TestBases:
    def test_r1_null_space(self, r1):
        # oracle: solve (f1 + f2)/2 = 0, the line through (1, -1)
        basis = null_space(matrix_of(r1))
        assert basis.dim == 1
        np.testing.assert_allclose(projector(basis), line([1.0, -1.0]), atol=1e-12)

    def test_identity_has_trivial_kernel(self):
        assert null_space(np.eye(4)).dim == 0

    def test_zero_matrix_kernel_is_everything(self):
        assert null_space(np.zeros((3, 3))).dim == 3
        assert range_space(np.zeros((3, 3))).dim == 0

    def test_r1_range(self, r1):
        # oracle: both columns are multiples of (1, -1)
        basis = range_space(matrix_of(r1))
        assert basis.dim == 1
        np.testing.assert_allclose(projector(basis), line([1.0, -1.0]), atol=1e-12)

    def test_r3_range(self, r3):
        basis = range_space(matrix_of(r3))
        assert basis.dim == 1
        np.testing.assert_allclose(projector(basis), line([1.0, 1.0]), atol=1e-12)

    def test_rank_nullity(self):
        for seed in range(30):
            m = matrix_of(random_operator(seed))
            n = m.shape[0]
            assert null_space(m).dim + range_space(m).dim == n

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-8)
        with pytest.raises(ValueError, match="ambient"):
            SubspaceBasis(np.ones((1, 2)) / np.sqrt(2), 1e-8)

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            null_space(np.eye(2), tol=0.0)


class TestAscentDescent:
    def test_r1_ascent_two(self, r1):
        # oracle: kernel dims 0, 1, 2, 2, ... because the square vanishes
        assert ascent_of(matrix_of(r1)) == 2
        assert descent_of(matrix_of(r1)) == 2

    def test_r3_ascent_one(self, r3):
        assert ascent_of(matrix_of(r3)) == 1
        assert descent_of(matrix_of(r3)) == 1

    def test_identity_ascent_zero(self):
        assert ascent_of(np.eye(3)) == 0
        assert descent_of(np.diag([1.0, 2.0, 3.0])) == 0

    def test_exceeds_k_max(self):
        shift = np.diag(np.ones(9), 1)  # nilpotent of index 10
        assert ascent_of(shift, k_max=3) is None
        assert descent_of(shift, k_max=3) is None

    def test_chain_monotone_and_stabilizes(self):
        from orlicz_wct.subspace import _rank_scan

        for seed in range(40):
            t = random_operator(seed, well_conditioned=True)
            m = matrix_of(t)
            n = m.shape[0]
            ranks = _rank_scan(m, 1e-8, np.linalg.svd, 8)[0][:9]
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
        for seed in range(40):
            m = matrix_of(random_operator(seed, well_conditioned=True))
            a, d = ascent_of(m), descent_of(m)
            assert a is not None and d is not None
            assert a == d


class TestSumsAndIntersections:
    def test_orthogonal_lines_span_plane(self):
        a = SubspaceBasis(np.array([[1.0], [1.0]]) / np.sqrt(2), 1e-8)
        b = SubspaceBasis(np.array([[1.0], [-1.0]]) / np.sqrt(2), 1e-8)
        assert subspace_sum(a, b).dim == 2
        assert subspace_intersection(a, b).dim == 0

    def test_sum_idempotent(self):
        v = SubspaceBasis(np.array([[1.0], [2.0]]) / np.sqrt(5), 1e-8)
        assert subspace_sum(v, v).dim == 1
        assert subspace_intersection(v, v).dim == 1

    def test_sum_with_trivial(self):
        v = SubspaceBasis(np.array([[1.0], [2.0]]) / np.sqrt(5), 1e-8)
        zero = SubspaceBasis(np.zeros((2, 0)), 1e-8)
        assert subspace_sum(v, zero).dim == 1

    def test_r1_range_meets_kernel_on_the_diagonal_line(self, r1):
        # oracle: both subspaces equal the line through (1, -1); only the
        # square's range is barred from touching kernels
        m = matrix_of(r1)
        inter = subspace_intersection(range_space(m), null_space(m))
        assert inter.dim == 1
        np.testing.assert_allclose(projector(inter), line([1.0, -1.0]), atol=1e-10)

    def test_dimension_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            qa, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            qb, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            a = SubspaceBasis(qa, 1e-8)
            b = SubspaceBasis(qb, 1e-8)
            assert (
                subspace_intersection(a, b).dim
                == a.dim + b.dim - subspace_sum(a, b).dim
            )

    def test_dimension_mismatch(self):
        a = SubspaceBasis(np.eye(2), 1e-8)
        b = SubspaceBasis(np.eye(3), 1e-8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            subspace_sum(a, b)
        with pytest.raises(ValueError, match="dimension mismatch"):
            subspace_intersection(a, b)


def by_id(rows):
    return {r.claim_id: r for r in rows}


class TestStructureTheorems:
    def test_nilpotent_reference(self, r1):
        ctx = OrliczContext(r1.space, power_scaled(2))
        rows = by_id(verify_structure_theorems(r1, ctx))
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
        ctx = OrliczContext(r3.space, power_scaled(2))
        rows = by_id(verify_structure_theorems(r3, ctx))
        assert all(r.status == "pass" for r in rows.values()), {
            k: (v.status, v.detail) for k, v in rows.items() if v.status != "pass"
        }
        # the Cesaro limit is the zero vector here, and it is invariant
        assert rows["ergodic_cesaro_limit"].residual <= 1e-10

    def test_expanding_reference(self, r4):
        ctx = OrliczContext(r4.space, power_scaled(2))
        rows = by_id(verify_structure_theorems(r4, ctx))
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
            rows = verify_structure_theorems(t, s.context(), seed=i)
            bad = [r for r in rows if r.status == "fail"]
            assert not bad, [(r.claim_id, r.detail) for r in bad]


class TestFactorOnce:
    """The structure pass forms each factorization once and reports the same
    chains as the standalone scans and a hand-written power loop."""

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
        for t in operators:
            keys.clear()
            verify_structure_theorems(t, OrliczContext(t.space, power_scaled(2)))
            assert keys
            repeats = {k[1:] for k in keys if keys.count(k) > 1}
            assert not repeats, (t.h, repeats)

    @staticmethod
    def _loop_ranks(m, tol=1e-8, k_max=6):
        # reference: rank of each sequential power at its power-scaled cut
        smax = float(np.linalg.svd(m, compute_uv=False)[0])
        ranks, power = [m.shape[0]], np.eye(m.shape[0])
        for k in range(1, k_max + 1):
            power = power @ m
            s = np.linalg.svd(power, compute_uv=False)
            cut = max(tol * s[0], 1e-11 * smax**k if smax > 0 else 0.0)
            ranks.append(int(np.sum(s > cut)))
        return ranks

    def test_rows_match_standalone_scans(self):
        for seed in range(50):
            t = random_operator(seed, well_conditioned=True)
            m = matrix_of(t)
            n = m.shape[0]
            ctx = OrliczContext(t.space, power_scaled(2))
            rows = by_id(verify_structure_theorems(t, ctx))
            ranks = self._loop_ranks(m)
            detail = rows["ascent_bound"].detail
            assert f"ascent={ascent_of(m)}," in detail
            assert f"kernel dims {[n - r for r in ranks]}" in detail
            assert rows["null_chain_stabilization"].detail == (
                f"kernel dims {[n - r for r in ranks]}"
            )
            if rows["descent_bound"].status != "not_checked":
                detail = rows["descent_bound"].detail
                assert f"descent={descent_of(m)}," in detail
                assert f"range dims {ranks}," in detail
                assert rows["range_chain_stabilization"].detail == f"range dims {ranks}"
            stable = next(k for k in range(6) if ranks[k] == ranks[k + 1])
            assert f"ascent={stable}," in rows["ascent_bound"].detail


class TestConditioning:
    def test_well_conditioned_detects_threshold_straddlers(self):
        # singular values a hair above and below the rank cut
        m = np.diag([1.0, 5e-9])
        assert not powers_well_conditioned(m, k_max=1, tol=1e-8)
        assert powers_well_conditioned(np.diag([1.0, 0.5]), k_max=4, tol=1e-8)
