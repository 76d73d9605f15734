import numpy as np
import pytest

from orlicz_wct import FiniteMeasureSpace, Partition, ess_sup, support


class TestFiniteMeasureSpace:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="atom weight must be > 0"):
            FiniteMeasureSpace.from_weights([1.0, 0.0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            FiniteMeasureSpace(("a", "a"), np.array([1.0, 2.0]))

    def test_function_length_check(self, two_atom_space):
        with pytest.raises(ValueError, match="shape"):
            two_atom_space.function([1.0, 2.0, 3.0])

    def test_total_mass(self, r2_space):
        assert r2_space.total_mass == 4.0


class TestPartition:
    def test_disjointness_checked_before_range(self):
        # a repeated index reports disjointness even when also out of range
        with pytest.raises(ValueError, match="blocks must be disjoint"):
            Partition(((1,), (1, 2)), 2)

    def test_empty_block(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition(((0, 1), ()), 2)

    def test_coverage(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(((0,),), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Partition(((0, 3),), 2)

    def test_helpers(self):
        assert Partition.single_block(3).n_blocks == 1
        assert Partition.finest(3).n_blocks == 3


class TestSupport:
    def test_zero_function(self):
        assert support([0.0, 0.0], eps=0.0) == set()

    def test_nowhere_zero(self):
        assert support([1.0, -1.0], eps=1e-12) == {0, 1}

    def test_threshold(self):
        assert support([1e-9, 3.0], eps=1e-8) == {1}

    def test_default_eps_is_relative(self):
        # 1e-10 * (1 + max|f|) swallows roundoff-sized entries
        assert support([1e-12, 1.0]) == {1}

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            support([1.0], eps=-1.0)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(-1, 1, 12)
        prev = support(f, 0.0)
        for eps in (1e-3, 1e-2, 1e-1, 0.5):
            cur = support(f, eps)
            assert cur <= prev
            prev = cur

    def test_complement_partition(self):
        f = np.array([0.0, 2.0, 0.0, -1.0])
        s = support(f, 0.0)
        assert s | (set(range(4)) - s) == set(range(4))


class TestEssSup:
    def test_examples(self):
        assert ess_sup([1.0, -3.0]) == 3.0
        assert ess_sup([0.0, 0.0]) == 0.0
        assert ess_sup([0.5, 0.5]) == 0.5

    def test_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = rng.uniform(-2, 2, 8)
            g = rng.uniform(-2, 2, 8)
            assert ess_sup(f * g) <= ess_sup(f) * ess_sup(g) + 1e-12

