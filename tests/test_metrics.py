import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsal.metrics import (MetricError, boundary_accuracy, kfold_split, rmse)

finite_lists = st.lists(st.floats(-100, 100), min_size=1, max_size=30)


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_residual(self):
        assert rmse([1, 1], [0, 0]) == pytest.approx(1.0)

    def test_direct(self):
        assert rmse([1, 2], [0, 0]) == pytest.approx(math.sqrt(2.5))

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            rmse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            rmse([1, 2], [1])

    @given(finite_lists, st.floats(-10, 10))
    def test_symmetry_and_shift_invariance(self, vals, c):
        p = np.array(vals)
        t = p[::-1].copy()
        assert rmse(p, t) == pytest.approx(rmse(t, p))
        assert rmse(p + c, t + c) == pytest.approx(rmse(p, t), abs=1e-9)


class TestMeansEqualNpMean:
    """rmse and boundary_accuracy skip np.mean's wrapper; the result must
    still be np.mean's, bit for bit."""

    @staticmethod
    def np_mean_rmse(p, t):
        return float(np.sqrt(np.mean((np.asarray(p, float)
                                      - np.asarray(t, float)) ** 2)))

    @staticmethod
    def np_mean_accuracy(p, t, b):
        p, t = np.asarray(p, float), np.asarray(t, float)
        return float(np.mean(np.sign(p - b) == np.sign(t - b)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 127, 128, 129, 1071,
                                   1190, 4097])
    def test_random_inputs(self, n, rng):
        p, t = rng.normal(size=n), rng.normal(size=n)
        assert rmse(p, t) == self.np_mean_rmse(p, t)
        for b in (0.0, 0.3):
            assert boundary_accuracy(p, t, b) == self.np_mean_accuracy(p, t, b)

    def test_two_dimensional(self, rng):
        p, t = rng.normal(size=(13, 7)), rng.normal(size=(13, 7))
        assert rmse(p, t) == self.np_mean_rmse(p, t)
        assert boundary_accuracy(p, t) == self.np_mean_accuracy(p, t, 0.0)

    def test_exact_boundary_hits_and_negative_zero(self):
        grid = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nextafter(0.0, 1)]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        for b in (-0.5, 0.0, 0.5):
            assert boundary_accuracy(p, t, b) == self.np_mean_accuracy(p, t, b)
        assert rmse(p, t) == self.np_mean_rmse(p, t)
        assert boundary_accuracy([-0.0], [0.0]) == 1.0
        assert rmse([-0.0], [0.0]) == 0.0

    def test_size_one(self):
        assert rmse([0.3], [-0.1]) == self.np_mean_rmse([0.3], [-0.1])
        assert boundary_accuracy([0.3], [-0.1]) == 0.0
        assert type(boundary_accuracy([0.3], [0.1])) is float


class TestBoundaryAccuracy:
    def test_two_of_three(self):
        assert boundary_accuracy([0.2, -0.3, 0.5], [0.1, 0.4, 0.7]) \
            == pytest.approx(2 / 3)

    def test_perfect(self):
        assert boundary_accuracy([0.3, -0.3], [0.3, -0.3]) == 1.0

    def test_exact_boundary_matches_only_boundary(self):
        assert boundary_accuracy([0.0], [0.5]) == 0.0
        assert boundary_accuracy([0.0], [0.0]) == 1.0

    def test_nonzero_boundary(self):
        assert boundary_accuracy([1.2, 0.8], [1.5, 1.5], boundary=1.0) == 0.5

    @given(finite_lists)
    def test_monotone_transform_invariance(self, vals):
        # x -> x + x^3 is strictly increasing and fixes 0
        p = np.array(vals)
        t = -p
        f = lambda v: v + v ** 3
        assert boundary_accuracy(p, t) == boundary_accuracy(f(p), f(t))


class TestKfoldSplit:
    def test_singleton_folds(self):
        splits = kfold_split(10, 10, seed=0)
        assert len(splits) == 10
        assert all(len(s.test_indices) == 1 for s in splits)

    def test_1190_positions_ten_folds(self):
        splits = kfold_split(1190, 10, seed=0)
        assert [len(s.test_indices) for s in splits] == [119] * 10

    def test_deterministic(self):
        assert kfold_split(57, 5, seed=9) == kfold_split(57, 5, seed=9)

    def test_remainder_spread_from_fold_zero(self):
        sizes = [len(s.test_indices) for s in kfold_split(13, 5, seed=1)]
        assert sizes == [3, 3, 3, 2, 2]

    @pytest.mark.parametrize("n,k", [(10, 3), (57, 5), (13, 13)])
    def test_partition(self, n, k):
        splits = kfold_split(n, k, seed=4)
        seen = []
        for s in splits:
            assert set(s.train_indices).isdisjoint(s.test_indices)
            assert sorted(set(s.train_indices) | set(s.test_indices)) \
                == list(range(n))
            seen.extend(s.test_indices)
        assert sorted(seen) == list(range(n))

    def test_k_too_large(self):
        with pytest.raises(MetricError):
            kfold_split(5, 6, seed=0)

    def test_k_too_small(self):
        with pytest.raises(MetricError):
            kfold_split(5, 1, seed=0)
