import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsal.metrics import (FoldSplit, MetricError, Scorer, kfold_split,
                           residual_rmse)
from oracles import boundary_accuracy, rmse

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


def scores(truths, rows, boundary=0.0):
    """(loss, accuracy) per row of a Scorer that was given the rows, one
    epoch each, through add."""
    scorer = Scorer(truths, len(rows), boundary)
    for row in rows:
        scorer.add(np.asarray(row, dtype=float))
    return list(zip(scorer.loss.tolist(), scorer.accuracy.tolist()))


class TestScorer:
    """A Scorer gives rmse and boundary_accuracy's values with ==, epoch
    after epoch on its reused work arrays."""

    @pytest.mark.parametrize("boundary", [0.0, 0.3, -0.5])
    @pytest.mark.parametrize("n", [1, 7, 129, 1071])
    def test_equals_checked_functions(self, n, boundary, rng):
        t = rng.normal(size=n)
        rows = rng.normal(size=(3, n))
        assert scores(t, rows, boundary) == [
            (rmse(p, t), boundary_accuracy(p, t, boundary)) for p in rows]

    @pytest.mark.parametrize("boundary", [0.0, -0.0, 0.5])
    def test_zeros_and_boundary_hits(self, boundary):
        grid = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nextafter(0.0, 1)]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        assert scores(t, [p, t], boundary) == [
            (rmse(p, t), boundary_accuracy(p, t, boundary)), (0.0, 1.0)]
        assert scores([0.0], [[-0.0]], boundary) == [(0.0, 1.0)]

    def test_checks(self):
        with pytest.raises(MetricError, match="empty input"):
            Scorer([], 1)
        with pytest.raises(MetricError, match="length mismatch"):
            Scorer([1.0, 2.0], 1).add(np.zeros(3))
        with pytest.raises(MetricError, match="length mismatch"):
            Scorer([1.0, 2.0], 1).add(np.zeros(1))  # would broadcast

    def test_residual_rmse_keeps_its_input_unless_given_it(self, rng):
        p, t = rng.normal(size=11), rng.normal(size=11)
        resid = p - t
        kept = resid.copy()
        assert residual_rmse(resid, np.empty(11)) == rmse(p, t)
        np.testing.assert_array_equal(resid, kept)
        assert residual_rmse(resid, resid) == rmse(p, t)
        with pytest.raises(TypeError):
            residual_rmse(resid)  # no allocating form


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


# (train, test) index pairs into a list of 30 positions
BAD_SPLITS = {
    "floats": ((1.5, 2.7), (3,)),
    "negative": ((0, 1), (-1,)),
    "past_the_end": ((0, 1), (30,)),
    "repeat_in_train": ((0, 1, 1), (2,)),
    "repeat_in_test": ((0,), (2, 2)),
    "overlap": ((0, 1, 2), (2, 3)),
    "two_dimensional": (((0, 1), (2, 3)), (4,)),
    "empty_train": ((), (0, 1)),
    "empty_test": ((0, 1), ()),
}


class TestFoldSplitChecks:
    """A split that does not index distinct positions of the list, apart
    between train and test and on both sides, raises IndexError in both
    trainers before any epoch runs."""

    def test_indices(self):
        train, test = FoldSplit((4, 0, 29), [7]).indices(30)
        assert train.dtype == test.dtype == np.intp
        assert train.tolist() == [4, 0, 29] and test.tolist() == [7]

    @pytest.mark.parametrize("case", sorted(BAD_SPLITS))
    def test_rejected_before_training(self, case, monkeypatch):
        import alsal.als as als_mod
        import alsal.mlp as mlp_mod
        from alsal.data import generate_synthetic
        split = FoldSplit(*BAD_SPLITS[case])
        for mod, name in ((als_mod, "als_epoch"), (mlp_mod, "backward")):
            monkeypatch.setattr(mod, name, lambda *a: pytest.fail(name))
        matrix, _ = generate_synthetic(6, 5, 2, 0.1, seed=0)
        with pytest.raises(IndexError):
            als_mod.train_als(matrix, als_mod.AlsConfig(d=2, epochs=3), split)
        inputs = np.zeros((30, 4))
        with pytest.raises(IndexError):
            mlp_mod.train_mlp(mlp_mod.init_mlp([4, 3, 1], seed=0), inputs,
                              np.zeros(30), mlp_mod.MlpTrainConfig(epochs=3),
                              mlp_mod.LossConfig(), eval_split=split)
        with pytest.raises(IndexError):
            split.indices(30)


class TestKfoldSplit:
    def test_singleton_folds(self):
        splits = kfold_split(10, 10, seed=0)
        assert len(splits) == 10
        assert all(len(s.test_indices) == 1 for s in splits)

    def test_1190_positions_ten_folds(self):
        splits = kfold_split(1190, 10, seed=0)
        assert [len(s.test_indices) for s in splits] == [119] * 10

    def test_deterministic(self):
        for a, b in zip(*(kfold_split(57, 5, seed=9) for _ in range(2))):
            np.testing.assert_array_equal(a.train_indices, b.train_indices)
            np.testing.assert_array_equal(a.test_indices, b.test_indices)

    def test_splits_hold_intp_arrays(self):
        given = FoldSplit((0, 2), [1])
        for split in (given, *kfold_split(7, 2, seed=0)):
            for a in (split.train_indices, split.test_indices):
                assert isinstance(a, np.ndarray) and a.dtype == np.intp
        assert given.train_indices.tolist() == [0, 2]
        assert FoldSplit((0, 1), ()).test_indices.size == 0

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
