"""Shared loss/accuracy metrics and the cross-validation splitter."""

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class FoldSplit:
    train_indices: tuple
    test_indices: tuple


@dataclass(frozen=True)
class EvalPoint:
    """One point of a training curve: RMSE losses and boundary accuracies,
    the test ones None when there is no test split."""

    epoch_or_round: int
    train_loss: float
    test_loss: float = None
    train_accuracy: float = None
    test_accuracy: float = None


def _check_pair(preds, truths):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape:
        raise MetricError(f"length mismatch: {preds.shape} vs {truths.shape}")
    if preds.size == 0:
        raise MetricError("empty input")
    return preds, truths


def rmse(preds, truths):
    preds, truths = _check_pair(preds, truths)
    sq = (preds - truths) ** 2
    # np.mean's own arithmetic, without its Python wrapper
    return float(np.sqrt(np.add.reduce(sq, axis=None) / sq.size))


def boundary_accuracy(preds, truths, boundary=0.0):
    """Fraction of pairs on the same side of the boundary.

    sign(0) = 0: a prediction exactly on the boundary matches only a truth
    exactly on the boundary.
    """
    preds, truths = _check_pair(preds, truths)
    same = np.sign(preds - boundary) == np.sign(truths - boundary)
    # equal to np.mean(same): the count is exact, and so is its division
    return float(np.count_nonzero(same) / same.size)


def kfold_split(n_positions, k, seed):
    """Seeded k-fold partition; fold sizes differ by at most one.

    Remainder positions go one per fold starting from fold 0.
    """
    if k < 2:
        raise MetricError("k must be >= 2")
    if k > n_positions:
        raise MetricError(f"k = {k} exceeds n_positions = {n_positions}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_positions)
    folds = np.array_split(perm, k)
    out = []
    for i, fold in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        out.append(FoldSplit(tuple(train.tolist()), tuple(fold.tolist())))
    return out
