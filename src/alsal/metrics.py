"""Shared loss/accuracy metrics and the cross-validation splitter.

`rmse` and `boundary_accuracy` check and convert their inputs on every
call. A training loop that scores every epoch against the same truths
uses a `Scorer` instead: it takes the truths once, computes their boundary
signs once, and writes into scratch arrays it owns, with the same
arithmetic as the two checked functions, which call the same code.
"""

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


def residual_rmse(resid, out=None):
    """RMSE from the residuals preds - truths. The squares are written into
    out when it is given (resid itself is allowed), else into a new array."""
    sq = np.square(resid, out=out)
    # np.mean's own arithmetic, without its Python wrapper
    return float(np.sqrt(np.add.reduce(sq, axis=None) / sq.size))


def _accuracy(preds, truth_signs, boundary, scratch=None, same=None):
    """Fraction of preds whose boundary sign equals truth_signs; the signs
    of preds go into scratch and the matches into same, when given."""
    side = np.sign(np.subtract(preds, boundary, out=scratch), out=scratch)
    same = np.equal(side, truth_signs, out=same)
    # equal to np.mean(same): the count is exact, and so is its division
    return float(np.count_nonzero(same) / same.size)


def rmse(preds, truths):
    preds, truths = _check_pair(preds, truths)
    return residual_rmse(preds - truths)


def boundary_accuracy(preds, truths, boundary=0.0):
    """Fraction of pairs on the same side of the boundary.

    sign(0) = 0: a prediction exactly on the boundary matches only a truth
    exactly on the boundary.
    """
    preds, truths = _check_pair(preds, truths)
    return _accuracy(preds, np.sign(truths - boundary), boundary)


class Scorer:
    """RMSE and boundary accuracy against one fixed set of truths.

    The truths are checked, and their boundary signs computed, once; each
    call then checks only the shape of its float64 predictions and
    overwrites the scorer's scratch arrays. A call gives what
    `rmse(preds, truths)` and `boundary_accuracy(preds, truths, boundary)`
    give, bit for bit.
    """

    def __init__(self, truths, boundary=0.0):
        self.truths = np.asarray(truths, dtype=float)
        if self.truths.size == 0:
            raise MetricError("empty input")
        self.boundary = boundary
        self.signs = np.sign(self.truths - boundary)
        self._scratch = np.empty_like(self.truths)
        self._same = np.empty(self.truths.shape, dtype=bool)

    def __call__(self, preds):
        """(RMSE, boundary accuracy) of preds."""
        if preds.shape != self.truths.shape:
            raise MetricError(f"length mismatch: {preds.shape} vs "
                              f"{self.truths.shape}")
        resid = np.subtract(preds, self.truths, out=self._scratch)
        loss = residual_rmse(resid, resid)
        return loss, _accuracy(preds, self.signs, self.boundary,
                               self._scratch, self._same)


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
