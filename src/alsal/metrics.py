"""Shared loss/accuracy metrics, training curves and the cross-validation
splitter.

`rmse` and `boundary_accuracy` check and convert their inputs on every
call. Training loops score their history with a `Scorer` instead, a block
of epochs per pass, and get a `Curve`: an array per CSV column. A row-wise
`np.add.reduce` over a C-ordered block sums each row as a lone row is
summed, so each entry has the checked functions' bits; numpy does not
promise this, and the tests pin it. (An F-ordered block sums in another
order.)
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# epochs scored per pass; a block of 32 x 1,071 float64 is 274 KB
HISTORY_BLOCK = 32


class MetricError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Train and test indices into a list of positions, held as intp
    arrays; any integer sequences given are converted once, here."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        for name in ("train_indices", "test_indices"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.intp))


class Curve(NamedTuple):
    """A training curve, one array entry per epoch; the test columns are
    None when there is no test split."""

    epoch_or_round: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    train_accuracy: np.ndarray
    test_accuracy: np.ndarray

    @classmethod
    def scored(cls, start_epoch, train, test=None):
        """The curve that Scorers train and test (None without a test
        split) recorded, its epochs numbered from start_epoch."""
        return cls(np.arange(start_epoch, start_epoch + train.loss.size),
                   train.loss, None if test is None else test.loss,
                   train.accuracy, None if test is None else test.accuracy)

    def then(self, later):
        """This curve followed by `later`, column by column."""
        return Curve(*(None if a is None else np.concatenate((a, b))
                       for a, b in zip(self, later)))


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


def rmse(preds, truths):
    preds, truths = _check_pair(preds, truths)
    return residual_rmse(preds - truths)


def boundary_accuracy(preds, truths, boundary=0.0):
    """Fraction of pairs on the same side of the boundary.

    sign(0) = 0: a prediction exactly on the boundary matches only a truth
    exactly on the boundary.
    """
    preds, truths = _check_pair(preds, truths)
    same = np.sign(preds - boundary) == np.sign(truths - boundary)
    # equal to np.mean(same): the count is exact, and so is its division
    return float(np.count_nonzero(same) / same.size)


class Scorer:
    """RMSE and boundary accuracy of a curve's predictions against one fixed
    set of truths, with the bits of `rmse(preds, truths)` and
    `boundary_accuracy(preds, truths, boundary)`. The truths are checked,
    and their boundary signs computed, once.

    `add` copies each epoch's predictions into a row of `block`, and each
    full block, and the one that holds the last of `epochs` epochs, is
    scored into `loss` and `accuracy`. Accuracy tests sign(d) == truth
    sign, d = pred - boundary, as d * sign > 0 where the truth sign is +-1
    and d == 0 where it is 0, without the slow np.sign.
    """

    def __init__(self, truths, epochs, boundary=0.0):
        self.truths = np.asarray(truths, dtype=float)
        if self.truths.size == 0:
            raise MetricError("empty input")
        self.boundary = boundary
        self.signs = np.sign(self.truths - boundary)
        self._on_boundary = self.signs == 0
        shape = (max(1, min(HISTORY_BLOCK, epochs)), self.truths.size)
        self.block, self._scratch = np.empty(shape), np.empty(shape)
        self._matches = np.empty(shape, dtype=bool)
        self._hits = np.empty(shape, dtype=bool)
        self.loss, self.accuracy = np.empty(epochs), np.empty(epochs)
        self.scored = self.pending = 0

    def add(self, preds):
        """Copy the next epoch's predictions into the block, and score the
        block once it is full or holds the last epoch."""
        if preds.shape != self.truths.shape:
            raise MetricError(f"length mismatch: {preds.shape} vs "
                              f"{self.truths.shape}")
        self.block[self.pending] = preds
        self.pending += 1
        n, done = self.pending, self.scored
        if n == len(self.block) or done + n == self.loss.size:
            self.scored, self.pending = done + n, 0
            self._score_rows(self.block[:n], self.loss[done:done + n],
                             self.accuracy[done:done + n])

    def _score_rows(self, preds, loss, accuracy):
        n, k = preds.shape
        scratch, matches, hits = (self._scratch[:n], self._matches[:n],
                                  self._hits[:n])
        np.subtract(preds, self.truths, out=scratch)
        np.add.reduce(np.square(scratch, out=scratch), axis=1, out=loss)
        loss /= k
        np.sqrt(loss, out=loss)
        d = np.subtract(preds, self.boundary, out=scratch)
        np.equal(d, 0.0, out=hits)
        hits &= self._on_boundary
        np.greater(np.multiply(d, self.signs, out=d), 0.0, out=matches)
        matches |= hits
        np.divide(np.count_nonzero(matches, axis=1), k, out=accuracy)


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
    return [FoldSplit(np.concatenate(folds[:i] + folds[i + 1:]), fold)
            for i, fold in enumerate(folds)]
