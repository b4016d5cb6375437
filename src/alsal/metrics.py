"""Training curves, the curve scorer and the cross-validation splitter.

Training loops and the active-learning loop score their predictions with
a `Scorer`, a block of epochs (or rounds) per pass, and get a `Curve`: an
array per CSV column. Each entry has the bits of a lone row's RMSE and
boundary accuracy: a row-wise `np.add.reduce` over a C-ordered block sums
each row as a lone row is summed. numpy does not promise this, and the
tests pin it. (An F-ordered block sums in another order.)
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import as_positions

# epochs scored per pass; a block of 32 x 1,071 float64 is 274 KB
HISTORY_BLOCK = 32


class MetricError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Train and test indices into a list of positions, held as arrays of
    the values given; the trainers check them with `indices` against the
    list's length."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        for name in ("train_indices", "test_indices"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))

    def indices(self, size):
        """The train and test indices as intp arrays, checked against a
        list of `size` positions: 1-D integers in [0, size) (see
        `data.as_positions`), neither set empty, none repeated, none in
        both sets. Raises IndexError otherwise."""
        train = as_positions(self.train_indices, size)
        test = as_positions(self.test_indices, size)
        if not (train.size and test.size):
            raise IndexError("a fold split has an empty train or test side")
        # bincount, not np.unique: that imports numpy.ma, about 1 MB
        in_train = np.bincount(train, minlength=size)
        if (in_train.max(initial=0) > 1
                or np.bincount(test, minlength=size).max(initial=0) > 1):
            raise IndexError("a fold split repeats an index")
        if in_train[test].any():
            raise IndexError("a fold split's train and test indices overlap")
        return train, test


class Curve(NamedTuple):
    """A training curve, one array entry per epoch in each column."""

    epoch_or_round: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    train_accuracy: np.ndarray
    test_accuracy: np.ndarray

    @classmethod
    def scored(cls, start_epoch, train, test):
        """The curve that Scorers train and test recorded, its epochs
        numbered from start_epoch."""
        return cls(np.arange(start_epoch, start_epoch + train.loss.size),
                   train.loss, test.loss, train.accuracy, test.accuracy)

    def then(self, later):
        """This curve followed by `later`, column by column."""
        return Curve(*map(np.concatenate, zip(self, later)))


def residual_rmse(resid, out):
    """RMSE from the residuals preds - truths. The squares are written into
    out (resid itself is allowed)."""
    sq = np.square(resid, out=out)
    # np.mean's own arithmetic, without its Python wrapper
    return float(np.sqrt(np.add.reduce(sq, axis=None) / sq.size))


class Scorer:
    """RMSE and boundary accuracy of a curve's predictions against one fixed
    set of truths. A row's RMSE is sqrt(mean((preds - truths)**2)), with
    `residual_rmse`'s bits; its accuracy is the fraction of predictions on
    the same side of `boundary` as their truths, where sign(0) = 0: a
    prediction exactly on the boundary matches only a truth exactly on it.
    The truths are checked, and their boundary signs computed, once.

    `add` copies each epoch's predictions into a row of `block`, and each
    full block, and the one that holds the last of `epochs` epochs, is
    scored into `loss` and `accuracy`. Accuracy tests sign(pred - boundary)
    == truth sign by comparing the predictions with the boundary, without
    the slow np.sign: pred > boundary where the truth sign is +1, pred <
    boundary where it is -1 and pred == boundary where it is 0 (a float
    difference is zero only when its operands are equal). The loss is then
    computed in place in the block, which the next epoch overwrites anyway.
    """

    def __init__(self, truths, epochs, boundary=0.0):
        self.truths = np.asarray(truths, dtype=float)
        if self.truths.size == 0:
            raise MetricError("empty input")
        self.boundary = boundary
        signs = np.sign(self.truths - boundary)
        self._above, self._below = signs > 0, signs < 0
        self._on_boundary = signs == 0
        shape = (max(1, min(HISTORY_BLOCK, epochs)), self.truths.size)
        self.block = np.empty(shape)
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
        matches, hits = self._matches[:n], self._hits[:n]
        b = self.boundary
        np.greater(preds, b, out=matches)
        matches &= self._above
        np.less(preds, b, out=hits)
        hits &= self._below
        matches |= hits
        np.equal(preds, b, out=hits)
        hits &= self._on_boundary
        matches |= hits
        np.divide(np.count_nonzero(matches, axis=1), k, out=accuracy)
        np.subtract(preds, self.truths, out=preds)
        np.add.reduce(np.square(preds, out=preds), axis=1, out=loss)
        loss /= k
        np.sqrt(loss, out=loss)


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
