"""Masked latent-factor model trained by alternating gradient descent.

Factorizes an m x n response matrix into cell embeddings x (m x d) and
molecule embeddings w (d x n), minimizing squared error over observed
positions only. No regularization term; the loss is

    0.5 * sum over mask==1 of (x @ w - y)^2

The gradient and epoch functions also take stacks of problems: leading
axes of x, w and the matrix's values and mask are batch axes, and each
slice is computed exactly as it would be on its own.

`train_als`, the one loop that steps ALS epochs, trains a `MaskedMatrix`,
one problem or a stack, in place (`als_epoch` into an `EpochWork`) and,
given a held-out split, hands each epoch's x @ w at its train and test
positions to a `metrics.Scorer`. An epoch scores to the same bits in any
history block, so a run resumed from its embeddings at any epoch gives
the curve of an uninterrupted one. Its epochs run under np.errstate with
overflow and invalid values ignored; finiteness is checked once, after
the last epoch (a non-finite entry stays non-finite under
x - alpha * g), and the first problem found non-finite is replayed alone,
checked every epoch, for its DivergenceError. Finite embeddings whose
product overflows are reported at the next epoch, which that product
makes non-finite.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import MaskedMatrix
from .metrics import Curve, Scorer


class DivergenceError(RuntimeError):
    """The step of `epoch` left a parameter non-finite or, in `train_mlp`,
    a training RMSE that is not finite."""

    def __init__(self, epoch):
        super().__init__(f"non-finite values at epoch {epoch}")
        self.epoch = epoch


class ConfigError(ValueError):
    """A config value that is out of place: one the loaded data cannot
    satisfy (`key` is its dotted name in the config), or one a config
    dataclass rejects (`key` is its field name)."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


def check_count(name, value, minimum=1):
    """Raise ValueError unless value is an integer, not a bool, of at least
    minimum. The config dataclasses check their counts with it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer of at least {minimum}")
        raise ValueError(f"{name} must be {kind}, not {value!r}")


@dataclass(frozen=True)
class EmbeddingPair:
    x: np.ndarray  # m x d, or stacked: ... x m x d
    w: np.ndarray  # d x n, or stacked: ... x d x n

    @property
    def d(self):
        return self.x.shape[-1]


@dataclass(frozen=True)
class AlsConfig:
    d: int = 5
    learning_rate: float = 0.01
    epochs: int = 400
    init_scale: float = 0.1
    seed: int = 0
    # epoch semantics: by default w's gradient is recomputed after x moves
    # (true alternation); True applies both updates from the same residual
    simultaneous_updates: bool = False

    def __post_init__(self):
        check_count("d", self.d)
        check_count("epochs", self.epochs)


def init_embeddings(m, n, cfg):
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(m, cfg.d))
    w = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.d, n))
    return EmbeddingPair(x=x, w=w)


def _residual(matrix, emb, out=None):
    """mask * (x @ w - values), written into out when it is given."""
    r = np.matmul(emb.x, emb.w, out=out)
    r -= matrix.values
    r *= matrix.mask
    return r


def als_loss(matrix, emb):
    r = _residual(matrix, emb)
    return float(0.5 * np.sum(r * r))


def _t(a):
    return a.swapaxes(-1, -2)


def als_gradients(matrix, emb):
    r = _residual(matrix, emb)
    return r @ _t(emb.w), _t(emb.x) @ r


class EpochWork(NamedTuple):
    """Work arrays for als_epoch: the residual (..., m, n) and the
    gradients of x (..., m, d) and w (..., d, n)."""

    residual: np.ndarray
    grad_x: np.ndarray
    grad_w: np.ndarray

    @classmethod
    def like(cls, emb):
        return cls(np.empty(emb.x.shape[:-1] + emb.w.shape[-1:]),
                   np.empty_like(emb.x), np.empty_like(emb.w))


def als_epoch(matrix, emb, alpha, simultaneous, work):
    """One training epoch: x-step then w-step on the updated x.

    With simultaneous=True both steps use the gradients at the old x. The
    epoch writes its temporaries into work (an EpochWork shaped for emb),
    updates emb.x and emb.w in place and returns emb.
    """
    x, w = emb.x, emb.w
    r, gx, gw = work
    _residual(matrix, emb, out=r)
    np.matmul(r, _t(w), out=gx)
    if simultaneous:
        np.matmul(_t(x), r, out=gw)
    gx *= alpha
    x -= gx
    if not simultaneous:
        _residual(matrix, emb, out=r)
        np.matmul(_t(x), r, out=gw)
    gw *= alpha
    w -= gw
    return emb


def train_als(matrix, cfg, eval_positions=None, start_epoch=0, emb=None):
    """Run cfg.epochs alternating epochs; returns the embeddings and a
    Curve numbered from start_epoch, or None for the curve when no split
    is held out.

    When eval_positions (a FoldSplit over matrix.observed_positions()) is
    given, test positions are masked out of training, and each epoch is
    scored at the train and test positions; a split that
    `FoldSplit.indices` rejects raises IndexError before any epoch.

    Given emb, the embeddings a run of this config had after start_epoch
    epochs, the run resumes there: it trains epochs start_epoch to
    cfg.epochs - 1 from a copy of emb, and its curve and DivergenceError
    count epochs from the start of the run, so the two legs give what one
    uninterrupted run does. Without emb, start_epoch must be 0. Given a
    stacked emb and no split, matrix may be a stacked MaskedMatrix: each
    problem trains as it would alone, and the first in stack order to
    diverge raises. A stacked matrix with a split raises ValueError.
    """
    m, n = matrix.shape
    if not 0 <= start_epoch <= cfg.epochs or (start_epoch and emb is None):
        raise ValueError(f"cannot start at epoch {start_epoch} of "
                         f"{cfg.epochs}" + (" without embeddings"
                                            if emb is None else ""))
    if not matrix.mask.any(axis=(-2, -1)).all():
        raise ValueError("matrix has no observed positions")
    if eval_positions is not None and matrix.values.ndim > 2:
        raise ValueError("a stacked matrix cannot hold out a split")
    train_matrix, scored = matrix, []
    if eval_positions is not None:
        observed = matrix.observed_positions()
        train, test = (observed[i]
                       for i in eval_positions.indices(observed.size))
        train_matrix = matrix.with_mask(train)
        values = matrix.values.ravel()  # the truths, prepared once
        scored = [(Scorer(values[idx], cfg.epochs - start_epoch), idx)
                  for idx in (train, test)]
        pred = np.empty(m * n)
    start = init_embeddings(m, n, cfg) if emb is None else emb
    emb = EmbeddingPair(x=start.x.copy(), w=start.w.copy())  # trained in place
    work = EpochWork.like(emb)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(start_epoch, cfg.epochs):
            als_epoch(train_matrix, emb, cfg.learning_rate,
                      cfg.simultaneous_updates, work)
            if scored:
                np.matmul(emb.x, emb.w, out=pred.reshape(m, n))
                for scorer, idx in scored:
                    scorer.add(pred[idx])
        finite = (np.isfinite(emb.x).all(axis=(-2, -1))
                  & np.isfinite(emb.w).all(axis=(-2, -1)))
        if not finite.all():  # replay the first such problem alone
            b = np.unravel_index(np.argmin(finite), finite.shape)
            alone = MaskedMatrix(train_matrix.values[b], train_matrix.mask[b])
            emb = EmbeddingPair(x=start.x[b].copy(), w=start.w[b].copy())
            work = EpochWork.like(emb)
            for epoch in range(start_epoch, cfg.epochs):
                als_epoch(alone, emb, cfg.learning_rate,
                          cfg.simultaneous_updates, work)
                if not (np.isfinite(emb.x).all()
                        and np.isfinite(emb.w).all()):
                    raise DivergenceError(epoch)
            raise RuntimeError("an ALS run diverged where its replay did not")
    if not scored:
        return emb, None
    return emb, Curve.scored(start_epoch, *(s for s, _ in scored))
