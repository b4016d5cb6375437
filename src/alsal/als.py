"""Masked latent-factor model trained by alternating gradient descent.

Factorizes an m x n response matrix into cell embeddings x (m x d) and
molecule embeddings w (d x n), minimizing squared error over observed
positions only. No regularization term; the loss is

    0.5 * sum over mask==1 of (x @ w - y)^2

The gradient and epoch functions also take stacks of problems: leading
axes of x, w and the matrix's values and mask are batch axes, and each
slice is computed exactly as it would be on its own.

`train_als` writes each epoch's x @ w into a row of a (HISTORY_BLOCK,
m*n) block, and scores each filled block in one pass.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metrics import Curve, Scorer


class DivergenceError(RuntimeError):
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


def als_epoch(matrix, emb, alpha, simultaneous=False, work=None):
    """One training epoch: x-step then w-step on the updated x.

    With simultaneous=True both steps use the gradients at the old x.
    Given work (an EpochWork shaped for emb), the epoch writes its
    temporaries there, updates emb.x and emb.w in place and returns emb;
    without it, emb is left as it is and a new pair is returned.
    """
    if work is None:
        emb = EmbeddingPair(x=emb.x.copy(), w=emb.w.copy())
        work = EpochWork.like(emb)
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


def train_als(matrix, cfg, eval_positions=None, start_epoch=0,
              record_history=True):
    """Run cfg.epochs alternating epochs; returns embeddings and a Curve
    numbered from start_epoch.

    When eval_positions (a FoldSplit over matrix.observed_positions()) is
    given, test positions are masked out of training and scored in the
    curve's test columns. record_history=False skips per-epoch evaluation
    and returns None for the curve (used for the many throwaway models
    inside the ELM query).
    """
    observed = matrix.observed_positions()
    if not observed.size:
        raise ValueError("matrix has no observed positions")
    if eval_positions is not None:
        train_idx = observed[np.asarray(eval_positions.train_indices, int)]
        test_idx = observed[np.asarray(eval_positions.test_indices, int)]
        train_matrix = matrix.with_mask(train_idx)
    else:
        train_idx, test_idx = observed, observed[:0]
        train_matrix = matrix

    if record_history:
        values = matrix.values.ravel()  # the truths, prepared once
        scored = [(Scorer(values[idx], epochs=cfg.epochs), idx)
                  for idx in (train_idx, test_idx) if idx.size]
        full = np.empty((len(scored[0][0].block), values.size))
    emb = init_embeddings(*matrix.shape, cfg)
    work = EpochWork.like(emb)
    for epoch in range(cfg.epochs):
        emb = als_epoch(train_matrix, emb, cfg.learning_rate,
                        simultaneous=cfg.simultaneous_updates, work=work)
        if not (np.isfinite(emb.x).all() and np.isfinite(emb.w).all()):
            raise DivergenceError(epoch)
        if not record_history:
            continue
        row = epoch % len(full)
        np.matmul(emb.x, emb.w, out=full[row].reshape(matrix.shape))
        if row == len(full) - 1 or epoch == cfg.epochs - 1:
            for scorer, idx in scored:
                # mode="clip" writes straight into out; idx is in range
                np.take(full[:row + 1], idx, axis=1, mode="clip",
                        out=scorer.block[:row + 1])
                scorer.score(row + 1)
    if not record_history:
        return emb, None
    return emb, Curve.scored(start_epoch, *(s for s, _ in scored))
