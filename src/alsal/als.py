"""Masked latent-factor model trained by alternating gradient descent.

Factorizes an m x n response matrix into cell embeddings x (m x d) and
molecule embeddings w (d x n), minimizing squared error over observed
positions only. No regularization term; the loss is

    0.5 * sum over mask==1 of (x @ w - y)^2

The gradient and epoch functions also take stacks of problems: leading
axes of x, w and the matrix's values and mask are batch axes, and each
slice is computed exactly as it would be on its own.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import EvalPoint, rmse, boundary_accuracy


class DivergenceError(RuntimeError):
    def __init__(self, epoch):
        super().__init__(f"non-finite values at epoch {epoch}")
        self.epoch = epoch


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


def init_embeddings(m, n, cfg):
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(m, cfg.d))
    w = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.d, n))
    return EmbeddingPair(x=x, w=w)


def _residual(matrix, emb):
    return matrix.mask * (emb.x @ emb.w - matrix.values)


def als_loss(matrix, emb):
    r = _residual(matrix, emb)
    return float(0.5 * np.sum(r * r))


def _t(a):
    return a.swapaxes(-1, -2)


def als_gradients(matrix, emb):
    r = _residual(matrix, emb)
    return r @ _t(emb.w), _t(emb.x) @ r


def als_epoch(matrix, emb, alpha, simultaneous=False):
    """One training epoch: x-step then w-step on the updated x.

    With simultaneous=True both steps use the gradients at the old x.
    """
    if simultaneous:
        grad_x, grad_w = als_gradients(matrix, emb)
        return EmbeddingPair(x=emb.x - alpha * grad_x,
                             w=emb.w - alpha * grad_w)
    x_new = emb.x - alpha * (_residual(matrix, emb) @ _t(emb.w))
    r = _residual(matrix, EmbeddingPair(x=x_new, w=emb.w))
    return EmbeddingPair(x=x_new, w=emb.w - alpha * (_t(x_new) @ r))


def predict(emb, i, j):
    m, n = emb.x.shape[0], emb.w.shape[1]
    if not (0 <= i < m and 0 <= j < n):
        raise IndexError(f"position {(i, j)} out of range for {m}x{n}")
    return float(emb.x[i] @ emb.w[:, j])


def _eval_point(epoch, matrix, emb, positions_train, positions_test):
    full = emb.x @ emb.w
    pt, tt = _gather(matrix, full, positions_train)
    point = {"epoch_or_round": epoch,
             "train_loss": rmse(pt, tt),
             "train_accuracy": boundary_accuracy(pt, tt)}
    if positions_test:
        pv, tv = _gather(matrix, full, positions_test)
        point["test_loss"] = rmse(pv, tv)
        point["test_accuracy"] = boundary_accuracy(pv, tv)
    return EvalPoint(**point)


def _gather(matrix, full_pred, positions):
    rows = [p[0] for p in positions]
    cols = [p[1] for p in positions]
    return full_pred[rows, cols], matrix.values[rows, cols]


def train_als(matrix, cfg, eval_positions=None, start_epoch=0,
              record_history=True):
    """Run cfg.epochs alternating epochs; returns embeddings and curve.

    When eval_positions (a FoldSplit over the row-major observed-position
    list) is given, test positions are masked out of training and per-epoch
    train/test RMSE and boundary accuracy are recorded. record_history=False
    skips per-epoch evaluation (used for the many throwaway models inside
    the ELM query).
    """
    positions = matrix.observed_positions()
    if not positions:
        raise ValueError("matrix has no observed positions")
    if eval_positions is not None:
        pos_train = [positions[i] for i in eval_positions.train_indices]
        pos_test = [positions[i] for i in eval_positions.test_indices]
        train_matrix = matrix.with_mask(pos_train)
    else:
        pos_train, pos_test = positions, []
        train_matrix = matrix

    emb = init_embeddings(*matrix.shape, cfg)
    history = []
    for epoch in range(cfg.epochs):
        emb = als_epoch(train_matrix, emb, cfg.learning_rate,
                        simultaneous=cfg.simultaneous_updates)
        if not (np.all(np.isfinite(emb.x)) and np.all(np.isfinite(emb.w))):
            raise DivergenceError(epoch)
        if record_history:
            history.append(_eval_point(start_epoch + epoch, matrix, emb,
                                       pos_train, pos_test))
    return emb, history
