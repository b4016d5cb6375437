"""Checked, allocating references that the package's scoring and ALS
divergence are pinned against.

`rmse` and `boundary_accuracy` check and convert their inputs on every
call and score one set of predictions; `metrics.Scorer` must give their
values with ==. `als_rmse` scores a trained factor model the way an
unsplit run, which returns no curve, would score its training set.
`stepped_als` trains an unsplit ALS run one checked epoch at a time,
sharing no divergence logic with `train_als`. `sign_penalty`,
`penalized_loss` and `surrogate_objective` evaluate the network's
training objective: the exact sign-penalty form and the smooth tanh form
whose gradient `mlp.backward` takes, which the finite-difference
gradient checks difference.
"""

import numpy as np

import alsal.als as als_mod
from alsal.als import (DivergenceError, EmbeddingPair, EpochWork,
                       init_embeddings)
from alsal.metrics import MetricError, residual_rmse


def check_pair(preds, truths):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape:
        raise MetricError(f"length mismatch: {preds.shape} vs {truths.shape}")
    if preds.size == 0:
        raise MetricError("empty input")
    return preds, truths


def rmse(preds, truths):
    preds, truths = check_pair(preds, truths)
    resid = preds - truths
    return residual_rmse(resid, out=resid)


def als_rmse(matrix, emb):
    """RMSE of the factor model emb over the matrix's observed positions,
    which an unsplit training run trains on: its final train RMSE."""
    positions = matrix.observed_positions()
    return rmse((emb.x @ emb.w).ravel()[positions],
                matrix.values.ravel()[positions])


def boundary_accuracy(preds, truths, boundary=0.0):
    """Fraction of pairs on the same side of the boundary.

    sign(0) = 0: a prediction exactly on the boundary matches only a truth
    exactly on the boundary.
    """
    preds, truths = check_pair(preds, truths)
    same = np.sign(preds - boundary) == np.sign(truths - boundary)
    # equal to np.mean(same): the count is exact, and so is its division
    return float(np.count_nonzero(same) / same.size)


def sign_penalty(pred, truth, boundaries):
    """+1 if pred and truth share an inter-boundary interval, -1 if any
    boundary strictly separates them, 0 on an exact boundary hit;
    elementwise on arrays (float result), an int for scalars."""
    s = sum(np.sign((pred - c) * (truth - c)) for c in boundaries)
    penalty = np.sign(s - len(boundaries) + 1)
    return int(penalty) if penalty.ndim == 0 else penalty


def penalized_loss(preds, truths, cfg):
    """RMSE minus beta times the mean sign penalty (exact, non-smooth form)."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    # the mean of +-1/0 values is exact in float64, in any summation order
    return rmse(preds, truths) - cfg.beta * float(
        np.mean(sign_penalty(preds, truths, cfg.boundaries)))


def surrogate_objective(preds, truths, cfg):
    """The differentiable objective optimized when the smooth surrogate is
    on: the sign penalty is replaced per boundary by
    tanh(kappa * (pred - c) * (truth - c)), averaged over boundaries."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    loss = rmse(preds, truths)
    if cfg.beta == 0:
        return loss
    kappa = cfg.surrogate_sharpness
    pen = np.mean([np.mean(np.tanh(kappa * (preds - c) * (truths - c)))
                   for c in cfg.boundaries])
    return loss - cfg.beta * float(pen)


def stepped_als(matrix, cfg, start_epoch=0, emb=None):
    """An unsplit ALS run stepped by hand, one `als_epoch` at a time from a
    copy of emb (the config's init when None), with a finiteness check
    after every step: raises DivergenceError at the first epoch that
    leaves x or w non-finite, else returns the embeddings."""
    if emb is None:
        emb = init_embeddings(*matrix.shape, cfg)
    emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
    work = EpochWork.like(emb)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(start_epoch, cfg.epochs):
            als_mod.als_epoch(matrix, emb, cfg.learning_rate,
                              cfg.simultaneous_updates, work)
            if not (np.isfinite(emb.x).all() and np.isfinite(emb.w).all()):
                raise DivergenceError(epoch)
    return emb
