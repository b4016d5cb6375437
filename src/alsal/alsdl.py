"""Two-stage composite model: latent factors feed a fully connected net.

Stage 1 trains the masked factor model; stage 2 concatenates each
position's cell and molecule embeddings and trains the network under the
penalized loss. Embeddings are frozen after stage 1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import als as als_mod
from . import mlp as mlp_mod
from .als import AlsConfig, Config, EmbeddingPair, in_range
from .data import as_positions
from .mlp import LossConfig, MlpModel, MlpTrainConfig


@dataclass(frozen=True)
class AlsdlConfig(Config):
    als: AlsConfig = field(default_factory=lambda: AlsConfig(epochs=200))
    mlp_train: MlpTrainConfig = field(default_factory=MlpTrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_sizes: tuple[int, ...] = in_range((20, 10, 5), ">= 1")


@dataclass
class AlsdlModel:
    """A trained composite and the config it was trained with."""

    embeddings: EmbeddingPair
    net: MlpModel
    cfg: AlsdlConfig


def build_features(emb, positions):
    """Feature rows [cell row, molecule column], (k, 2d), one per position."""
    n = emb.w.shape[1]
    rows, cols = np.divmod(as_positions(positions, emb.x.shape[0] * n), n)
    return np.hstack((emb.x[rows], emb.w.T[cols]))


def train_alsdl(matrix, cfg, seed, eval_split=None, stage1=None):
    """Train both stages, the factor model from seed and the network from
    seed + 1; returns the model, which keeps cfg, and one Curve that
    covers stage 1 then stage 2, or None for the curve when no split is
    held out.

    Stage-2 epochs continue the stage-1 numbering, in the curve and in
    the network's DivergenceError, so the handover between the factor
    model and the network stays visible, and so does the stage that
    diverged. stage1, when given, is the (embeddings, curve) pair that
    train_als(matrix, cfg.als, init_embeddings(m, n, cfg.als, seed),
    eval_split) returns, trained already; it is used as it is.
    """
    if stage1 is None:
        init = als_mod.init_embeddings(*matrix.shape, cfg.als, seed)
        stage1 = als_mod.train_als(matrix, cfg.als, init, eval_split)
    emb, curve = stage1

    positions = matrix.observed_positions()
    inputs = build_features(emb, positions)
    truths = matrix.values.ravel()[positions]

    net = mlp_mod.init_mlp([2 * emb.d, *cfg.hidden_sizes, 1], seed + 1)
    net, mlp_curve = mlp_mod.train_mlp(
        net, inputs, truths, cfg.mlp_train, cfg.loss, eval_split=eval_split,
        start_epoch=cfg.als.epochs)
    model = AlsdlModel(embeddings=emb, net=net, cfg=cfg)
    return model, None if curve is None else curve.then(mlp_curve)


def alsdl_predict_positions(model, positions):
    """Predictions at the given positions."""
    feats = build_features(model.embeddings, positions)
    return mlp_mod.predict_batch(model.net, feats)
