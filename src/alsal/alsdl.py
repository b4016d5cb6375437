"""Two-stage composite model: latent factors feed a fully connected net.

Stage 1 trains the masked factor model; stage 2 concatenates each
position's cell and molecule embeddings and trains the network under the
penalized loss. Embeddings are frozen after stage 1.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import als as als_mod
from . import mlp as mlp_mod
from .als import AlsConfig, EmbeddingPair
from .data import as_positions
from .mlp import LossConfig, MlpModel, MlpTrainConfig


@dataclass(frozen=True)
class AlsdlConfig:
    als: AlsConfig = field(default_factory=lambda: AlsConfig(epochs=200))
    mlp_train: MlpTrainConfig = field(default_factory=MlpTrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_sizes: tuple = (20, 10, 5)
    # cell embedding first in the feature vector; flip for ablation
    molecule_first: bool = False

    def seeded(self, seed):
        """Seed the factor model with seed and the network with seed + 1."""
        return replace(self, als=replace(self.als, seed=seed),
                       mlp_train=replace(self.mlp_train, seed=seed + 1))


@dataclass
class AlsdlModel:
    """A trained composite and the config it was trained with."""

    embeddings: EmbeddingPair
    net: MlpModel
    cfg: AlsdlConfig


def build_features(emb, positions, molecule_first=False):
    """Feature rows [cell row, molecule column], (k, 2d), one per position."""
    n = emb.w.shape[1]
    rows, cols = np.divmod(as_positions(positions, emb.x.shape[0] * n), n)
    cells, mols = emb.x[rows], emb.w.T[cols]
    return np.hstack((mols, cells) if molecule_first else (cells, mols))


def train_alsdl(matrix, cfg, eval_split=None, record_history=True,
                stage1=None):
    """Train both stages; returns the model, which keeps cfg, and one
    Curve that covers stage 1 then stage 2 (None when record_history is
    False).

    Stage-2 epochs continue the stage-1 numbering so the handover between
    the factor model and the network stays visible in the curve. stage1,
    when given, is the (embeddings, curve) pair that train_als(matrix,
    cfg.als, eval_split, record_history=record_history) returns, trained
    already; it is used as it is.
    """
    if stage1 is None:
        stage1 = als_mod.train_als(matrix, cfg.als, eval_split,
                                   record_history=record_history)
    emb, curve = stage1

    positions = matrix.observed_positions()
    inputs = build_features(emb, positions, cfg.molecule_first)
    truths = matrix.values.ravel()[positions]

    net = mlp_mod.init_mlp([2 * emb.d, *cfg.hidden_sizes, 1],
                           seed=cfg.mlp_train.seed)
    net, mlp_curve = mlp_mod.train_mlp(
        net, inputs, truths, cfg.mlp_train, cfg.loss, eval_split=eval_split,
        start_epoch=cfg.als.epochs, record_history=record_history)
    model = AlsdlModel(embeddings=emb, net=net, cfg=cfg)
    return model, None if curve is None else curve.then(mlp_curve)


def alsdl_predict_positions(model, positions):
    """Predictions at the given positions."""
    feats = build_features(model.embeddings, positions,
                           model.cfg.molecule_first)
    return mlp_mod.predict_batch(model.net, feats)
