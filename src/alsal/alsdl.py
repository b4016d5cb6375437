"""Two-stage composite model: latent factors feed a fully connected net.

Stage 1 trains the masked factor model; stage 2 concatenates each
position's cell and molecule embeddings and trains the network under the
penalized loss. Embeddings are frozen after stage 1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import als as als_mod
from . import mlp as mlp_mod
from .als import AlsConfig, EmbeddingPair
from .mlp import LossConfig, MlpModel, MlpTrainConfig


@dataclass(frozen=True)
class AlsdlConfig:
    als: AlsConfig = field(default_factory=lambda: AlsConfig(epochs=200))
    mlp_train: MlpTrainConfig = field(default_factory=MlpTrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_sizes: tuple = (20, 10, 5)
    # cell embedding first in the feature vector; flip for ablation
    molecule_first: bool = False


@dataclass
class AlsdlModel:
    embeddings: EmbeddingPair
    net: MlpModel
    loss_cfg: LossConfig
    molecule_first: bool = False


def build_features(emb, i, j, molecule_first=False):
    """Concatenated feature vector [cell row, molecule column], length 2d."""
    return _feature_table(emb, [(i, j)], molecule_first)[0]


def _feature_table(emb, positions, molecule_first=False):
    """build_features rows for (i, j) pairs, a sequence or a (k, 2) array."""
    rows, cols = np.array(positions, dtype=np.intp).reshape(-1, 2).T
    if (rows < 0).any() or (cols < 0).any():  # too large raises below
        raise IndexError("negative position index")
    cells, mols = emb.x[rows], emb.w.T[cols]
    return np.hstack((mols, cells) if molecule_first else (cells, mols))


def train_alsdl(matrix, cfg, eval_split=None, record_history=True):
    """Train both stages; the returned curve covers stage 1 then stage 2.

    Stage-2 epochs continue the stage-1 numbering so the handover between
    the factor model and the network stays visible in the curve.
    """
    emb, als_history = als_mod.train_als(matrix, cfg.als, eval_split,
                                         record_history=record_history)

    positions = np.argwhere(matrix.mask)  # row-major, as observed_positions
    inputs = _feature_table(emb, positions, cfg.molecule_first)
    truths = matrix.values[positions[:, 0], positions[:, 1]]

    net = mlp_mod.init_mlp([2 * emb.d, *cfg.hidden_sizes, 1],
                           seed=cfg.mlp_train.seed)
    if cfg.mlp_train.epochs > 0:
        net, mlp_history = mlp_mod.train_mlp(
            net, inputs, truths, cfg.mlp_train, cfg.loss,
            eval_split=eval_split, start_epoch=cfg.als.epochs,
            record_history=record_history)
    else:
        mlp_history = []
    model = AlsdlModel(embeddings=emb, net=net, loss_cfg=cfg.loss,
                       molecule_first=cfg.molecule_first)
    return model, als_history + mlp_history


def alsdl_predict(model, i, j):
    return mlp_mod.forward(
        model.net, build_features(model.embeddings, i, j, model.molecule_first))


def alsdl_predict_positions(model, positions):
    """Vectorized predictions for a list of (i, j) positions."""
    feats = _feature_table(model.embeddings, positions, model.molecule_first)
    return mlp_mod.predict_batch(model.net, feats)
