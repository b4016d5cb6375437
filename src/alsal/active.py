"""Pool-based active learning over a fully measured (retrospective) matrix.

The ground-truth matrix plays the oracle: queried positions reveal their
true values. Four query strategies are available: orderly (row-major),
random, uncertainty (closest to the boundary), and expected loss
minimization (ELM), which retrains a cheap factor-only model per candidate
on the labeled set plus the candidate's predicted label and scores it by
expected loss over true-plus-predicted labels.

ELM trains a chunk of candidates at a time as one stacked problem, all
from the same init; ELM_CHUNK_BYTES bounds the memory of a chunk. Scores
are bit-identical to training and scoring each candidate on its own.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import als as als_mod
from . import alsdl as alsdl_mod
from .alsdl import AlsdlConfig
from .metrics import rmse, boundary_accuracy


@dataclass(frozen=True)
class ActiveConfig:
    n_init: int = 40
    n_per_query: int = 40
    n_max_query: int = 8
    strategy: str = "elm"  # orderly | random | uncertainty | elm
    model_cfg: AlsdlConfig = field(default_factory=AlsdlConfig)
    elm_inner_epochs: int = 200
    # when set, ELM scores only a seeded random subset of the pool
    elm_candidate_subsample: int = None
    orderly_column_major: bool = False
    seed: int = 0


@dataclass(frozen=True)
class LearningCurvePoint:
    round: int
    n_labeled: int
    full_rmse: float
    full_accuracy: float


@dataclass
class ActiveState:
    matrix: object  # MaskedMatrix, all labels known
    labeled: list  # ordered positions, the training set D
    pool: list  # ordered positions, the unlabeled pool U
    round: int = 0
    history: list = field(default_factory=list)


def _row_major_key(pos, n_cols):
    return pos[0] * n_cols + pos[1]


def init_state(matrix, cfg):
    positions = matrix.observed_positions()
    if cfg.n_init > len(positions):
        raise ValueError(
            f"n_init = {cfg.n_init} exceeds {len(positions)} observed positions")
    rng = np.random.default_rng(cfg.seed)
    picked = rng.choice(len(positions), size=cfg.n_init, replace=False)
    labeled = [positions[i] for i in picked]
    chosen = set(labeled)
    pool = [p for p in positions if p not in chosen]
    return ActiveState(matrix=matrix, labeled=labeled, pool=pool)


def query_orderly(state, n, column_major=False):
    if not state.pool:
        raise ValueError("empty pool")
    n_cols = state.matrix.shape[1]
    key = ((lambda p: (p[1], p[0])) if column_major
           else (lambda p: _row_major_key(p, n_cols)))
    return sorted(state.pool, key=key)[:min(n, len(state.pool))]


def query_random(state, n, seed):
    if not state.pool:
        raise ValueError("empty pool")
    rng = np.random.default_rng(seed)
    take = min(n, len(state.pool))
    picked = rng.choice(len(state.pool), size=take, replace=False)
    return [state.pool[i] for i in picked]


def query_uncertainty(state, model, n, boundary=0.0):
    """Pool positions whose predictions lie closest to the boundary."""
    if not state.pool:
        raise ValueError("empty pool")
    n_cols = state.matrix.shape[1]
    preds = alsdl_mod.alsdl_predict_positions(model, state.pool)
    order = sorted(range(len(state.pool)),
                   key=lambda i: (abs(preds[i] - boundary),
                                  _row_major_key(state.pool[i], n_cols)))
    return [state.pool[i] for i in order[:min(n, len(state.pool))]]


# Size in bytes of one stacked (candidates x m x n) float64 array, which
# sets how many candidates ELM trains at once: 8 at 35x34. Past a few
# candidates a chunk buys little speed, while its working arrays add to
# the resident set.
ELM_CHUNK_BYTES = 80_000


class _Stack(NamedTuple):
    """Values and mask of a stack of training problems, (C, m, n) each."""

    values: np.ndarray
    mask: np.ndarray


def _flat(positions, n_cols):
    pos = np.array(positions, dtype=np.intp).reshape(-1, 2)
    return pos[:, 0] * n_cols + pos[:, 1]


def expected_losses(state, model, cfg, inner_seed):
    """ELM score per pool candidate, in row-major candidate order.

    For candidate x+: label it with the current model's prediction, retrain
    a factor-only model on D plus the pseudo-labeled candidate for
    cfg.elm_inner_epochs epochs, and evaluate its RMSE over D's true labels
    joined with current-model predictions on the other pool positions. All
    candidates share the same fresh init seed so scores differ only through
    the candidate.

    Candidates are trained and scored in chunks, each one stacked problem
    whose (C, m, n) arrays take at most ELM_CHUNK_BYTES (C >= 1). Every
    score is bit-identical to training and scoring that candidate alone,
    and so is the DivergenceError raised for the first candidate, in
    candidate order, whose model diverges.
    """
    matrix = state.matrix
    m, n = matrix.shape
    pool_flat = _flat(state.pool, n)
    labeled_flat = _flat(state.labeled, n)
    cand = np.argsort(pool_flat)  # pool indices in row-major order
    if (cfg.elm_candidate_subsample is not None
            and cfg.elm_candidate_subsample < len(cand)):
        rng = np.random.default_rng(inner_seed)
        keep = rng.choice(len(cand), size=cfg.elm_candidate_subsample,
                          replace=False)
        cand = cand[np.sort(keep)]
    pool_preds = alsdl_mod.alsdl_predict_positions(model, state.pool)

    inner_cfg = replace(cfg.model_cfg.als, epochs=cfg.elm_inner_epochs,
                        seed=inner_seed)
    init = als_mod.init_embeddings(m, n, inner_cfg)
    base_values = np.zeros(m * n)
    base_mask = np.zeros(m * n)
    base_values[labeled_flat] = matrix.values.ravel()[labeled_flat]
    base_mask[labeled_flat] = 1.0
    # scoring set: D's true labels, then the pool's predictions; each
    # candidate drops its own pool column
    score_flat = np.concatenate([labeled_flat, pool_flat])
    score_labels = np.concatenate([base_values[labeled_flat], pool_preds])
    n_labeled, n_score = len(labeled_flat), len(score_flat)

    chunk = max(1, ELM_CHUNK_BYTES // (8 * m * n))
    scores = []
    for start in range(0, len(cand), chunk):
        k = cand[start:start + chunk]
        c = len(k)
        rows = np.arange(c)
        values = np.tile(base_values, (c, 1))
        mask = np.tile(base_mask, (c, 1))
        values[rows, pool_flat[k]] = pool_preds[k]
        mask[rows, pool_flat[k]] = 1.0
        stack = _Stack(values.reshape(c, m, n), mask.reshape(c, m, n))
        emb = als_mod.EmbeddingPair(x=np.tile(init.x, (c, 1, 1)),
                                    w=np.tile(init.w, (c, 1, 1)))
        for _ in range(inner_cfg.epochs):
            emb = als_mod.als_epoch(stack, emb, inner_cfg.learning_rate,
                                    simultaneous=inner_cfg.simultaneous_updates)
        finite = (np.isfinite(emb.x).all(axis=(1, 2))
                  & np.isfinite(emb.w).all(axis=(1, 2)))
        if not finite.all():
            # x - alpha * g is non-finite wherever x is, so a model that
            # diverged at any epoch is still non-finite here. Replaying the
            # first such candidate alone raises its DivergenceError.
            b = int(np.argmin(finite))
            als_mod.train_als(replace_matrix(matrix, stack.values[b],
                                             stack.mask[b]),
                              inner_cfg, record_history=False)
            raise RuntimeError("stacked ELM diverged where its replay did not")

        full = (emb.x @ emb.w).reshape(c, m * n)
        kept = np.ones((c, n_score), dtype=bool)
        kept[rows, n_labeled + k] = False
        idx = np.broadcast_to(score_flat, kept.shape)[kept].reshape(c, -1)
        labels = np.broadcast_to(score_labels, kept.shape)[kept].reshape(c, -1)
        preds = np.take_along_axis(full, idx, axis=1)
        scores.extend(np.sqrt(np.mean((preds - labels) ** 2, axis=1)).tolist())
    return [state.pool[i] for i in cand], scores


def replace_matrix(matrix, values, mask):
    from .data import MaskedMatrix
    return MaskedMatrix(values, mask, list(matrix.cell_index),
                        list(matrix.molecule_index), matrix.target)


def query_elm(state, model, n, cfg, inner_seed=0):
    if not state.pool:
        raise ValueError("empty pool")
    candidates, scores = expected_losses(state, model, cfg, inner_seed)
    order = sorted(range(len(candidates)), key=lambda i: (scores[i], i))
    return [candidates[i] for i in order[:min(n, len(candidates))]]


def _select(state, model, cfg, round_seed):
    if cfg.strategy == "orderly":
        return query_orderly(state, cfg.n_per_query, cfg.orderly_column_major)
    if cfg.strategy == "random":
        return query_random(state, cfg.n_per_query, seed=round_seed)
    if cfg.strategy == "uncertainty":
        return query_uncertainty(state, model, cfg.n_per_query)
    if cfg.strategy == "elm":
        return query_elm(state, model, cfg.n_per_query, cfg,
                         inner_seed=round_seed)
    raise ValueError(f"unknown strategy {cfg.strategy!r}")


def _round_seed(base_seed, rnd):
    # distinct deterministic stream per round
    return int(np.random.SeedSequence([base_seed, rnd]).generate_state(1)[0])


def run_active_learning(matrix, cfg):
    """Full scheme: init, then train/record/query for n_max_query rounds.

    Returns the learning curve (one point per training round, evaluated on
    every observed position against ground truth) and the final model.
    """
    state = init_state(matrix, cfg)
    positions = matrix.observed_positions()
    truths = np.array([matrix.values[p] for p in positions])

    model = None
    for rnd in range(cfg.n_max_query + 1):
        state.round = rnd
        model_seed = _round_seed(cfg.seed, 2 * rnd)
        model_cfg = replace(
            cfg.model_cfg,
            als=replace(cfg.model_cfg.als, seed=model_seed),
            mlp_train=replace(cfg.model_cfg.mlp_train, seed=model_seed + 1))
        train_matrix = matrix.with_mask(state.labeled)
        model, _ = alsdl_mod.train_alsdl(train_matrix, model_cfg,
                                         record_history=False)

        preds = alsdl_mod.alsdl_predict_positions(model, positions)
        point = LearningCurvePoint(
            round=rnd, n_labeled=len(state.labeled),
            full_rmse=rmse(preds, truths),
            full_accuracy=boundary_accuracy(preds, truths))
        state.history.append(point)

        if rnd == cfg.n_max_query or not state.pool:
            break
        picks = _select(state, model, cfg, _round_seed(cfg.seed, 2 * rnd + 1))
        picked = set(picks)
        state.pool = [p for p in state.pool if p not in picked]
        state.labeled = state.labeled + list(picks)
    return state.history, model
