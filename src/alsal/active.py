"""Pool-based active learning over a fully measured (retrospective) matrix.

The ground-truth matrix plays the oracle: queried positions reveal their
true values. Four query strategies are available: orderly (row-major),
random, uncertainty (closest to the boundary), and expected loss
minimization (ELM), which retrains a cheap factor-only model per candidate
on the labeled set plus the candidate's predicted label and scores it by
expected loss over true-plus-predicted labels. The labeled set, the pool
and every query's picks are position arrays (see alsal.data).

ELM trains a chunk of candidates (24 at 35x34) at a time as one
`als.train_als` run on a stacked `MaskedMatrix`, all from the same init,
to the bits of training and scoring each candidate on its own.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import als as als_mod
from . import alsdl as alsdl_mod
from .als import Config, ConfigError, in_range
from .data import EmbeddingPair, MaskedMatrix
from .metrics import Scorer


STRATEGIES = ("orderly", "random", "uncertainty", "elm")


@dataclass(frozen=True)
class ActiveConfig(Config):
    n_init: int = in_range(40, ">= 1")
    n_per_query: int = in_range(40, ">= 1")
    n_max_query: int = in_range(8, ">= 0")
    elm_inner_epochs: int = in_range(200, ">= 1")
    # when set, ELM scores only a random subset of the pool, drawn from the
    # query's seed; never fewer than n_per_query, so ELM labels as many
    # positions a round as the strategies it is compared with
    elm_candidate_subsample: int | None = in_range(None, ">= 1")

    def __post_init__(self):
        super().__post_init__()
        k = self.elm_candidate_subsample
        if k is not None and k < self.n_per_query:
            raise ConfigError("elm_candidate_subsample",
                              f"elm_candidate_subsample {k} is below "
                              f"n_per_query = {self.n_per_query}")


@dataclass(frozen=True)
class LearningCurvePoint:
    round: int
    n_labeled: int
    full_rmse: float
    full_accuracy: float


@dataclass
class ActiveState:
    matrix: object  # MaskedMatrix, all labels known
    labeled: np.ndarray  # positions in labelling order, the training set D
    pool: np.ndarray  # positions, the unlabeled pool U


def init_state(matrix, cfg, seed):
    positions = matrix.observed_positions()
    if cfg.n_init > positions.size:
        raise ValueError(
            f"n_init = {cfg.n_init} exceeds {positions.size} observed positions")
    rng = np.random.default_rng(seed)
    picked = rng.choice(positions.size, size=cfg.n_init, replace=False)
    return ActiveState(matrix=matrix, labeled=positions[picked],
                       pool=np.delete(positions, picked))


def query_orderly(state, n):
    if not state.pool.size:
        raise ValueError("empty pool")
    return np.sort(state.pool)[:n]


def query_random(state, n, seed):
    if not state.pool.size:
        raise ValueError("empty pool")
    rng = np.random.default_rng(seed)
    take = min(n, state.pool.size)
    return state.pool[rng.choice(state.pool.size, size=take, replace=False)]


def query_uncertainty(state, model, n):
    """Pool positions whose predictions lie closest to the data's decision
    boundary 0, ties in row-major order."""
    if not state.pool.size:
        raise ValueError("empty pool")
    preds = alsdl_mod.alsdl_predict_positions(model, state.pool)
    order = np.lexsort((state.pool, np.abs(preds)))
    return state.pool[order[:n]]


# Size in bytes of one stacked (candidates x m x n) float64 array, which
# sets how many candidates ELM trains at once: 24 at 35x34. A training
# chunk holds three such arrays: its values and mask and train_als's
# residual; it is scored in fresh arrays once values and mask are freed.
# At 35x34, 32 candidates were no faster than 24 on the al-elm benchmark
# (3 of 6 pairs) and raised its peak RSS by 0.33 MB.
ELM_CHUNK_BYTES = 230_000


def expected_losses(state, model, cfg, inner_seed):
    """Pool candidates in row-major order and their ELM scores, as arrays.

    For candidate x+: label it with the current model's prediction, retrain
    a factor-only model on D plus the pseudo-labeled candidate for
    cfg.elm_inner_epochs epochs, and evaluate its RMSE over D's true labels
    joined with current-model predictions on the other pool positions. The
    retrain uses model.cfg.als with the epochs replaced; all candidates
    share the same fresh init, drawn from inner_seed, so scores differ only
    through the candidate.

    Candidates train in chunks, each one train_als run on a stacked
    MaskedMatrix whose (C, m, n) arrays take at most ELM_CHUNK_BYTES
    (C >= 1). Each chunk allocates its own values and mask, frees them once
    trained and is scored in fresh arrays of at most that size, and no
    array outlives its chunk, so the query's peak memory is that of
    training a chunk. Every score, and the DivergenceError of the first
    candidate to diverge, is that of training and scoring the candidate
    alone.
    """
    matrix = state.matrix
    m, n = matrix.shape
    pool, labeled = state.pool, state.labeled
    cand = np.argsort(pool)  # pool indices in row-major order
    if (cfg.elm_candidate_subsample is not None
            and cfg.elm_candidate_subsample < len(cand)):
        rng = np.random.default_rng(inner_seed)
        keep = rng.choice(len(cand), size=cfg.elm_candidate_subsample,
                          replace=False)
        cand = cand[np.sort(keep)]
    pool_preds = alsdl_mod.alsdl_predict_positions(model, pool)

    inner_cfg = replace(model.cfg.als, epochs=cfg.elm_inner_epochs)
    init = als_mod.init_embeddings(m, n, inner_cfg, inner_seed)
    base_values = np.zeros(m * n)
    base_mask = np.zeros(m * n)
    base_values[labeled] = matrix.values.ravel()[labeled]
    base_mask[labeled] = 1.0
    # scoring set: D's true labels, then the pool's predictions; each
    # candidate drops its own pool column
    score_flat = np.concatenate([labeled, pool])
    score_labels = np.concatenate([base_values[labeled], pool_preds])
    n_labeled = len(labeled)

    chunk = max(1, min(ELM_CHUNK_BYTES // (8 * m * n), len(cand)))
    scores = np.empty(len(cand))
    for start in range(0, len(cand), chunk):
        k = cand[start:start + chunk]
        c, rows = len(k), np.arange(len(k))
        values, mask = (np.broadcast_to(a, (c, m * n)).copy()
                        for a in (base_values, base_mask))
        values[rows, pool[k]] = pool_preds[k]
        mask[rows, pool[k]] = 1.0
        inits = (np.broadcast_to(a, (c,) + a.shape) for a in (init.x, init.w))
        emb, _ = als_mod.train_als(MaskedMatrix(
            values.reshape(c, m, n), mask.reshape(c, m, n)),
            inner_cfg, EmbeddingPair(*inits))
        del values, mask  # freed before the chunk is scored
        err = (emb.x @ emb.w).reshape(c, m * n)[:, score_flat] - score_labels
        err **= 2
        # each candidate's squared errors without its own pool column
        others = np.ones(err.shape, dtype=bool)
        others[rows, n_labeled + k] = False
        scores[start:start + c] = np.sqrt(np.mean(
            err[others].reshape(c, -1), axis=1))
        del emb, err, others  # not alive while the next chunk trains
    return pool[cand], scores


def query_elm(state, model, n, cfg, inner_seed):
    if not state.pool.size:
        raise ValueError("empty pool")
    candidates, scores = expected_losses(state, model, cfg, inner_seed)
    return candidates[np.argsort(scores, kind="stable")[:n]]


def _select(state, model, cfg, strategy, round_seed):
    if strategy == "orderly":
        return query_orderly(state, cfg.n_per_query)
    if strategy == "random":
        return query_random(state, cfg.n_per_query, seed=round_seed)
    if strategy == "uncertainty":
        return query_uncertainty(state, model, cfg.n_per_query)
    # run_active_learning admits only STRATEGIES, so this is "elm"
    return query_elm(state, model, cfg.n_per_query, cfg, inner_seed=round_seed)


def _round_seed(base_seed, rnd):
    # distinct deterministic stream per round
    return int(np.random.SeedSequence([base_seed, rnd]).generate_state(1)[0])


def run_active_learning(matrix, model_cfg, cfg, strategy, seed):
    """Full scheme: init, then train/record/query for n_max_query rounds
    with strategy (one of STRATEGIES), each round training model_cfg (an
    AlsdlConfig) under its own seed, drawn from seed. An unknown strategy
    raises ValueError before any training.

    Returns the learning curve (one point per training round, evaluated on
    every observed position against ground truth) and the final model.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: "
                         f"{', '.join(STRATEGIES)}")
    state = init_state(matrix, cfg, seed)
    positions = matrix.observed_positions()
    truths = matrix.values.ravel()[positions]

    model, curve = None, []
    for rnd in range(cfg.n_max_query + 1):
        train_matrix = matrix.with_mask(state.labeled)
        model, _ = alsdl_mod.train_alsdl(train_matrix, model_cfg,
                                         _round_seed(seed, 2 * rnd))

        scorer = Scorer(truths, 1)
        scorer.add(alsdl_mod.alsdl_predict_positions(model, positions))
        curve.append(LearningCurvePoint(
            round=rnd, n_labeled=len(state.labeled),
            full_rmse=float(scorer.loss[0]),
            full_accuracy=float(scorer.accuracy[0])))

        if rnd == cfg.n_max_query or not state.pool.size:
            break
        picks = _select(state, model, cfg, strategy,
                        _round_seed(seed, 2 * rnd + 1))
        state.pool = state.pool[~np.isin(state.pool, picks)]
        state.labeled = np.concatenate([state.labeled, picks])
    return curve, model
