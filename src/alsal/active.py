"""Pool-based active learning over a fully measured (retrospective) matrix.

The ground-truth matrix plays the oracle: queried positions reveal their
true values. Four query strategies are available: orderly (row-major),
random, uncertainty (closest to the boundary), and expected loss
minimization (ELM), which retrains a cheap factor-only model per candidate
on the labeled set plus the candidate's predicted label and scores it by
expected loss over true-plus-predicted labels. The labeled set, the pool
and every query's picks are position arrays (see alsal.data).

ELM trains a chunk of candidates at a time as one stacked problem, all
from the same init; ELM_CHUNK_BYTES bounds the memory of a chunk (24
candidates at 35x34). A query allocates its chunk arrays once, and every
epoch writes into them in place (als.als_epoch with an als.EpochWork).
Scores are bit-identical to training and scoring each candidate on its
own.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import als as als_mod
from . import alsdl as alsdl_mod
from .metrics import Scorer


STRATEGIES = ("orderly", "random", "uncertainty", "elm")


@dataclass(frozen=True)
class ActiveConfig:
    n_init: int = 40
    n_per_query: int = 40
    n_max_query: int = 8
    strategy: str = "elm"  # one of STRATEGIES
    elm_inner_epochs: int = 200
    # when set, ELM scores only a seeded random subset of the pool
    elm_candidate_subsample: int = None
    orderly_column_major: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_init", 1), ("n_per_query", 1),
                              ("n_max_query", 0), ("elm_inner_epochs", 1)):
            als_mod.check_count(name, getattr(self, name), minimum)
        if self.elm_candidate_subsample is not None:
            als_mod.check_count("elm_candidate_subsample",
                                self.elm_candidate_subsample)
        if self.strategy not in STRATEGIES:
            raise als_mod.ConfigError(
                "strategy", f"unknown strategy {self.strategy!r}; known: "
                f"{', '.join(STRATEGIES)}")


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
    history: list = field(default_factory=list)


def init_state(matrix, cfg):
    positions = matrix.observed_positions()
    if cfg.n_init > positions.size:
        raise ValueError(
            f"n_init = {cfg.n_init} exceeds {positions.size} observed positions")
    rng = np.random.default_rng(cfg.seed)
    picked = rng.choice(positions.size, size=cfg.n_init, replace=False)
    return ActiveState(matrix=matrix, labeled=positions[picked],
                       pool=np.delete(positions, picked))


def query_orderly(state, n, column_major=False):
    if not state.pool.size:
        raise ValueError("empty pool")
    if column_major:
        rows, cols = np.divmod(state.pool, state.matrix.shape[1])
        return state.pool[np.lexsort((rows, cols))[:n]]
    return np.sort(state.pool)[:n]


def query_random(state, n, seed):
    if not state.pool.size:
        raise ValueError("empty pool")
    rng = np.random.default_rng(seed)
    take = min(n, state.pool.size)
    return state.pool[rng.choice(state.pool.size, size=take, replace=False)]


def query_uncertainty(state, model, n, boundary=0.0):
    """Pool positions whose predictions lie closest to the boundary, ties
    in row-major order."""
    if not state.pool.size:
        raise ValueError("empty pool")
    preds = alsdl_mod.alsdl_predict_positions(model, state.pool)
    order = np.lexsort((state.pool, np.abs(preds - boundary)))
    return state.pool[order[:n]]


# Size in bytes of one stacked (candidates x m x n) float64 array, which
# sets how many candidates ELM trains at once: 24 at 35x34. A query holds
# about five such arrays at once (values, mask, residual and scoring). At
# 35x34, 32 candidates were no faster than 24 and raised peak RSS by
# 1.1 MB, against 0.6 MB at 24.
ELM_CHUNK_BYTES = 230_000


class _Stack(NamedTuple):
    """Values and mask of a stack of training problems, (C, m, n) each."""

    values: np.ndarray
    mask: np.ndarray


def expected_losses(state, model, cfg, inner_seed):
    """Pool candidates in row-major order and their ELM scores, as arrays.

    For candidate x+: label it with the current model's prediction, retrain
    a factor-only model on D plus the pseudo-labeled candidate for
    cfg.elm_inner_epochs epochs, and evaluate its RMSE over D's true labels
    joined with current-model predictions on the other pool positions. The
    retrain uses model.cfg.als with the epochs and seed replaced; all
    candidates share the same fresh init seed so scores differ only through
    the candidate.

    Candidates are trained and scored in chunks, each one stacked problem
    whose (C, m, n) arrays take at most ELM_CHUNK_BYTES (C >= 1), in
    buffers allocated once per query. Every
    score is bit-identical to training and scoring that candidate alone,
    and so is the DivergenceError raised for the first candidate, in
    candidate order, whose model diverges.
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

    inner_cfg = replace(model.cfg.als, epochs=cfg.elm_inner_epochs,
                        seed=inner_seed)
    init = als_mod.init_embeddings(m, n, inner_cfg)
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
    # one set of chunk-sized arrays per query; a shorter last chunk uses
    # leading-axis views of them
    values = np.empty((chunk, m * n))
    mask = np.empty((chunk, m * n))
    emb = als_mod.EmbeddingPair(x=np.empty((chunk,) + init.x.shape),
                                w=np.empty((chunk,) + init.w.shape))
    work = als_mod.EpochWork.like(emb)
    scores = np.empty(len(cand))
    for start in range(0, len(cand), chunk):
        k = cand[start:start + chunk]
        c = len(k)
        rows = np.arange(c)
        values[:c] = base_values
        mask[:c] = base_mask
        values[rows, pool[k]] = pool_preds[k]
        mask[rows, pool[k]] = 1.0
        stack = _Stack(values[:c].reshape(c, m, n), mask[:c].reshape(c, m, n))
        c_emb = als_mod.EmbeddingPair(x=emb.x[:c], w=emb.w[:c])
        c_work = als_mod.EpochWork(*(a[:c] for a in work))
        c_emb.x[:] = init.x
        c_emb.w[:] = init.w
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for _ in range(inner_cfg.epochs):
                als_mod.als_epoch(stack, c_emb, inner_cfg.learning_rate,
                                  inner_cfg.simultaneous_updates, c_work)
        finite = (np.isfinite(c_emb.x).all(axis=(1, 2))
                  & np.isfinite(c_emb.w).all(axis=(1, 2)))
        if not finite.all():
            # x - alpha * g is non-finite wherever x is, so a model that
            # diverged at any epoch is still non-finite here. Replaying the
            # first such candidate alone raises its DivergenceError.
            b = int(np.argmin(finite))
            als_mod.train_als(replace(matrix, values=stack.values[b],
                                      mask=stack.mask[b]), inner_cfg)
            raise RuntimeError("stacked ELM diverged where its replay did not")

        full = np.matmul(c_emb.x, c_emb.w, out=c_work.residual).reshape(c, -1)
        sq_err = full[:, score_flat]
        sq_err -= score_labels
        np.square(sq_err, out=sq_err)
        kept = np.ones(sq_err.shape, dtype=bool)
        kept[rows, n_labeled + k] = False
        scores[start:start + c] = np.sqrt(np.mean(
            sq_err[kept].reshape(c, -1), axis=1))
    return pool[cand], scores


def query_elm(state, model, n, cfg, inner_seed=0):
    if not state.pool.size:
        raise ValueError("empty pool")
    candidates, scores = expected_losses(state, model, cfg, inner_seed)
    return candidates[np.argsort(scores, kind="stable")[:n]]


def _select(state, model, cfg, round_seed):
    if cfg.strategy == "orderly":
        return query_orderly(state, cfg.n_per_query, cfg.orderly_column_major)
    if cfg.strategy == "random":
        return query_random(state, cfg.n_per_query, seed=round_seed)
    if cfg.strategy == "uncertainty":
        return query_uncertainty(state, model, cfg.n_per_query)
    # ActiveConfig admits only STRATEGIES, so this is "elm"
    return query_elm(state, model, cfg.n_per_query, cfg, inner_seed=round_seed)


def _round_seed(base_seed, rnd):
    # distinct deterministic stream per round
    return int(np.random.SeedSequence([base_seed, rnd]).generate_state(1)[0])


def run_active_learning(matrix, model_cfg, cfg):
    """Full scheme: init, then train/record/query for n_max_query rounds,
    each round training model_cfg (an AlsdlConfig) under its own seed.

    Returns the learning curve (one point per training round, evaluated on
    every observed position against ground truth) and the final model.
    """
    state = init_state(matrix, cfg)
    positions = matrix.observed_positions()
    truths = matrix.values.ravel()[positions]

    model = None
    for rnd in range(cfg.n_max_query + 1):
        train_matrix = matrix.with_mask(state.labeled)
        model, _ = alsdl_mod.train_alsdl(
            train_matrix, model_cfg.seeded(_round_seed(cfg.seed, 2 * rnd)))

        scorer = Scorer(truths, 1)
        scorer.add(alsdl_mod.alsdl_predict_positions(model, positions))
        state.history.append(LearningCurvePoint(
            round=rnd, n_labeled=len(state.labeled),
            full_rmse=float(scorer.loss[0]),
            full_accuracy=float(scorer.accuracy[0])))

        if rnd == cfg.n_max_query or not state.pool.size:
            break
        picks = _select(state, model, cfg, _round_seed(cfg.seed, 2 * rnd + 1))
        state.pool = state.pool[~np.isin(state.pool, picks)]
        state.labeled = np.concatenate([state.labeled, picks])
    return state.history, model
