import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import alsal.active as active_mod
import alsal.alsdl as alsdl_mod
from alsal.active import (ActiveConfig, expected_losses, init_state,
                          query_elm, query_orderly, query_random,
                          query_uncertainty, run_active_learning)
from alsal.als import AlsConfig, DivergenceError, init_embeddings
from alsal.alsdl import AlsdlConfig, alsdl_predict_positions, train_alsdl
from alsal.data import MaskedMatrix, generate_synthetic
from oracles import rmse, stepped_als
from alsal.mlp import LossConfig, MlpTrainConfig
from alsal.runner import ExperimentConfig, SyntheticSpec, run_al_study


def fast_model_cfg(als_epochs=40, mlp_epochs=40):
    return AlsdlConfig(
        als=AlsConfig(d=2, epochs=als_epochs),
        mlp_train=MlpTrainConfig(epochs=mlp_epochs),
        loss=LossConfig(),
        hidden_sizes=(6, 3))


def brute_force_elm(state, model, cfg, inner_seed):
    """Exhaustive per-candidate retrain with per-element update loops.

    Independent of the engine: the inner model is trained by explicit
    elementwise evaluation of the two derivative formulas (x step first,
    w gradient recomputed after x moves), and the expected loss is an
    explicit loop over the scoring set.
    """
    matrix = state.matrix
    m, n = matrix.shape
    labeled = [divmod(int(p), n) for p in state.labeled]
    pool = [divmod(int(p), n) for p in state.pool]
    candidates = sorted(pool)
    pool_pred = dict(zip(pool,
                         alsdl_predict_positions(model, state.pool)))
    d = model.cfg.als.d
    alpha = model.cfg.als.learning_rate
    best = None
    for cand in candidates:
        train_set = {p: matrix.values[p] for p in labeled}
        train_set[cand] = pool_pred[cand]

        init = init_embeddings(m, n, AlsConfig(d=d), inner_seed)
        x = [[init.x[i, l] for l in range(d)] for i in range(m)]
        w = [[init.w[l, j] for j in range(n)] for l in range(d)]
        for _ in range(cfg.elm_inner_epochs):
            x_new = [row[:] for row in x]
            for i in range(m):
                for k in range(d):
                    g = 0.0
                    for j in range(n):
                        if (i, j) in train_set:
                            resid = sum(x[i][l] * w[l][j]
                                        for l in range(d)) - train_set[(i, j)]
                            g += resid * w[k][j]
                    x_new[i][k] = x[i][k] - alpha * g
            x = x_new
            w_new = [row[:] for row in w]
            for k in range(d):
                for j in range(n):
                    g = 0.0
                    for i in range(m):
                        if (i, j) in train_set:
                            resid = sum(x[i][l] * w[l][j]
                                        for l in range(d)) - train_set[(i, j)]
                            g += resid * x[i][k]
                    w_new[k][j] = w[k][j] - alpha * g
            w = w_new

        sq_sum, count = 0.0, 0
        for p in labeled:
            pred = sum(x[p[0]][l] * w[l][p[1]] for l in range(d))
            sq_sum += (pred - matrix.values[p]) ** 2
            count += 1
        for p in pool:
            if p == cand:
                continue
            pred = sum(x[p[0]][l] * w[l][p[1]] for l in range(d))
            sq_sum += (pred - pool_pred[p]) ** 2
            count += 1
        score = (sq_sum / count) ** 0.5
        if best is None or score < best[0]:
            best = (score, cand)
    return best[1][0] * n + best[1][1]


def per_candidate_expected_losses(state, model, cfg, inner_seed):
    """Reference for the stacked ELM: one stepped_als and one rmse call
    per candidate, on its own MaskedMatrix, with positions as (i, j) tuples
    between its flat-index input and output. stepped_als checks every
    epoch, so a divergence is found without train_als's replay.
    """
    matrix = state.matrix
    n_cols = matrix.shape[1]
    labeled = [divmod(int(p), n_cols) for p in state.labeled]
    pool = [divmod(int(p), n_cols) for p in state.pool]
    candidates = sorted(pool, key=lambda p: p[0] * n_cols + p[1])
    if (cfg.elm_candidate_subsample is not None
            and cfg.elm_candidate_subsample < len(candidates)):
        rng = np.random.default_rng(inner_seed)
        keep = rng.choice(len(candidates), size=cfg.elm_candidate_subsample,
                          replace=False)
        candidates = [candidates[i] for i in sorted(keep)]
    pool_preds = dict(zip(pool, alsdl_mod.alsdl_predict_positions(
        model, state.pool)))

    inner_cfg = replace(model.cfg.als, epochs=cfg.elm_inner_epochs)
    init = init_embeddings(*matrix.shape, inner_cfg, inner_seed)
    base_values = np.zeros(matrix.shape)
    base_mask = np.zeros(matrix.shape)
    for i, j in labeled:
        base_values[i, j] = matrix.values[i, j]
        base_mask[i, j] = 1.0

    scores = []
    for cand in candidates:
        values = base_values.copy()
        mask = base_mask.copy()
        values[cand] = pool_preds[cand]
        mask[cand] = 1.0
        train_matrix = MaskedMatrix(values, mask)
        emb = stepped_als(train_matrix, inner_cfg, init)
        full = emb.x @ emb.w

        score_pos = labeled + [p for p in pool if p != cand]
        preds = np.array([full[p] for p in score_pos])
        labels = np.array([matrix.values[p] for p in labeled]
                          + [pool_preds[p] for p in pool if p != cand])
        scores.append(rmse(preds, labels))
    return (np.array([i * n_cols + j for i, j in candidates], dtype=np.intp),
            np.array(scores))


class TestInitState:
    def test_budgets(self):
        mat, _ = generate_synthetic(35, 34, 5, 0.0, seed=0)
        state = init_state(mat, ActiveConfig(n_init=40), 0)
        assert len(state.labeled) == 40
        assert len(state.pool) == 1150
        assert not np.isin(state.labeled, state.pool).any()

    def test_full_budget_empties_pool(self):
        mat, _ = generate_synthetic(3, 3, 1, 0.0, seed=1)
        state = init_state(mat, ActiveConfig(n_init=9), 0)
        assert state.pool.tolist() == []

    def test_deterministic(self):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=2)
        cfg = ActiveConfig(n_init=10)
        assert (init_state(mat, cfg, 5).labeled.tolist()
                == init_state(mat, cfg, 5).labeled.tolist())

    def test_budget_exceeds_pool(self):
        mat, _ = generate_synthetic(2, 2, 1, 0.0, seed=3)
        with pytest.raises(ValueError):
            init_state(mat, ActiveConfig(n_init=5), 0)


class TestQueryOrderly:
    def _state(self, m=2, n=2, pool=None):
        mat, _ = generate_synthetic(m, n, 1, 0.0, seed=4)
        state = init_state(mat, ActiveConfig(n_init=1), 0)
        if pool is not None:
            state.pool = np.array(pool, dtype=np.intp)
            observed = mat.observed_positions()
            state.labeled = observed[~np.isin(observed, pool)]
        return state

    def test_row_major_from_start(self):
        state = self._state(pool=[0, 1, 2, 3])
        assert query_orderly(state, 2).tolist() == [0, 1]

    def test_whole_pool_when_n_large(self):
        state = self._state(pool=[1, 2])
        assert query_orderly(state, 10).tolist() == [1, 2]

    def test_skips_labeled(self):
        state = self._state(pool=[1, 2, 3])
        assert query_orderly(state, 1).tolist() == [1]

    def test_empty_pool(self):
        state = self._state(pool=[])
        with pytest.raises(ValueError):
            query_orderly(state, 1)


class TestEmptyPool:
    @pytest.mark.parametrize("query", [
        lambda state: query_random(state, 1, seed=0),
        lambda state: query_uncertainty(state, None, 1),
        lambda state: query_elm(state, None, 1, ActiveConfig(), inner_seed=0)],
        ids=["random", "uncertainty", "elm"])
    def test_rejected(self, query):
        """Each query, as orderly's does, raises ValueError on an empty
        pool before it reads the model."""
        mat, _ = generate_synthetic(2, 2, 1, 0.0, seed=4)
        state = init_state(mat, ActiveConfig(n_init=4), 0)
        assert not state.pool.size
        with pytest.raises(ValueError, match="empty pool"):
            query(state)


class TestQueryRandom:
    def test_full_pool_is_permutation(self):
        mat, _ = generate_synthetic(3, 3, 1, 0.0, seed=5)
        state = init_state(mat, ActiveConfig(n_init=2), 0)
        got = query_random(state, len(state.pool), seed=1)
        assert sorted(got.tolist()) == sorted(state.pool.tolist())

    def test_single_item_pool(self):
        mat, _ = generate_synthetic(2, 2, 1, 0.0, seed=6)
        state = init_state(mat, ActiveConfig(n_init=3), 0)
        assert query_random(state, 1, seed=0).tolist() == state.pool.tolist()

    def test_deterministic(self):
        mat, _ = generate_synthetic(4, 4, 1, 0.0, seed=7)
        state = init_state(mat, ActiveConfig(n_init=4), 0)
        assert (query_random(state, 3, seed=2).tolist()
                == query_random(state, 3, seed=2).tolist())


class TestQueryUncertainty:
    def test_closest_to_boundary(self):
        mat, _ = generate_synthetic(1, 3, 1, 0.0, seed=8)
        mat.values[:] = [[0.5, -0.01, 0.3]]
        state = init_state(mat, ActiveConfig(n_init=1), 0)
        state.labeled = np.array([], dtype=np.intp)
        state.pool = np.array([0, 1, 2], dtype=np.intp)

        class Stub:
            pass
        model = Stub()
        import alsal.active as active_mod
        real = active_mod.alsdl_mod.alsdl_predict_positions
        try:
            active_mod.alsdl_mod.alsdl_predict_positions = \
                lambda m, pos: mat.values.ravel()[pos]
            assert query_uncertainty(state, model, 1).tolist() == [1]
            assert query_uncertainty(state, model, 3).tolist() == [1, 2, 0]
        finally:
            active_mod.alsdl_mod.alsdl_predict_positions = real

    def test_boundary_tie_broken_row_major(self):
        mat, _ = generate_synthetic(2, 2, 1, 0.0, seed=9)
        state = init_state(mat, ActiveConfig(n_init=1), 0)
        state.labeled = np.array([], dtype=np.intp)
        state.pool = np.array([3, 1], dtype=np.intp)  # (1, 1), (0, 1)
        # 2 x 3: (0, 2) = 2 before (1, 0) = 3 only in row-major order
        wide, _ = generate_synthetic(2, 3, 1, 0.0, seed=9)
        wide_state = init_state(wide, ActiveConfig(n_init=1), 0)
        wide_state.labeled = np.array([], dtype=np.intp)
        wide_state.pool = np.array([3, 2], dtype=np.intp)
        import alsal.active as active_mod
        real = active_mod.alsdl_mod.alsdl_predict_positions
        try:
            active_mod.alsdl_mod.alsdl_predict_positions = \
                lambda m, pos: np.zeros(len(pos))
            assert query_uncertainty(state, None, 2).tolist() == [1, 3]
            assert query_uncertainty(wide_state, None, 2).tolist() == [2, 3]
        finally:
            active_mod.alsdl_mod.alsdl_predict_positions = real


class TestQueryElm:
    def test_single_candidate_pool(self):
        mat, _ = generate_synthetic(2, 2, 1, 0.0, seed=10)
        state = init_state(mat, ActiveConfig(n_init=3), 0)
        assert len(state.pool) == 1
        cfg = ActiveConfig(n_init=3, elm_inner_epochs=20)
        model, _ = train_alsdl(mat.with_mask(state.labeled),
                               fast_model_cfg(als_epochs=20, mlp_epochs=20), 0)
        assert (query_elm(state, model, 1, cfg, inner_seed=0).tolist()
                == state.pool.tolist())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        mat, _ = generate_synthetic(4, 4, 1, 0.0, seed=seed)
        cfg = ActiveConfig(n_init=8, elm_inner_epochs=50)
        state = init_state(mat, cfg, seed)
        model, _ = train_alsdl(mat.with_mask(state.labeled),
                               fast_model_cfg(), seed + 30)
        got = query_elm(state, model, 1, cfg, inner_seed=seed + 77)
        expected = brute_force_elm(state, model, cfg, inner_seed=seed + 77)
        assert got.tolist() == [expected]


class TestActiveConfigChecks:
    @pytest.mark.parametrize("field, value", [
        ("elm_candidate_subsample", 0), ("elm_candidate_subsample", -3),
        ("elm_candidate_subsample", 2.5), ("n_per_query", 0),
        ("n_per_query", -1), ("n_per_query", True), ("n_init", 0),
        ("n_init", 4.0), ("elm_inner_epochs", 0)])
    def test_rejects_non_positive_counts(self, field, value):
        # 0 ran rounds that labelled nothing; -3 died inside Generator.choice;
        # True is an integer to isinstance, but never a count
        message = f"{field} must be (null or )?an integer >= 1, not"
        with pytest.raises(ValueError, match=message):
            ActiveConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            replace(ActiveConfig(), **{field: value})

    def test_accepts_one_and_unset_subsample(self):
        cfg = ActiveConfig(n_per_query=1, elm_candidate_subsample=1)
        assert replace(cfg, elm_candidate_subsample=None).n_per_query == 1

    @pytest.mark.parametrize("cls, field, value, kind", [
        (ActiveConfig, "n_max_query", -1, ">= 0"),
        (ActiveConfig, "n_max_query", 1.5, ">= 0"),
        (AlsConfig, "d", 0, ">= 1"),
        (AlsConfig, "epochs", 10.5, ">= 1"),
        (AlsConfig, "epochs", False, ">= 1"),
        (MlpTrainConfig, "epochs", -1, ">= 0"),
        (MlpTrainConfig, "epochs", True, ">= 0")])
    def test_rejects_bad_counts(self, cls, field, value, kind):
        message = f"{field} must be an integer {kind}, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{field: value})

    def test_rejects_unknown_strategy(self, monkeypatch):
        # run_active_learning with strategy "rand" once trained round 0 and
        # only then failed in _select; now it fails before any training
        def trained(*args, **kwargs):
            raise AssertionError("round 0 trained")
        monkeypatch.setattr(alsdl_mod, "train_alsdl", trained)
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=0)
        # n_init = 40 exceeds the 16 positions: the strategy is checked first
        for strategy, cfg in (("rand", ActiveConfig(n_init=6)),
                              ("ELM", ActiveConfig())):
            message = (f"unknown strategy {strategy!r}; known: orderly, "
                       "random, uncertainty, elm")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_active_learning(mat, fast_model_cfg(), cfg, strategy, 0)

    def test_accepts_lowest_counts(self):
        assert ActiveConfig(n_init=1, n_max_query=0,
                            elm_inner_epochs=1).n_max_query == 0
        assert AlsConfig(d=1, epochs=np.int64(1)).epochs == 1
        assert MlpTrainConfig(epochs=0).epochs == 0


class TestElmSubsampling:
    def test_subsample_restricts_candidates(self):
        mat, _ = generate_synthetic(4, 4, 1, 0.0, seed=20)
        cfg = ActiveConfig(n_init=8, elm_inner_epochs=20,
                           elm_candidate_subsample=3)
        state = init_state(mat, cfg, 0)
        model, _ = train_alsdl(mat.with_mask(state.labeled),
                               fast_model_cfg(), 60)
        got = query_elm(state, model, 3, cfg, inner_seed=5)
        assert len(got) == 3
        assert set(got.tolist()) <= set(state.pool.tolist())

    def test_subsample_deterministic(self):
        mat, _ = generate_synthetic(4, 4, 1, 0.0, seed=21)
        cfg = ActiveConfig(n_init=6, elm_inner_epochs=20,
                           elm_candidate_subsample=4)
        state = init_state(mat, cfg, 0)
        model, _ = train_alsdl(mat.with_mask(state.labeled),
                               fast_model_cfg(), 61)
        a = query_elm(state, model, 2, cfg, inner_seed=9)
        b = query_elm(state, model, 2, cfg, inner_seed=9)
        assert a.tolist() == b.tolist()


class TestRunActiveLearning:
    def test_point_count_and_budgets(self):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=11)
        cfg = ActiveConfig(n_init=4, n_per_query=4, n_max_query=3)
        curve, model = run_active_learning(mat, fast_model_cfg(), cfg,
                                           "random", 1)
        assert len(curve) == 4
        assert [pt.n_labeled for pt in curve] == [4, 8, 12, 16]
        assert [pt.round for pt in curve] == [0, 1, 2, 3]
        # the curve scores the final model against every true entry
        positions = mat.observed_positions()
        truths = [mat.values[divmod(int(p), 6)] for p in positions]
        assert curve[-1].full_rmse == rmse(
            alsdl_predict_positions(model, positions), truths)

    def test_zero_max_query_single_point(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=12)
        cfg = ActiveConfig(n_init=5, n_per_query=5, n_max_query=0)
        curve, _ = run_active_learning(mat, fast_model_cfg(), cfg,
                                       "orderly", 0)
        assert len(curve) == 1
        assert curve[0].n_labeled == 5

    def test_deterministic(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.1, seed=13)
        cfg = ActiveConfig(n_init=5, n_per_query=5, n_max_query=2)
        c1, _ = run_active_learning(mat, fast_model_cfg(), cfg, "random", 3)
        c2, _ = run_active_learning(mat, fast_model_cfg(), cfg, "random", 3)
        assert c1 == c2

    def test_pool_exhaustion_stops_early(self):
        mat, _ = generate_synthetic(3, 3, 1, 0.0, seed=14)
        cfg = ActiveConfig(n_init=3, n_per_query=6, n_max_query=5)
        curve, _ = run_active_learning(mat, fast_model_cfg(), cfg,
                                       "orderly", 0)
        assert curve[-1].n_labeled == 9
        assert len(curve) == 2

    @pytest.mark.parametrize("strategy",
                             ["orderly", "random", "uncertainty", "elm"])
    def test_conservation_no_double_query(self, strategy):
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=15)
        cfg = ActiveConfig(n_init=4, n_per_query=3, n_max_query=2,
                           elm_inner_epochs=10)
        curve, _ = run_active_learning(mat, fast_model_cfg(), cfg,
                                       strategy, 2)
        assert [pt.n_labeled for pt in curve] == [4, 7, 10]


def elm_problem(m=6, n=6, n_init=10, seed=0, noise_sd=0.1, inner_als=None,
                **cfg_kw):
    """A labelled state, its current model, and an ELM config. inner_als
    replaces fields of the model's recorded ALS config, which ELM's
    retrains read, without retraining the model."""
    mat, _ = generate_synthetic(m, n, 2, noise_sd, seed=seed)
    cfg = ActiveConfig(n_init=n_init, elm_inner_epochs=30, **cfg_kw)
    state = init_state(mat, cfg, seed)
    model, _ = train_alsdl(mat.with_mask(state.labeled), fast_model_cfg(), seed)
    model.cfg = replace(model.cfg, als=replace(model.cfg.als,
                                               **(inner_als or {})))
    return state, model, cfg


def set_chunk(monkeypatch, shape, candidates):
    m, n = shape
    monkeypatch.setattr(active_mod, "ELM_CHUNK_BYTES", candidates * 8 * m * n)


class TestStackedElmExact:
    """The stacked ELM returns the per-candidate loop's candidates and
    scores, equal with ==."""

    def assert_exact(self, state, model, cfg, inner_seed=5):
        got = expected_losses(state, model, cfg, inner_seed)
        want = per_candidate_expected_losses(state, model, cfg, inner_seed)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()

    def test_chunk_size_not_dividing_candidates(self, monkeypatch):
        state, model, cfg = elm_problem()
        assert len(state.pool) == 26
        set_chunk(monkeypatch, state.matrix.shape, 3)
        stacks = []
        epoch = active_mod.als_mod.als_epoch
        monkeypatch.setattr(active_mod.als_mod, "als_epoch",
                            lambda mat, emb, *a, **k: stacks.append(
                                emb.x.shape[:-2]) or epoch(mat, emb, *a, **k))
        self.assert_exact(state, model, cfg)
        assert set(stacks) == {(3,), (2,), ()}  # stacked, then reference

    def test_unordered_pool(self, monkeypatch):
        state, model, cfg = elm_problem(seed=1)
        np.random.default_rng(0).shuffle(state.pool)
        set_chunk(monkeypatch, state.matrix.shape, 4)
        self.assert_exact(state, model, cfg)

    def test_candidate_subsample(self):
        state, model, cfg = elm_problem(m=35, n=34, n_init=40, seed=2,
                                        elm_candidate_subsample=20)
        self.assert_exact(state, model, cfg, inner_seed=11)

    def test_single_candidate_pool(self):
        state, model, cfg = elm_problem(m=2, n=2, n_init=3, seed=4)
        assert len(state.pool) == 1
        self.assert_exact(state, model, cfg)

    def test_exact_tie_ordered_by_candidate_index(self, monkeypatch):
        # zero init is a fixed point of training and every pool position
        # gets the same prediction, so every candidate scores the same
        state, model, cfg = elm_problem(seed=5)
        monkeypatch.setattr(active_mod.als_mod, "INIT_SCALE", 0.0)
        monkeypatch.setattr(alsdl_mod, "alsdl_predict_positions",
                            lambda model, pos: np.full(len(pos), 0.25))
        state.pool = state.pool[::-1]
        set_chunk(monkeypatch, state.matrix.shape, 4)
        candidates, scores = expected_losses(state, model, cfg, 5)
        assert len(set(scores)) == 1
        self.assert_exact(state, model, cfg)
        assert (query_elm(state, model, 5, cfg, inner_seed=5).tolist()
                == candidates[:5].tolist())
        assert candidates[:5].tolist() == sorted(state.pool.tolist())[:5]


class TestElmMemory:
    """An ELM query scores each chunk in the chunk's own values and mask
    arrays, so its peak is that of training a chunk."""

    def test_peak_is_about_training_one_chunk(self):
        # the benchmark's query: 35 x 34 fully observed, 40 labelled, 96
        # candidates in chunks of 24, d = 5
        m, n, d = 35, 34, 5
        c = active_mod.ELM_CHUNK_BYTES // (8 * m * n)
        mat, _ = generate_synthetic(m, n, d, 0.1, seed=0)
        cfg = ActiveConfig(n_init=40, elm_inner_epochs=5,
                           elm_candidate_subsample=96)
        state = init_state(mat, cfg, 0)
        model, _ = train_alsdl(mat.with_mask(state.labeled), AlsdlConfig(
            als=AlsConfig(d=d, epochs=20), mlp_train=MlpTrainConfig(epochs=5),
            hidden_sizes=(6, 3)), 0)
        chunk_array = c * m * n * 8  # 228 KB
        kept = (3 * chunk_array  # values and mask, train_als's residual
                + 2 * c * (m * d + d * n) * 8  # embeddings and gradients
                + len(state.pool) * 8)  # pool predictions; 827 KB in all
        expected_losses(state, model, cfg, 3)  # first-call caches
        tracemalloc.start()
        try:
            expected_losses(state, model, cfg, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the query's few m * n vectors and numpy's temporaries come on
        # top (7% here); scoring in fresh (c, m * n) arrays peaked at 1.57
        # times the kept arrays, with the last chunk's scoring arrays and
        # embeddings still alive while the next chunk trained
        assert peak < 1.15 * kept


# a divergence is an error with its epoch, not a numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedElmDivergence:
    # (0, 1.1): only candidate 23 of 26 diverges, in the eighth chunk;
    # (2, 1.5): candidate 1 diverges at epoch 18, candidate 2 in the same
    # chunk already at epoch 13; (0, 100.0): every candidate diverges
    @pytest.mark.parametrize("seed, learning_rate",
                             [(0, 1.1), (2, 1.5), (0, 100.0)])
    def test_same_error_as_per_candidate_loop(self, monkeypatch, seed,
                                              learning_rate):
        inner_als = {"learning_rate": learning_rate}
        state, model, cfg = elm_problem(seed=seed, noise_sd=0.0,
                                        inner_als=inner_als)
        cfg = replace(cfg, elm_inner_epochs=200)
        set_chunk(monkeypatch, state.matrix.shape, 3)
        with pytest.raises(DivergenceError) as want:
            per_candidate_expected_losses(state, model, cfg, 7)
        with pytest.raises(DivergenceError) as got:
            expected_losses(state, model, cfg, 7)
        assert got.value.epoch == want.value.epoch

    def test_same_diverged_row_from_runner(self, monkeypatch):
        config = ExperimentConfig(
            synthetic=SyntheticSpec(m=6, n=6, rank=2, noise_sd=0.0),
            strategies=("elm",), seeds=(0,),
            alsdl=AlsdlConfig(als=AlsConfig(d=2, epochs=2, learning_rate=100.0),
                              mlp_train=MlpTrainConfig(epochs=10),
                              hidden_sizes=(6, 3)),
            active=ActiveConfig(n_init=10, n_per_query=3, n_max_query=2,
                                elm_inner_epochs=200))
        set_chunk(monkeypatch, (6, 6), 3)
        got = run_al_study(config).learning_curves
        monkeypatch.setattr(active_mod, "expected_losses",
                            per_candidate_expected_losses)
        want = run_al_study(config).learning_curves
        assert got == want
        assert got[-1]["status"] == "diverged"
        # past the 2 epochs of the model's own ALS: the ELM retrain diverged
        assert got[-1]["diverged_epoch"] >= 2
