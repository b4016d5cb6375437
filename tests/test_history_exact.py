"""The per-epoch history path against the tuple-list code it replaced.

The reference_* functions below are the scalar implementations that
train_als, train_alsdl, penalized_loss, MaskedMatrix.with_mask and
alsdl.build_features used before positions became flat index arrays.
They take positions as (i, j) pairs; observed_pairs and to_pairs convert
at their entry. Results must match them with ==, not approximately: the
array forms do the same float64 arithmetic on the same values.
"""

import numpy as np
import pytest

from alsal.als import AlsConfig, als_epoch, init_embeddings, train_als
from alsal.alsdl import AlsdlConfig, build_features, train_alsdl
from alsal.data import DataError, MaskedMatrix, generate_synthetic
from alsal.metrics import (EvalPoint, FoldSplit, boundary_accuracy,
                           kfold_split, rmse)
from alsal.mlp import (LossConfig, MlpTrainConfig, backward, init_mlp,
                       penalized_loss, predict_batch, rmsprop_step,
                       sign_penalty)

THREE_BOUNDARIES = LossConfig(boundaries=(-0.5, 0.0, 0.5))


def to_pairs(positions, n_cols):
    return [divmod(int(p), n_cols) for p in positions]


def observed_pairs(matrix):
    return to_pairs(matrix.observed_positions(), matrix.shape[1])


def reference_sign_penalty(pred, truth, boundaries):
    k = len(boundaries)
    s = sum(np.sign((pred - c) * (truth - c)) for c in boundaries)
    return int(np.sign(s - k + 1))


def reference_penalized_loss(preds, truths, cfg):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    penalties = [reference_sign_penalty(p, t, cfg.boundaries)
                 for p, t in zip(preds, truths)]
    return rmse(preds, truths) - cfg.beta * float(np.mean(penalties))


def reference_gather(matrix, full_pred, positions):
    rows = [p[0] for p in positions]
    cols = [p[1] for p in positions]
    return full_pred[rows, cols], matrix.values[rows, cols]


def reference_with_mask(matrix, positions):
    mask = np.zeros_like(matrix.mask)
    for i, j in positions:
        if matrix.mask[i, j] != 1:
            raise DataError(f"position {(i, j)} is not observed")
        mask[i, j] = 1.0
    return MaskedMatrix(matrix.values.copy(), mask, list(matrix.cell_index),
                        list(matrix.molecule_index), matrix.target)


def reference_feature_table(emb, positions, molecule_first=False):
    rows = []
    for i, j in positions:
        parts = ((emb.w[:, j], emb.x[i]) if molecule_first
                 else (emb.x[i], emb.w[:, j]))
        rows.append(np.concatenate(parts))
    return np.stack(rows)


def reference_train_als(matrix, cfg, split=None):
    positions = observed_pairs(matrix)
    if split is not None:
        pos_train = [positions[i] for i in split.train_indices]
        pos_test = [positions[i] for i in split.test_indices]
        train_matrix = reference_with_mask(matrix, pos_train)
    else:
        pos_train, pos_test = positions, []
        train_matrix = matrix
    emb = init_embeddings(*matrix.shape, cfg)
    history = []
    for epoch in range(cfg.epochs):
        emb = als_epoch(train_matrix, emb, cfg.learning_rate,
                        simultaneous=cfg.simultaneous_updates)
        full = emb.x @ emb.w
        pt, tt = reference_gather(matrix, full, pos_train)
        point = {"epoch_or_round": epoch, "train_loss": rmse(pt, tt),
                 "train_accuracy": boundary_accuracy(pt, tt)}
        if pos_test:
            pv, tv = reference_gather(matrix, full, pos_test)
            point["test_loss"] = rmse(pv, tv)
            point["test_accuracy"] = boundary_accuracy(pv, tv)
        history.append(EvalPoint(**point))
    return emb, history


def reference_train_alsdl(matrix, cfg, split=None):
    emb, als_history = reference_train_als(matrix, cfg.als, split)
    positions = observed_pairs(matrix)
    inputs = reference_feature_table(emb, positions, cfg.molecule_first)
    truths = matrix.values[tuple(zip(*positions))]
    net = init_mlp([2 * emb.d, *cfg.hidden_sizes, 1], seed=cfg.mlp_train.seed)
    if split is not None:
        tr = np.asarray(split.train_indices, dtype=int)
        te = np.asarray(split.test_indices, dtype=int)
    else:
        tr, te = np.arange(len(positions)), None
    loss_cfg = cfg.loss
    history = []
    for epoch in range(cfg.mlp_train.epochs):
        grads = backward(net, inputs[tr], truths[tr], loss_cfg)
        net = rmsprop_step(net, grads, cfg.mlp_train)
        preds = predict_batch(net, inputs)
        b0 = loss_cfg.boundaries[0]
        point = {"epoch_or_round": cfg.als.epochs + epoch,
                 "train_loss": rmse(preds[tr], truths[tr]),
                 "train_accuracy": boundary_accuracy(preds[tr], truths[tr], b0),
                 "train_penalized": reference_penalized_loss(
                     preds[tr], truths[tr], loss_cfg)}
        if te is not None and te.size:
            point.update(
                test_loss=rmse(preds[te], truths[te]),
                test_accuracy=boundary_accuracy(preds[te], truths[te], b0),
                test_penalized=reference_penalized_loss(
                    preds[te], truths[te], loss_cfg))
        history.append(EvalPoint(**point))
    return emb, net, als_history + history


def holey_matrix(seed=3):
    """7x6 noisy low-rank matrix with unobserved holes and truths exactly on
    the boundaries -0.5, 0 and 0.5."""
    mat, _ = generate_synthetic(7, 6, 2, 0.2, seed=seed)
    mat.values[0, 0], mat.values[2, 3], mat.values[5, 1] = 0.0, -0.5, 0.5
    mat.mask[1, 2] = mat.mask[4, 0] = mat.mask[6, 5] = 0.0
    return mat


def assert_same_curve(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g, w)  # field by field, exact


def split_for(mat, seed=0):
    return kfold_split(len(mat.observed_positions()), 5, seed)[1]


class TestAlsHistory:
    @pytest.mark.parametrize("simultaneous", [False, True])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_reference(self, simultaneous, with_split):
        mat = holey_matrix()
        split = split_for(mat) if with_split else None
        cfg = AlsConfig(d=2, epochs=40, learning_rate=0.05, seed=4,
                        simultaneous_updates=simultaneous)
        emb, hist = train_als(mat, cfg, eval_positions=split)
        emb_ref, hist_ref = reference_train_als(mat, cfg, split)
        np.testing.assert_array_equal(emb.x, emb_ref.x)
        np.testing.assert_array_equal(emb.w, emb_ref.w)
        assert_same_curve(hist, hist_ref)
        assert (hist[0].test_loss is not None) == with_split

    def test_empty_test_split(self):
        mat = holey_matrix()
        n_obs = len(mat.observed_positions())
        split = FoldSplit(tuple(range(n_obs)), ())
        cfg = AlsConfig(d=2, epochs=10, seed=1)
        _, hist = train_als(mat, cfg, eval_positions=split)
        assert_same_curve(hist, reference_train_als(mat, cfg, split)[1])
        assert hist[-1].test_loss is None


class TestAlsdlHistory:
    @pytest.mark.parametrize("loss", [LossConfig(), THREE_BOUNDARIES])
    @pytest.mark.parametrize("molecule_first", [False, True])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_reference(self, loss, molecule_first, with_split):
        mat = holey_matrix(seed=5)
        split = split_for(mat, seed=1) if with_split else None
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=15, seed=2),
                          mlp_train=MlpTrainConfig(epochs=25, seed=3),
                          loss=loss, hidden_sizes=(8, 4),
                          molecule_first=molecule_first)
        model, hist = train_alsdl(mat, cfg, eval_split=split)
        _, net_ref, hist_ref = reference_train_alsdl(mat, cfg, split)
        for w, w_ref in zip(model.net.weights, net_ref.weights):
            np.testing.assert_array_equal(w, w_ref)
        assert_same_curve(hist, hist_ref)
        assert (hist[-1].test_penalized is not None) == with_split


class TestPenalizedLossReference:
    @pytest.mark.parametrize("cfg", [LossConfig(beta=0.3), THREE_BOUNDARIES])
    def test_random_inputs(self, cfg, rng):
        p, t = rng.normal(size=257), rng.normal(size=257)
        assert penalized_loss(p, t, cfg) == reference_penalized_loss(p, t, cfg)

    @pytest.mark.parametrize("cfg", [LossConfig(beta=0.3), THREE_BOUNDARIES])
    def test_exact_boundary_hits(self, cfg):
        grid = [-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        assert (sign_penalty(p, t, cfg.boundaries) == 0).any()
        assert penalized_loss(p, t, cfg) == reference_penalized_loss(p, t, cfg)
        # all zeros: RMSE 0, and every penalty 0
        zeros = np.zeros(5)
        assert penalized_loss(zeros, zeros, cfg) == 0.0


class TestWithMask:
    def test_matches_reference(self):
        mat = holey_matrix()
        positions = mat.observed_positions()[::3]
        want = reference_with_mask(mat, to_pairs(positions, 6))
        for given in (positions, positions.tolist()):
            got = mat.with_mask(given)
            np.testing.assert_array_equal(got.mask, want.mask)
            np.testing.assert_array_equal(got.values, want.values)

    def test_empty_positions(self):
        mat = holey_matrix()
        assert not mat.with_mask([]).mask.any()

    def test_names_first_unobserved_in_input_order(self):
        mat = holey_matrix()  # unobserved: (1, 2), (4, 0), (6, 5)
        positions = [0 * 6 + 1, 6 * 6 + 5, 3 * 6 + 3, 1 * 6 + 2]
        with pytest.raises(DataError) as want:
            reference_with_mask(mat, to_pairs(positions, 6))
        with pytest.raises(DataError, match=r"position \(6, 5\) is not") as e:
            mat.with_mask(positions)
        assert str(e.value) == str(want.value)


class TestFeatureTable:
    @pytest.mark.parametrize("molecule_first", [False, True])
    def test_matches_stacked_rows(self, molecule_first):
        mat, _ = generate_synthetic(5, 4, 2, 0.0, seed=1)
        emb = init_embeddings(5, 4, AlsConfig(d=3, seed=2))
        positions = mat.observed_positions()[::-1]
        want = reference_feature_table(emb, to_pairs(positions, 4),
                                       molecule_first)
        for given in (positions, positions.tolist()):
            np.testing.assert_array_equal(
                build_features(emb, given, molecule_first), want)

    # flat indices into 5 x 4: (0, -1), (-1, 0), (5, 0), and far past the end
    @pytest.mark.parametrize("bad", [[-1], [-4], [20], [2**40]])
    def test_out_of_range(self, bad):
        emb = init_embeddings(5, 4, AlsConfig(d=3, seed=2))
        with pytest.raises(IndexError):
            build_features(emb, [1 * 4 + 1] + bad)
