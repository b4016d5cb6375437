import numpy as np
import pytest

from alsal.als import AlsConfig, EmbeddingPair, init_embeddings, train_als
from alsal.alsdl import (AlsdlConfig, build_features, alsdl_predict_positions,
                         train_alsdl)
from alsal.data import MaskedMatrix, generate_synthetic
from alsal.metrics import FoldSplit, kfold_split
from alsal.mlp import LossConfig, MlpTrainConfig, predict_batch
from oracles import als_rmse, rmse


def small_config(als_epochs=30, mlp_epochs=300):
    return AlsdlConfig(
        als=AlsConfig(d=2, epochs=als_epochs),
        mlp_train=MlpTrainConfig(epochs=mlp_epochs),
        loss=LossConfig(),
        hidden_sizes=(8, 4))


class TestBuildFeatures:
    def test_concatenation_order(self):
        emb = EmbeddingPair(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(build_features(emb, [0]),
                                      [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_embeddings(self):
        emb = EmbeddingPair(np.zeros((2, 5)), np.zeros((5, 3)))
        feats = build_features(emb, [1 * 3 + 2])
        assert feats.shape == (1, 10)
        assert np.all(feats == 0)

    def test_out_of_range(self):
        emb = EmbeddingPair(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(IndexError):
            build_features(emb, [0 * 2 + 5])


class TestTrainAlsdl:
    def test_stage2_refines_stage1(self):
        mat, _ = generate_synthetic(8, 8, 2, 0.0, seed=0)
        cfg = small_config()
        model, hist = train_alsdl(mat, cfg, 50)
        assert hist is None
        positions = mat.observed_positions()
        final = rmse(alsdl_predict_positions(model, positions),
                     mat.values.ravel()[positions])
        assert final < als_rmse(mat, model.embeddings)

    def test_curve_covers_both_stages(self):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=1)
        cfg = small_config(als_epochs=20, mlp_epochs=30)
        _, hist = train_alsdl(mat, cfg, 2, kfold_split(36, 4, seed=0)[2])
        assert hist.epoch_or_round.tolist() == list(range(50))
        assert len(hist) == 5 and all(col.shape == (50,) for col in hist)

    def test_zero_mlp_epochs_keeps_stage1_embeddings(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=3)
        cfg = small_config(mlp_epochs=0)
        emb_ref, _ = train_als(mat, cfg.als, init_embeddings(5, 5, cfg.als, 4))
        model, _ = train_alsdl(mat, cfg, 4)
        np.testing.assert_array_equal(model.embeddings.x, emb_ref.x)
        np.testing.assert_array_equal(model.embeddings.w, emb_ref.w)

    def test_embeddings_frozen_during_stage2(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=5)
        cfg = small_config(mlp_epochs=40)
        emb_ref, _ = train_als(mat, cfg.als, init_embeddings(5, 5, cfg.als, 6))
        model, _ = train_alsdl(mat, cfg, 6)
        np.testing.assert_array_equal(model.embeddings.x, emb_ref.x)

    def test_no_test_leakage(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=7)
        split = FoldSplit(tuple(range(20)), tuple(range(20, 25)))
        cfg = small_config(als_epochs=15, mlp_epochs=20)
        model1, _ = train_alsdl(mat, cfg, 8, eval_split=split)
        positions = mat.observed_positions()
        mat2 = MaskedMatrix(mat.values.copy(), mat.mask.copy())
        for idx in split.test_indices:
            mat2.values[divmod(int(positions[idx]), 5)] += 7.0
        model2, _ = train_alsdl(mat2, cfg, 8, eval_split=split)
        np.testing.assert_array_equal(model1.embeddings.x, model2.embeddings.x)
        for w1, w2 in zip(model1.net.weights, model2.net.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_deterministic(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.1, seed=9)
        cfg = small_config(als_epochs=15, mlp_epochs=20)
        split = kfold_split(25, 5, seed=1)[0]
        _, hist1 = train_alsdl(mat, cfg, 10, split)
        _, hist2 = train_alsdl(mat, cfg, 10, split)
        for a, b in zip(hist1, hist2):
            np.testing.assert_array_equal(a, b)


class TestAlsdlPredict:
    def test_zero_net(self):
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=11)
        cfg = small_config(als_epochs=10, mlp_epochs=5)
        model, _ = train_alsdl(mat, cfg, 12)
        for w in model.net.weights:
            w[:] = 0.0
        for b in model.net.biases:
            b[:] = 0.0
        assert alsdl_predict_positions(model, [0]).tolist() == [0.0]

    def test_composition_contract(self):
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=13)
        cfg = small_config(als_epochs=10, mlp_epochs=10)
        model, _ = train_alsdl(mat, cfg, 14)
        position = 1 * 4 + 2
        expected = predict_batch(model.net,
                                 build_features(model.embeddings, [position]))
        assert alsdl_predict_positions(model, [position]).tolist() == \
            expected.tolist()

    def test_batch_predictions_match_scalar(self):
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=15)
        cfg = small_config(als_epochs=10, mlp_epochs=10)
        model, _ = train_alsdl(mat, cfg, 16)
        positions = mat.observed_positions()
        batch = alsdl_predict_positions(model, positions)
        scalars = [alsdl_predict_positions(model, [p])[0] for p in positions]
        np.testing.assert_allclose(batch, scalars, rtol=1e-12)

    def test_end_to_end_fit_on_noise_free_synthetic(self):
        mat, _ = generate_synthetic(8, 8, 2, 0.0, seed=17)
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=400),
                          mlp_train=MlpTrainConfig(epochs=600),
                          hidden_sizes=(8, 4))
        model, _ = train_alsdl(mat, cfg, 18)
        positions = mat.observed_positions()
        preds = alsdl_predict_positions(model, positions)
        truths = mat.values.ravel()[positions]
        from oracles import rmse
        assert rmse(preds, truths) < 0.1
