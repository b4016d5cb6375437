"""Training history scored in blocks of HISTORY_BLOCK epochs.

train_als and train_mlp score their history a block at a time with
metrics.Scorer. Here their curves meet the per-epoch references of
test_history_exact with == at the block edges (1, B - 1, B, B + 1 and
2B + 3 epochs), at a divergence inside a block and with no MLP epochs;
without a split they score nothing at all.

The blocked scoring relies on numpy behaviour that numpy does not promise:
on a C-ordered (rows, k) block, a row-wise np.add.reduce sums each row in
the order it sums that row alone, and a row-wise np.count_nonzero counts
it alike. TestRowWiseReduction pins it, and checks scored blocks against
rmse and boundary_accuracy, which take np.sign and a 1-D sum. An
F-ordered block, such as a column gather from a block of whole-matrix
predictions, is summed in another order and differs in the last bits, so
TestBlocksAreCOrdered checks every block the training loops score.
"""

import math
import tracemalloc

import numpy as np
import pytest

import alsal.als as als_mod
import alsal.mlp as mlp_mod
import test_history_exact
from alsal.als import AlsConfig, DivergenceError, init_embeddings, train_als
from alsal.alsdl import AlsdlConfig, train_alsdl
from alsal.data import generate_synthetic
from alsal.metrics import HISTORY_BLOCK, Scorer, kfold_split
from alsal.mlp import LossConfig, MlpTrainConfig, init_mlp, train_mlp
from oracles import boundary_accuracy, rmse
from test_history_exact import (STRONG_PENALTY, assert_same_curve,
                                assert_same_net, holey_matrix, mlp_problem,
                                reference_train_als, reference_train_mlp,
                                split_for)

B = HISTORY_BLOCK
EDGE_EPOCHS = [1, B - 1, B, B + 1, 2 * B + 3]
MLP_SIZES = [2, 8, 1]


def mlp_split(t):
    return kfold_split(len(t), 4, seed=2)[3]


class TestRowWiseReduction:
    @pytest.mark.parametrize("k", [1, 7, 119, 1071, 4096, 10001])
    def test_numpy_reduces_each_row_alone(self, k, rng):
        block = rng.normal(size=(B, k))
        assert block.flags.c_contiguous
        sums = np.add.reduce(block, axis=1)
        counts = np.count_nonzero(block > 0, axis=1)
        for row, s, c in zip(block, sums, counts):
            assert s == np.add.reduce(row, axis=None)
            assert c == np.count_nonzero(row > 0)

    @pytest.mark.parametrize("boundary", [0.0, 0.3, -0.5])
    @pytest.mark.parametrize("k", [1, 7, 119, 1071, 4096, 10001])
    def test_block_equals_per_row_scores(self, k, boundary, rng):
        """Each row of two scored blocks against a Scorer of one epoch and
        the checked functions, which use np.sign and a 1-D sum. The data's
        boundary is moved to 0 before scoring, as ingest moves GR's 1."""
        truths = rng.normal(size=k)
        truths[::5] = boundary  # truths on the boundary
        rows = rng.normal(size=(2 * B, k))
        rows[1::B, ::3] = boundary  # predictions on the boundary
        rows[2::B] = truths
        truths -= boundary
        rows -= boundary
        scorer = Scorer(truths, 2 * B)
        for row in rows:
            scorer.add(row)
        for i, row in enumerate(rows):
            want = (rmse(row, truths), boundary_accuracy(row, truths))
            assert (scorer.loss[i], scorer.accuracy[i]) == want
            assert scored_alone(truths, row) == want

    @pytest.mark.parametrize("boundary", [0.0, -0.0, 0.5])
    def test_special_values(self, boundary):
        """Infinities, NaNs, signed zeros, the smallest subnormals and the
        neighbours of 0.5, in the predictions and the truths: a prediction
        one ulp from the boundary is on its side. The data's boundary is
        moved to 0 before scoring (exactly: 0.5 and its neighbours are
        within a factor 2 of each other)."""
        tiny = np.nextafter(0.0, 1.0)
        grid = [-np.inf, -1.0, -tiny, -0.0, 0.0, tiny, np.nextafter(0.5, 0),
                0.5, np.nextafter(0.5, 1), 1.0, np.inf, np.nan]
        p, t = (a.ravel() - boundary for a in np.meshgrid(grid, grid))
        rows = np.stack([np.roll(p, shift) for shift in range(7)])
        scorer = Scorer(t, len(rows))
        with np.errstate(invalid="ignore"):
            for row in rows:
                scorer.add(row)
            for row, loss, accuracy in zip(rows, scorer.loss,
                                           scorer.accuracy):
                assert accuracy == boundary_accuracy(row, t)
                assert math.isnan(loss) and math.isnan(rmse(row, t))
        finite = t[np.isfinite(t)]
        assert scored_alone(finite, finite) == (0.0, 1.0)


def scored_alone(truths, preds):
    """(loss, accuracy) of preds as the one epoch of a Scorer."""
    scorer = Scorer(truths, 1)
    scorer.add(preds)
    return scorer.loss[0], scorer.accuracy[0]


class TestBlocksAreCOrdered:
    @pytest.fixture
    def scored(self, monkeypatch):
        """The row counts of every block scored; each block must be
        C-ordered."""
        calls = []
        score_rows = Scorer._score_rows

        def spy(self, preds, loss, accuracy):
            assert preds.flags.c_contiguous, preds.strides
            calls.append(len(preds))
            score_rows(self, preds, loss, accuracy)
        monkeypatch.setattr(Scorer, "_score_rows", spy)
        return calls

    def test_als(self, scored):
        mat = holey_matrix()
        cfg = AlsConfig(d=2, epochs=2 * B + 3)
        train_als(mat, cfg, init_embeddings(7, 6, cfg, 0), split_for(mat))
        assert scored == [B, B, B, B, 3, 3]  # train and test per block

    def test_mlp(self, scored):
        x, t = mlp_problem(MLP_SIZES)
        train_mlp(init_mlp(MLP_SIZES, seed=1), x, t,
                  MlpTrainConfig(epochs=2 * B + 3), LossConfig(),
                  eval_split=mlp_split(t))
        # the test block fills first: the train cells lag one epoch
        assert scored == [B, B, B, B, 3, 3]


class TestAlsBlockEdges:
    @pytest.mark.parametrize("epochs", EDGE_EPOCHS)
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_per_epoch_reference(self, epochs, with_split):
        mat = holey_matrix()
        split = split_for(mat) if with_split else None
        cfg = AlsConfig(d=2, epochs=epochs, learning_rate=0.05)
        emb, hist = train_als(mat, cfg, init_embeddings(7, 6, cfg, 4), split)
        emb_ref, hist_ref = reference_train_als(mat, cfg, 4, split)
        np.testing.assert_array_equal(emb.x, emb_ref.x)
        assert_same_curve(hist, hist_ref)
        assert (hist is None) == (not with_split)

    @pytest.mark.parametrize("bad_epoch", [0, B // 2, B + 5, 2 * B - 1])
    def test_divergence_mid_block(self, bad_epoch, monkeypatch):
        """A NaN put into the embeddings at bad_epoch of every pass over
        the epochs stops training at that epoch, with the history block
        part filled or without a split: the run trains to its end, then
        replays up to the bad epoch. (The reference checks no finiteness.)
        """
        epoch_fn = als_mod.als_epoch
        passes = []  # [embeddings, epochs stepped] per pass, in call order

        def poisoned(matrix, emb, *args):
            if not passes or passes[-1][0] is not emb:
                passes.append([emb, 0])
            epoch_fn(matrix, emb, *args)
            passes[-1][1] += 1
            if passes[-1][1] == bad_epoch + 1:
                emb.x[0, 0] = np.nan
            return emb
        monkeypatch.setattr(als_mod, "als_epoch", poisoned)
        mat = holey_matrix()
        cfg = AlsConfig(d=2, epochs=3 * B)
        init = init_embeddings(7, 6, cfg, 4)
        for split in (split_for(mat), None):
            passes.clear()
            with pytest.raises(DivergenceError) as e:
                train_als(mat, cfg, init, split)
            assert e.value.epoch == bad_epoch
            assert [n for _, n in passes] == [3 * B, bad_epoch + 1]


class TestMlpBlockEdges:
    @pytest.mark.parametrize("epochs", EDGE_EPOCHS)
    @pytest.mark.parametrize("loss", [LossConfig(), STRONG_PENALTY])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_per_epoch_reference(self, epochs, loss, with_split):
        x, t = mlp_problem(MLP_SIZES)
        split = mlp_split(t) if with_split else None
        cfg = MlpTrainConfig(epochs=epochs, rmsprop_learning_rate=0.01)
        got, hist = train_mlp(init_mlp(MLP_SIZES, seed=5), x, t, cfg, loss,
                              eval_split=split, start_epoch=3)
        want, hist_ref = reference_train_mlp(init_mlp(MLP_SIZES, seed=5), x,
                                             t, cfg, loss, eval_split=split,
                                             start_epoch=3)
        assert_same_net(got, want)
        assert_same_curve(hist, hist_ref)
        assert (hist is None) == (not with_split)

    @pytest.mark.parametrize("bad_epoch", [0, B // 2, B + 5, 2 * B - 1])
    def test_divergence_mid_block(self, bad_epoch, monkeypatch):
        """A NaN gradient at bad_epoch stops both forms at that epoch."""
        backward, ref_backward = (mlp_mod.backward,
                                  test_history_exact.reference_backward)
        calls = []

        def due():
            calls.append(None)
            return len(calls) == bad_epoch + 1

        def poisoned(*args):
            grad = backward(*args)
            return grad * np.nan if due() else grad

        def ref_poisoned(*args):
            grad_w, grad_b = ref_backward(*args)
            return [g * np.nan for g in grad_w] if due() else grad_w, grad_b
        monkeypatch.setattr(mlp_mod, "backward", poisoned)
        monkeypatch.setattr(test_history_exact, "reference_backward",
                            ref_poisoned)
        x, t = mlp_problem(MLP_SIZES)
        cfg = MlpTrainConfig(epochs=3 * B)
        epochs = []
        for train in (train_mlp, reference_train_mlp):
            calls.clear()
            with np.errstate(invalid="ignore"), \
                    pytest.raises(DivergenceError) as e:
                train(init_mlp(MLP_SIZES, seed=1), x, t, cfg, LossConfig(),
                      eval_split=mlp_split(t))
            epochs.append(e.value.epoch)
        assert epochs == [bad_epoch, bad_epoch]

    @pytest.mark.parametrize("bad_epoch", [0, B // 2, B + 5, 3 * B - 1])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_rmse_overflow_mid_block(self, bad_epoch, with_split,
                                     monkeypatch):
        """A step that leaves finite parameters whose predictions' RMSE
        overflows (an output bias of 1e200) stops both forms at that
        epoch, the last one included."""
        step, ref_step = (mlp_mod.rmsprop_step,
                          test_history_exact.reference_rmsprop_step)
        calls = []

        def overflow(model):
            calls.append(None)
            if len(calls) == bad_epoch + 1:
                model.biases[-1][:] = 1e200
            return model

        monkeypatch.setattr(mlp_mod, "rmsprop_step",
                            lambda *args: overflow(step(*args)))
        monkeypatch.setattr(test_history_exact, "reference_rmsprop_step",
                            lambda *args: overflow(ref_step(*args)))
        x, t = mlp_problem(MLP_SIZES)
        cfg = MlpTrainConfig(epochs=3 * B)
        epochs = []
        for train in (train_mlp, reference_train_mlp):
            calls.clear()
            with np.errstate(over="ignore"), \
                    pytest.raises(DivergenceError) as e:
                train(init_mlp(MLP_SIZES, seed=1), x, t, cfg, LossConfig(),
                      eval_split=mlp_split(t) if with_split else None)
            epochs.append(e.value.epoch)
        assert epochs == [bad_epoch, bad_epoch]

    @pytest.mark.parametrize("bad_epoch", [0, B // 2, B + 5, 3 * B - 1])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_infinite_weight_mid_block(self, bad_epoch, with_split,
                                       monkeypatch):
        """A step that leaves a first-layer weight infinite stops both
        forms at that epoch, the last one included, although the
        predictions stay finite: the weight's hidden unit saturates at
        tanh = +-1, so only the parameter check sees it."""
        step, ref_step = (mlp_mod.rmsprop_step,
                          test_history_exact.reference_rmsprop_step)
        calls = []

        def infinite(model):
            calls.append(None)
            if len(calls) == bad_epoch + 1:
                model.weights[0][0, 0] = np.inf
            return model

        monkeypatch.setattr(mlp_mod, "rmsprop_step",
                            lambda model, *rest: step(infinite(model), *rest))
        monkeypatch.setattr(test_history_exact, "reference_rmsprop_step",
                            lambda model, *rest: ref_step(infinite(model),
                                                          *rest))
        x, t = mlp_problem(MLP_SIZES)
        cfg = MlpTrainConfig(epochs=3 * B)
        epochs = []
        for train in (train_mlp, reference_train_mlp):
            calls.clear()
            with pytest.raises(DivergenceError) as e:
                train(init_mlp(MLP_SIZES, seed=1), x, t, cfg, LossConfig(),
                      eval_split=mlp_split(t) if with_split else None)
            epochs.append(e.value.epoch)
        assert epochs == [bad_epoch, bad_epoch]


class TestCurveExactlyWithASplit:
    """Each trainer returns a curve of five equal-length arrays when it is
    given a split, and None for the curve without one."""

    @pytest.mark.parametrize("with_split", [True, False])
    def test_five_arrays_or_none(self, with_split):
        mat = holey_matrix(seed=5)
        x, t = mlp_problem(MLP_SIZES)
        split = split_for(mat) if with_split else None
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=7),
                          mlp_train=MlpTrainConfig(epochs=9),
                          hidden_sizes=(4,))
        curves = {
            7: train_als(mat, cfg.als, init_embeddings(7, 6, cfg.als, 0),
                         split)[1],
            9: train_mlp(init_mlp(MLP_SIZES, seed=1), x, t, cfg.mlp_train,
                         LossConfig(),
                         eval_split=mlp_split(t) if with_split else None)[1],
            16: train_alsdl(mat, cfg, 0, split)[1]}
        for epochs, curve in curves.items():
            if not with_split:
                assert curve is None
                continue
            assert len(curve) == 5
            for column in curve:
                assert isinstance(column, np.ndarray)
                assert column.shape == (epochs,)
            assert np.isfinite(np.column_stack(curve)).all()


class TestNoHistory:
    def test_no_block_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Scorer without a split")
        monkeypatch.setattr(als_mod, "Scorer", forbidden)
        monkeypatch.setattr(mlp_mod, "Scorer", forbidden)
        mat = holey_matrix(seed=5)
        als_cfg = AlsConfig(d=2, epochs=B + 1)
        assert train_als(mat, als_cfg,
                         init_embeddings(7, 6, als_cfg, 0))[1] is None
        x, t = mlp_problem(MLP_SIZES)
        assert train_mlp(init_mlp(MLP_SIZES, seed=1), x, t,
                         MlpTrainConfig(epochs=B + 1), LossConfig())[1] is None
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=3),
                          mlp_train=MlpTrainConfig(epochs=3),
                          hidden_sizes=(4,))
        assert train_alsdl(mat, cfg, 0)[1] is None

    def test_als_peak_memory_stays_under_one_block(self):
        """A (HISTORY_BLOCK, m*n) block is 299 KB at 35 x 34: training
        without a split never holds that much, and with one its two
        Scorers' float and bool blocks, 32 epochs of 952 train and 238
        test positions, take more."""
        mat, _ = generate_synthetic(35, 34, 5, 0.1, seed=1)
        cfg = AlsConfig(epochs=B + 1)
        init = init_embeddings(35, 34, cfg, 0)
        block_bytes = B * mat.values.size * 8
        peaks = []
        for split in (None, split_for(mat)):
            tracemalloc.start()
            try:
                train_als(mat, cfg, init, split)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < block_bytes < peaks[1]
