"""Training history scored in blocks of HISTORY_BLOCK epochs.

train_als and train_mlp score their history a block at a time with
metrics.Scorer. Here their curves meet the per-epoch references of
test_history_exact with == at the block edges (1, B - 1, B, B + 1 and
2B + 3 epochs), at a divergence inside a block, without a test split,
with no MLP epochs and with no history at all.

The blocked scoring relies on numpy behaviour that numpy does not promise:
on a C-ordered (rows, k) block, a row-wise np.add.reduce sums each row in
the order it sums that row alone, and a row-wise np.count_nonzero counts
it alike. TestRowWiseReduction pins it, and checks scored blocks against
rmse and boundary_accuracy, which take np.sign and a 1-D sum. An F-ordered block, such as
full[:n][:, idx], is summed in another order and differs in the last bits,
so TestBlocksAreCOrdered checks every block the training loops score.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest

import alsal.als as als_mod
import alsal.mlp as mlp_mod
import test_history_exact
from alsal.als import AlsConfig, DivergenceError, train_als
from alsal.alsdl import AlsdlConfig, train_alsdl
from alsal.data import generate_synthetic
from alsal.metrics import (HISTORY_BLOCK, Scorer, boundary_accuracy,
                           kfold_split, rmse)
from alsal.mlp import LossConfig, MlpTrainConfig, init_mlp, train_mlp
from alsal.runner import Report, write_report
from test_history_exact import (THREE_BOUNDARIES, assert_same_curve,
                                assert_same_net, curve_points, holey_matrix,
                                mlp_problem, reference_train_als,
                                reference_train_alsdl, reference_train_mlp,
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
        """Each row of two scored blocks against a per-row call and the
        checked functions, which use np.sign and a 1-D sum."""
        truths = rng.normal(size=k)
        truths[::5] = boundary  # truths on the boundary
        scorer = Scorer(truths, boundary, 2 * B)
        blocks = []
        for _ in range(2):
            preds = rng.normal(size=(B, k))
            preds[1, ::3] = boundary  # predictions on the boundary
            preds[2] = truths
            scorer.block[:] = preds
            scorer.score(B)
            blocks.append(preds)
        per_row = Scorer(truths, boundary)
        for i, row in enumerate(np.concatenate(blocks)):
            want = (rmse(row, truths), boundary_accuracy(row, truths, boundary))
            assert (scorer.loss[i], scorer.accuracy[i]) == want
            assert per_row(row) == want

    @pytest.mark.parametrize("boundary", [0.0, -0.0, 0.5])
    def test_special_values(self, boundary):
        """Infinities, NaNs, signed zeros and the smallest subnormals, in
        the predictions and the truths."""
        tiny = np.nextafter(0.0, 1.0)
        grid = [-np.inf, -1.0, -tiny, -0.0, 0.0, tiny, 0.5, 1.0, np.inf,
                np.nan]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        rows = np.stack([np.roll(p, shift) for shift in range(7)])
        scorer = Scorer(t, boundary, len(rows))
        scorer.block[:] = rows
        with np.errstate(invalid="ignore"):
            scorer.score(len(rows))
            for row, loss, accuracy in zip(rows, scorer.loss,
                                           scorer.accuracy):
                assert accuracy == boundary_accuracy(row, t, boundary)
                assert math.isnan(loss) and math.isnan(rmse(row, t))
        finite = t[np.isfinite(t)]
        assert Scorer(finite, boundary)(finite) == (0.0, 1.0)


class TestBlocksAreCOrdered:
    @pytest.fixture
    def scored(self, monkeypatch):
        """The row counts of every block scored; each block, and the scratch
        rows it is scored in, must be C-ordered."""
        calls = []
        score_rows = Scorer._score_rows

        def spy(self, preds, loss, accuracy):
            for a in (preds, self._scratch[:len(preds)]):
                assert a.flags.c_contiguous, a.strides
            calls.append(len(preds))
            score_rows(self, preds, loss, accuracy)
        monkeypatch.setattr(Scorer, "_score_rows", spy)
        return calls

    def test_als(self, scored):
        mat = holey_matrix()
        train_als(mat, AlsConfig(d=2, epochs=2 * B + 3),
                  eval_positions=split_for(mat))
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
        cfg = AlsConfig(d=2, epochs=epochs, learning_rate=0.05, seed=4)
        emb, hist = train_als(mat, cfg, eval_positions=split)
        emb_ref, hist_ref = reference_train_als(mat, cfg, split)
        np.testing.assert_array_equal(emb.x, emb_ref.x)
        assert_same_curve(hist, hist_ref)
        assert (hist.test_loss is None) == (not with_split)

    @pytest.mark.parametrize("bad_epoch", [0, B // 2, B + 5, 2 * B - 1])
    def test_divergence_mid_block(self, bad_epoch, monkeypatch):
        """A NaN put into the embeddings at bad_epoch stops training at
        that epoch, with the history block part filled or without history.
        (The reference checks no finiteness.)"""
        epoch_fn = als_mod.als_epoch
        calls = []

        def poisoned(*args, **kwargs):
            emb = epoch_fn(*args, **kwargs)
            calls.append(None)
            if len(calls) == bad_epoch + 1:
                emb.x[0, 0] = np.nan
            return emb
        monkeypatch.setattr(als_mod, "als_epoch", poisoned)
        mat = holey_matrix()
        cfg = AlsConfig(d=2, epochs=3 * B, seed=4)
        for record_history in (True, False):
            calls.clear()
            with pytest.raises(DivergenceError) as e:
                train_als(mat, cfg, split_for(mat),
                          record_history=record_history)
            assert e.value.epoch == bad_epoch


class TestMlpBlockEdges:
    @pytest.mark.parametrize("epochs", EDGE_EPOCHS)
    @pytest.mark.parametrize("loss", [LossConfig(), THREE_BOUNDARIES])
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
        assert (hist.test_loss is None) == (not with_split)

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

    @pytest.mark.parametrize("with_split", [True, False])
    def test_zero_epochs(self, with_split):
        x, t = mlp_problem(MLP_SIZES)
        _, hist = train_mlp(init_mlp(MLP_SIZES, seed=1), x, t,
                            MlpTrainConfig(epochs=0), LossConfig(),
                            eval_split=mlp_split(t) if with_split else None,
                            start_epoch=9)
        assert curve_points(hist) == []
        assert (hist.test_loss is None) == (not with_split)

    def test_zero_epochs_in_alsdl(self):
        mat = holey_matrix(seed=5)
        split = split_for(mat, seed=1)
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=B + 1, seed=2),
                          mlp_train=MlpTrainConfig(epochs=0, seed=3),
                          hidden_sizes=(4,))
        _, hist = train_alsdl(mat, cfg, eval_split=split)
        assert_same_curve(hist, reference_train_alsdl(mat, cfg, split)[2])


class TestNoTestSplit:
    def test_test_cells_stay_empty_in_the_csv(self, tmp_path):
        mat = holey_matrix(seed=5)
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=B + 1, seed=2),
                          mlp_train=MlpTrainConfig(epochs=B - 1, seed=3),
                          hidden_sizes=(4,))
        _, hist = train_alsdl(mat, cfg)
        row = dict(model="alsdl", target="gr", concentration="1.0", seed=0,
                   fold=0, **hist._asdict())
        write_report(Report(metadata={}, training_curves=[row]), tmp_path)
        with open(tmp_path / "training_curves.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        want = reference_train_alsdl(mat, cfg)[2]
        assert len(rows) == len(want) == 2 * B
        for row, point in zip(rows, want):
            assert row["test_loss"] == row["test_accuracy"] == ""
            assert row["epoch_or_round"] == str(point.epoch_or_round)
            assert row["train_loss"] == repr(point.train_loss)
            assert row["train_accuracy"] == repr(point.train_accuracy)


class TestNoHistory:
    def test_no_block_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a Scorer without history")
        monkeypatch.setattr(als_mod, "Scorer", forbidden)
        monkeypatch.setattr(mlp_mod, "Scorer", forbidden)
        mat = holey_matrix(seed=5)
        split = split_for(mat)
        assert train_als(mat, AlsConfig(d=2, epochs=B + 1), split,
                         record_history=False)[1] is None
        x, t = mlp_problem(MLP_SIZES)
        assert train_mlp(init_mlp(MLP_SIZES, seed=1), x, t,
                         MlpTrainConfig(epochs=B + 1), LossConfig(),
                         eval_split=mlp_split(t),
                         record_history=False)[1] is None
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=3),
                          mlp_train=MlpTrainConfig(epochs=3),
                          hidden_sizes=(4,))
        assert train_alsdl(mat, cfg, split, record_history=False)[1] is None

    def test_als_peak_memory_stays_under_one_block(self):
        """The (HISTORY_BLOCK, m*n) prediction block alone is 299 KB at
        35 x 34; without history training never holds that much."""
        mat, _ = generate_synthetic(35, 34, 5, 0.1, seed=1)
        split = split_for(mat)
        cfg = AlsConfig(epochs=B + 1)
        block_bytes = B * mat.values.size * 8
        peaks = []
        for record_history in (False, True):
            tracemalloc.start()
            try:
                train_als(mat, cfg, split, record_history=record_history)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < block_bytes < peaks[1]
