"""The per-epoch history path against the code it replaced.

The reference_* functions below are the scalar implementations that
train_als, train_alsdl, penalized_loss, MaskedMatrix.with_mask and
alsdl.build_features used before positions became flat index arrays
(penalized_loss now lives in the tests' oracles module).
They take positions as (i, j) pairs; observed_pairs and to_pairs convert
at their entry. The reference MLP functions (forward pass, backward pass,
rmsprop step and training loop) are the per-layer code that allocated
fresh arrays every epoch, before the buffers and the flat parameter
vector. Results must match them with ==, not approximately: the new forms
do the same float64 arithmetic on the same values.

The references return per-epoch EvalPoint lists, the form the curves had
before they became arrays, and, as the trainers do, no curve (None)
without a split. curve_points is the adapter: it turns a metrics.Curve
into that list, cell by cell, so a curve scored in blocks is compared with
== against references scored one epoch at a time.

The MLP history has two reference orders. split_preds, the default, is
the one train_mlp uses: the train cells come from a forward pass over the
train rows, the test cells from one over the test rows, and it must match
with ==. all_rows_preds is the order train_mlp used before: one pass over
all rows, with the train and test rows picked out of it. With a split its
GEMMs have other shapes, so its curves may differ in the last bits; the
tests against it hold the nets equal and the curves within a bound fixed
from float64 eps.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from alsal.als import (AlsConfig, DivergenceError, EpochWork, EmbeddingPair,
                       als_epoch, init_embeddings, train_als)
from alsal.alsdl import (AlsdlConfig, alsdl_predict_positions,
                         build_features, train_alsdl)
from alsal.data import DataError, MaskedMatrix, generate_synthetic
from alsal.metrics import kfold_split
from alsal.mlp import (LossConfig, MlpModel, MlpTrainConfig, _output_gradient,
                       init_mlp, train_mlp)
from oracles import boundary_accuracy, penalized_loss, rmse, sign_penalty

# a strong penalty, beside the default loss
STRONG_PENALTY = LossConfig(beta=1.0)


@dataclass(frozen=True)
class EvalPoint:
    """One epoch of a reference curve."""

    epoch_or_round: int
    train_loss: float
    test_loss: float
    train_accuracy: float
    test_accuracy: float


def curve_points(curve):
    """A Curve as a list of EvalPoints."""
    return [EvalPoint(*cells) for cells in zip(*(c.tolist() for c in curve))]


def to_pairs(positions, n_cols):
    return [divmod(int(p), n_cols) for p in positions]


def observed_pairs(matrix):
    return to_pairs(matrix.observed_positions(), matrix.shape[1])


def reference_sign_penalty(pred, truth):
    return int(np.sign(pred * truth))


def reference_penalized_loss(preds, truths, cfg):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    penalties = [reference_sign_penalty(p, t) for p, t in zip(preds, truths)]
    return rmse(preds, truths) - cfg.beta * float(np.mean(penalties))


def to_flat(arrays):
    """Per-layer arrays concatenated into MlpModel's flat layout: the
    weight matrices in layer order, then the bias vectors."""
    return np.concatenate([a.ravel() for a in arrays])


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
    return MaskedMatrix(matrix.values.copy(), mask)


def reference_feature_table(emb, positions):
    return np.stack([np.concatenate((emb.x[i], emb.w[:, j]))
                     for i, j in positions])


def reference_train_als(matrix, cfg, seed, split=None):
    positions = observed_pairs(matrix)
    train_matrix, history = matrix, None
    if split is not None:
        pos_train = [positions[i] for i in split.train_indices]
        pos_test = [positions[i] for i in split.test_indices]
        train_matrix = reference_with_mask(matrix, pos_train)
        history = []
    emb = init_embeddings(*matrix.shape, cfg, seed)
    for epoch in range(cfg.epochs):
        # a new pair each epoch, stepped in place from a copy of the last
        emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
        als_epoch(train_matrix, emb, cfg.learning_rate, EpochWork.like(emb))
        if history is None:
            continue
        full = emb.x @ emb.w
        pt, tt = reference_gather(matrix, full, pos_train)
        pv, tv = reference_gather(matrix, full, pos_test)
        history.append(EvalPoint(
            epoch, train_loss=rmse(pt, tt), test_loss=rmse(pv, tv),
            train_accuracy=boundary_accuracy(pt, tt),
            test_accuracy=boundary_accuracy(pv, tv)))
    return emb, history


def reference_forward_batch(model, inputs):
    acts = [np.asarray(inputs, dtype=float)]
    n_layers = len(model.weights)
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if li == n_layers - 1 else np.tanh(z))
    return acts


def reference_predict_batch(model, inputs):
    return reference_forward_batch(model, inputs)[-1][:, 0]


def reference_backward(model, batch_inputs, batch_truths, cfg):
    inputs = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    truths = np.asarray(batch_truths, dtype=float)
    acts = reference_forward_batch(model, inputs)
    preds = acts[-1][:, 0]
    out = np.empty((3, preds.size))
    _output_gradient(preds, truths, cfg, out)
    delta = out[0][:, None]
    grad_w, grad_b = [], []
    for li in range(len(model.weights) - 1, -1, -1):
        grad_w.append(acts[li].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if li > 0:
            delta = (delta @ model.weights[li].T) * (1.0 - acts[li] ** 2)
    return grad_w[::-1], grad_b[::-1]


def reference_rmsprop_step(model, gradients, cfg):
    grad_w, grad_b = gradients
    new_w, new_b, new_sw, new_sb = [], [], [], []
    for w, b, sw, sb, gw, gb in zip(model.weights, model.biases,
                                    *model.split(model.sq_grads),
                                    grad_w, grad_b):
        # decay 0.9 and epsilon 1e-8, written out: mlp's constants
        sw = 0.9 * sw + (1.0 - 0.9) * gw * gw
        sb = 0.9 * sb + (1.0 - 0.9) * gb * gb
        w = w - cfg.rmsprop_learning_rate * gw / (np.sqrt(sw) + 1e-8)
        b = b - cfg.rmsprop_learning_rate * gb / (np.sqrt(sb) + 1e-8)
        new_w.append(w)
        new_b.append(b)
        new_sw.append(sw)
        new_sb.append(sb)
    out = MlpModel(to_flat(new_w + new_b), to_flat(new_sw + new_sb),
                   model.layer_sizes)
    if not all(np.all(np.isfinite(a)) for a in new_w + new_b):
        raise DivergenceError(-1)
    return out


def all_rows_preds(model, inputs, tr, te):
    """The history order train_mlp had before its train cells came from
    the training forward pass: one pass over all rows, then the train and
    test rows picked out of it."""
    preds = reference_predict_batch(model, inputs)
    return preds[tr], preds[te]


def split_preds(model, inputs, tr, te):
    """The history order train_mlp has now: one pass over the train rows
    (the next epoch's backward pass) and one over the test rows."""
    return (reference_predict_batch(model, inputs[tr]),
            reference_predict_batch(model, inputs[te]))


def reference_train_mlp(model, inputs, truths, train_cfg, loss_cfg,
                        eval_split=None, start_epoch=0,
                        history_preds=split_preds):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    truths = np.asarray(truths, dtype=float)
    tr, history = np.arange(inputs.shape[0]), None
    if eval_split is not None:
        tr = np.asarray(eval_split.train_indices, dtype=int)
        te = np.asarray(eval_split.test_indices, dtype=int)
        history = []
    inputs_tr, truths_tr = inputs[tr], truths[tr]
    for epoch in range(train_cfg.epochs):
        grads = reference_backward(model, inputs_tr, truths_tr, loss_cfg)
        try:
            model = reference_rmsprop_step(model, grads, train_cfg)
        except DivergenceError:
            raise DivergenceError(start_epoch + epoch)
        # a step that leaves a non-finite training RMSE diverges too
        if not math.isfinite(rmse(reference_predict_batch(model, inputs_tr),
                                  truths_tr)):
            raise DivergenceError(start_epoch + epoch)
        if history is None:
            continue
        p_tr, p_te = history_preds(model, inputs, tr, te)
        # accuracy at the data's boundary 0
        history.append(EvalPoint(
            start_epoch + epoch, train_loss=rmse(p_tr, truths_tr),
            test_loss=rmse(p_te, truths[te]),
            train_accuracy=boundary_accuracy(p_tr, truths_tr),
            test_accuracy=boundary_accuracy(p_te, truths[te])))
    return model, history


def reference_train_alsdl(matrix, cfg, seed, split=None):
    emb, als_history = reference_train_als(matrix, cfg.als, seed, split)
    positions = observed_pairs(matrix)
    inputs = reference_feature_table(emb, positions)
    truths = matrix.values[tuple(zip(*positions))]
    net = init_mlp([2 * emb.d, *cfg.hidden_sizes, 1], seed=seed + 1)
    net, history = reference_train_mlp(
        net, inputs, truths, cfg.mlp_train, cfg.loss, eval_split=split,
        start_epoch=cfg.als.epochs)
    return emb, net, None if split is None else als_history + history


def holey_matrix(seed=3):
    """7x6 noisy low-rank matrix with unobserved holes, one truth exactly
    on the boundary 0 and two at +-0.5."""
    mat, _ = generate_synthetic(7, 6, 2, 0.2, seed=seed)
    mat.values[0, 0], mat.values[2, 3], mat.values[5, 1] = 0.0, -0.5, 0.5
    mat.mask[1, 2] = mat.mask[4, 0] = mat.mask[6, 5] = 0.0
    return mat


def assert_same_curve(curve, want):
    """A trainer's curve against a reference's points, or both None."""
    if want is None:
        assert curve is None
        return
    assert len(curve) == 5 and all(
        isinstance(c, np.ndarray) and c.shape == curve[0].shape
        for c in curve)
    got = curve_points(curve)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g, w)  # field by field, exact


def assert_same_net(got, want):
    """Same layer sizes, and so the same per-layer views, over the same
    parameters and rmsprop accumulators."""
    assert got.layer_sizes == want.layer_sizes
    np.testing.assert_array_equal(got.params, want.params)
    np.testing.assert_array_equal(got.sq_grads, want.sq_grads)


def split_for(mat, seed=0):
    return kfold_split(len(mat.observed_positions()), 5, seed)[1]


class TestAlsHistory:
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_reference(self, with_split):
        mat = holey_matrix()
        split = split_for(mat) if with_split else None
        cfg = AlsConfig(d=2, epochs=40, learning_rate=0.05)
        emb, hist = train_als(mat, cfg, init_embeddings(7, 6, cfg, 4), split)
        emb_ref, hist_ref = reference_train_als(mat, cfg, 4, split)
        np.testing.assert_array_equal(emb.x, emb_ref.x)
        np.testing.assert_array_equal(emb.w, emb_ref.w)
        assert_same_curve(hist, hist_ref)
        assert (hist is not None) == with_split


class TestAlsdlHistory:
    @pytest.mark.parametrize("loss", [LossConfig(), STRONG_PENALTY])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_matches_reference(self, loss, with_split):
        mat = holey_matrix(seed=5)
        split = split_for(mat, seed=1) if with_split else None
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=15),
                          mlp_train=MlpTrainConfig(epochs=25),
                          loss=loss, hidden_sizes=(8, 4))
        model, hist = train_alsdl(mat, cfg, 2, eval_split=split)
        _, net_ref, hist_ref = reference_train_alsdl(mat, cfg, 2, split)
        assert_same_net(model.net, net_ref)
        assert_same_curve(hist, hist_ref)
        assert (hist is not None) == with_split

    def test_both_stages_score_accuracy_at_zero(self):
        """The ALS and the network stage of one curve both score accuracy
        at the data's boundary 0, the one the network's penalty uses."""
        mat = holey_matrix(seed=5)
        split = split_for(mat, seed=1)
        cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=15),
                          mlp_train=MlpTrainConfig(epochs=25),
                          hidden_sizes=(8, 4))
        model, hist = train_alsdl(mat, cfg, 2, eval_split=split)
        train = mat.observed_positions()[split.train_indices]
        truths = mat.values.ravel()[train]
        emb = model.embeddings
        stage1 = (emb.x @ emb.w).ravel()[train]
        stage2 = alsdl_predict_positions(model, train)
        assert hist.train_accuracy[14] == boundary_accuracy(stage1, truths)
        assert hist.train_accuracy[-1] == boundary_accuracy(stage2, truths)
        assert hist.train_accuracy[-1] != boundary_accuracy(stage2, truths,
                                                            -0.5)


class TestPenalizedLossReference:
    @pytest.mark.parametrize("cfg", [LossConfig(beta=0.3), STRONG_PENALTY])
    def test_random_inputs(self, cfg, rng):
        p, t = rng.normal(size=257), rng.normal(size=257)
        assert penalized_loss(p, t, cfg) == reference_penalized_loss(p, t, cfg)

    @pytest.mark.parametrize("cfg", [LossConfig(beta=0.3), STRONG_PENALTY])
    def test_exact_boundary_hits(self, cfg):
        grid = [-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        assert (sign_penalty(p, t) == 0).any()
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
    def test_matches_stacked_rows(self):
        mat, _ = generate_synthetic(5, 4, 2, 0.0, seed=1)
        emb = init_embeddings(5, 4, AlsConfig(d=3), 2)
        positions = mat.observed_positions()[::-1]
        want = reference_feature_table(emb, to_pairs(positions, 4))
        for given in (positions, positions.tolist()):
            np.testing.assert_array_equal(build_features(emb, given), want)

    # flat indices into 5 x 4: (0, -1), (-1, 0), (5, 0), and far past the end
    @pytest.mark.parametrize("bad", [[-1], [-4], [20], [2**40]])
    def test_out_of_range(self, bad):
        emb = init_embeddings(5, 4, AlsConfig(d=3), 2)
        with pytest.raises(IndexError):
            build_features(emb, [1 * 4 + 1] + bad)


def mlp_problem(layer_sizes, rows=37, seed=0, boundary_hits=True):
    """Random inputs and truths, some truths exactly on the boundary 0 and
    some at 0.5."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=(rows, layer_sizes[0]))
    t = rng.uniform(-1.0, 1.0, size=rows)
    if boundary_hits:
        t[::5] = 0.0
        t[1::7] = 0.5
    return x, t


MLP_LOSSES = [LossConfig(), LossConfig(beta=0.0),
              LossConfig(beta=0.3),
              STRONG_PENALTY]


def assert_within_rounding(curve, want, n_train, n_test):
    """Each loss within 4 ulp of the reference, each accuracy equal or one
    row apart: the bound, fixed from float64 eps, for curves whose
    predictions differ only by the summation order of the forward GEMMs."""
    got = curve_points(curve)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.epoch_or_round == w.epoch_or_round
        for loss in ("train_loss", "test_loss"):
            a, b = getattr(g, loss), getattr(w, loss)
            assert abs(a - b) <= 4 * math.ulp(b), (loss, a, b)
        for acc, n in (("train_accuracy", n_train),
                       ("test_accuracy", n_test)):
            a, b = getattr(g, acc), getattr(w, acc)
            assert abs(round(a * n) - round(b * n)) <= 1, (acc, a, b)


class TestMlpTraining:
    @pytest.mark.parametrize("sizes", [[1, 1], [2, 8, 1], [10, 20, 10, 5, 1]])
    @pytest.mark.parametrize("loss", MLP_LOSSES)
    @pytest.mark.parametrize("with_split", [True, False])
    @pytest.mark.parametrize("boundary_hits", [True, False])
    def test_matches_reference(self, sizes, loss, with_split, boundary_hits):
        x, t = mlp_problem(sizes, boundary_hits=boundary_hits)
        split = (kfold_split(len(t), 4, seed=2)[3] if with_split else None)
        cfg = MlpTrainConfig(epochs=30, rmsprop_learning_rate=0.01)
        got, hist = train_mlp(init_mlp(sizes, seed=5), x, t, cfg, loss,
                              eval_split=split, start_epoch=7)
        want, hist_ref = reference_train_mlp(
            init_mlp(sizes, seed=5), x, t, cfg, loss, eval_split=split,
            start_epoch=7)
        assert_same_net(got, want)
        assert_same_curve(hist, hist_ref)
        if with_split:
            assert len(hist.epoch_or_round) == 30
        else:
            assert hist is None

    @pytest.mark.parametrize("sizes", [[1, 1], [2, 8, 1], [10, 20, 10, 5, 1]])
    @pytest.mark.parametrize("loss", MLP_LOSSES)
    @pytest.mark.parametrize("with_split", [True, False])
    def test_near_all_rows_order(self, sizes, loss, with_split):
        """Against the old history order the nets stay equal, and with a
        split the curve cells may move by rounding only; without one
        neither side has a curve."""
        x, t = mlp_problem(sizes)
        split = (kfold_split(len(t), 4, seed=2)[3] if with_split else None)
        cfg = MlpTrainConfig(epochs=30, rmsprop_learning_rate=0.01)
        got, hist = train_mlp(init_mlp(sizes, seed=5), x, t, cfg, loss,
                              eval_split=split, start_epoch=7)
        want, hist_ref = reference_train_mlp(
            init_mlp(sizes, seed=5), x, t, cfg, loss, eval_split=split,
            start_epoch=7, history_preds=all_rows_preds)
        assert_same_net(got, want)
        if with_split:
            assert_within_rounding(hist, hist_ref, len(split.train_indices),
                                   len(split.test_indices))
        else:
            assert_same_curve(hist, hist_ref)

    def test_init_matches_per_layer_draws(self):
        sizes = [10, 20, 10, 5, 1]
        model = init_mlp(sizes, seed=9)
        rng = np.random.default_rng(9)
        for (fan_in, fan_out), w, b in zip(zip(sizes[:-1], sizes[1:]),
                                           model.weights, model.biases):
            s = np.sqrt(6.0 / (fan_in + fan_out))
            np.testing.assert_array_equal(
                w, rng.uniform(-s, s, size=(fan_in, fan_out)))
            assert b.shape == (fan_out,) and not b.any()
        assert not model.sq_grads.any()

    # 1e308 overflows the parameters in the first epoch; 2e307 leaves them
    # finite there (they overflow in the second), but with predictions
    # whose training RMSE overflows, which is a divergence too
    @pytest.mark.parametrize("learning_rate", [2e307, 1e308])
    @pytest.mark.parametrize("sizes", [[2, 1], [2, 8, 1]])
    @pytest.mark.parametrize("with_split", [True, False])
    def test_same_divergence_epoch(self, learning_rate, sizes, with_split):
        # an infinite prediction times a truth on the boundary is NaN,
        # which the scalar reference penalty cannot turn into an int
        x, t = mlp_problem(sizes, boundary_hits=False)
        cfg = MlpTrainConfig(epochs=20, rmsprop_learning_rate=learning_rate)
        errors = []
        for train in (train_mlp, reference_train_mlp):
            with np.errstate(all="ignore"), \
                    pytest.raises(DivergenceError) as e:
                train(init_mlp(sizes, seed=1), x, t, cfg, LossConfig(),
                      eval_split=(kfold_split(len(t), 4, seed=2)[3]
                                  if with_split else None))
            errors.append(e.value.epoch)
        assert errors[0] == errors[1] == 0
