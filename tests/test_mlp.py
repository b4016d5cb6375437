import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsal.als import DivergenceError
from alsal.metrics import HISTORY_BLOCK, FoldSplit
from alsal.mlp import (LossConfig, MlpModel, MlpTrainConfig, _Buffers,
                       _column_sums, _output_gradient, backward, init_mlp,
                       predict_batch, rmsprop_step, train_mlp)

import alsal.mlp as mlp_mod
from oracles import (boundary_accuracy, penalized_loss, rmse, sign_penalty,
                     surrogate_objective)
from test_history_exact import (reference_backward, reference_rmsprop_step,
                                to_flat)


def gradient(model, inputs, truths, cfg):
    """backward's gradient for one batch, in buffers of its own."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    return backward(model, inputs, truths, cfg,
                    _Buffers(model, inputs.shape[0]))


def step_copy(model, grad, cfg):
    """A copy of model, stepped in place by rmsprop_step."""
    model = model.copy()
    return rmsprop_step(model, grad, cfg)


def hand_rolled_forward(model, x):
    """Independent per-neuron evaluation, no matrix ops."""
    a = list(x)
    n_layers = len(model.weights)
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j] + sum(a[i] * w[i, j] for i in range(w.shape[0]))
            out.append(z if li == n_layers - 1 else np.tanh(z))
        a = out
    return a[0]


def fd_gradient(model, inputs, truths, cfg, step=1e-5):
    """Central differences of the surrogate objective through the net, one
    per parameter, in the flat layout of `model.params`."""
    grad = np.zeros_like(model.params)
    for k in range(model.params.size):
        orig = model.params[k]
        vals = []
        for s in (step, -step):
            model.params[k] = orig + s
            preds = predict_batch(model, inputs)
            vals.append(surrogate_objective(preds, truths, cfg))
        model.params[k] = orig
        grad[k] = (vals[0] - vals[1]) / (2 * step)
    return grad


def rel_error(analytic, fd):
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)


class TestInitMlp:
    def test_default_architecture_shapes(self):
        model = init_mlp([10, 20, 10, 5, 1], seed=0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(10, 20), (20, 10), (10, 5), (5, 1)]
        assert all(np.all(b == 0) for b in model.biases)
        assert not model.sq_grads.any()

    def test_minimal_network(self):
        model = init_mlp([1, 1], seed=0)
        assert model.weights[0].shape == (1, 1)
        assert model.biases[0].shape == (1,)

    def test_deterministic(self):
        a = init_mlp([4, 3, 1], seed=5)
        b = init_mlp([4, 3, 1], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_mlp([4], seed=0)
        with pytest.raises(ValueError):
            init_mlp([4, 0, 1], seed=0)


class TestForward:
    def test_zero_model(self):
        model = init_mlp([3, 4, 1], seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert predict_batch(model, [[1.0, -2.0, 3.0]]).tolist() == [0.0]

    def test_single_linear_layer(self):
        model = init_mlp([2, 1], seed=0)
        model.weights[0][:] = 1.0
        model.biases[0][:] = 0.0
        assert predict_batch(model, [[0.3, 0.4]])[0] == pytest.approx(0.7)

    def test_matches_hand_rolled_oracle(self, rng):
        model = init_mlp([4, 5, 3, 1], seed=21)
        xs = rng.uniform(-2, 2, size=(5, 4))
        for x, pred in zip(xs, predict_batch(model, xs)):
            assert pred == pytest.approx(hand_rolled_forward(model, x),
                                         rel=1e-12)

    def test_dimension_mismatch(self):
        model = init_mlp([3, 1], seed=0)
        with pytest.raises(ValueError):
            predict_batch(model, [[1.0, 2.0]])


class TestSignPenalty:
    def test_binary_cases(self):
        assert sign_penalty(0.3, 0.7) == 1
        assert sign_penalty(-0.3, -0.7) == 1
        assert sign_penalty(0.3, -0.7) == -1
        assert sign_penalty(0.0, 0.7) == 0
        assert sign_penalty(-0.0, -0.7) == 0

    @given(st.floats(-10, 10, allow_nan=False),
           st.floats(-10, 10, allow_nan=False))
    def test_k1_equals_sign_of_product(self, p, t):
        assert sign_penalty(p, t) == int(np.sign(p * t))

    def test_array_form_equals_scalar_form(self):
        grid = [-2.0, -0.5, np.nextafter(-0.0, -1), -0.0, 0.0,
                np.nextafter(0.0, 1), 0.25, 3.0]
        p, t = (a.ravel() for a in np.meshgrid(grid, grid))
        penalties = sign_penalty(p, t)
        assert penalties.shape == p.shape
        scalars = [sign_penalty(float(a), float(b)) for a, b in zip(p, t)]
        assert all(type(s) is int for s in scalars)
        assert penalties.tolist() == scalars
        assert set(scalars) == {-1, 0, 1}


class TestPenalizedLoss:
    def test_perfect_fit(self):
        cfg = LossConfig(beta=0.1)
        assert penalized_loss([0.5, -0.5], [0.5, -0.5], cfg) \
            == pytest.approx(-0.1)

    def test_all_misclassified(self):
        cfg = LossConfig(beta=0.1)
        assert penalized_loss([0.5, -0.5], [-0.5, 0.5], cfg) \
            == pytest.approx(1.1)

    def test_beta_zero_is_rmse(self, rng):
        cfg = LossConfig(beta=0.0)
        p, t = rng.normal(size=10), rng.normal(size=10)
        assert penalized_loss(p, t, cfg) == pytest.approx(rmse(p, t))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=20))
    def test_bounded_by_beta(self, pairs):
        cfg = LossConfig(beta=0.1)
        p = [a for a, _ in pairs]
        t = [b for _, b in pairs]
        loss = penalized_loss(p, t, cfg)
        r = rmse(p, t)
        assert r - cfg.beta - 1e-12 <= loss <= r + cfg.beta + 1e-12


class TestBackward:
    def test_perfect_predictions_surrogate_off(self):
        model = init_mlp([2, 3, 1], seed=1)
        cfg = LossConfig(beta=0.0)  # no penalty, and so no surrogate
        x = np.array([[0.1, 0.2], [0.3, -0.4]])
        t = predict_batch(model, x)
        assert not gradient(model, x, t, cfg).any()

    def test_matches_finite_differences(self):
        cfg = LossConfig(beta=0.1)
        rng = np.random.default_rng(3)
        model = init_mlp([4, 5, 3, 1], seed=13)
        x = rng.uniform(-1, 1, size=(8, 4))
        t = rng.uniform(-1, 1, size=8)
        analytic = gradient(model, x, t, cfg)
        fd = fd_gradient(model, x, t, cfg)
        assert rel_error(analytic, fd) < 1e-4

    def test_beta_zero_equals_plain_rmse_backward(self, rng, monkeypatch):
        model = init_mlp([3, 4, 1], seed=2)
        x = rng.uniform(-1, 1, size=(6, 3))
        t = rng.uniform(-1, 1, size=6)
        g0 = gradient(model, x, t, LossConfig(beta=0.0))
        # beta = 0 reads no other penalty setting, and leaves the RMSE's
        monkeypatch.setattr(mlp_mod, "SURROGATE_SHARPNESS", 3.0)
        g_other = gradient(model, x, t, LossConfig(beta=0.0))
        np.testing.assert_array_equal(g0, g_other)
        fd = fd_gradient(model, x, t, LossConfig(beta=0.0))
        assert rel_error(g0, fd) < 1e-4


    def test_rejects_mismatched_rows(self):
        model = init_mlp([2, 3, 1], seed=0)
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="batch size mismatch"):
            backward(model, x, np.zeros(2), LossConfig(), _Buffers(model, 3))


class TestRmspropStep:
    def _single_param_model(self, value=0.0):
        model = init_mlp([1, 1], seed=0)
        model.weights[0][:] = value
        return model

    def test_zero_gradient_fixed_point(self):
        model = self._single_param_model(0.7)
        cfg = MlpTrainConfig()
        zeros = np.zeros(2)  # the one weight, then the one bias
        out = rmsprop_step(model, zeros, cfg)
        assert out is model
        assert out.weights[0][0, 0] == 0.7
        # accumulators decay even with zero gradient
        model.sq_grads[0] = 1.0  # the weight's accumulator
        out = rmsprop_step(model, zeros, cfg)
        assert out.sq_grads[0] == pytest.approx(0.9)

    def test_hand_evaluated_step(self):
        model = self._single_param_model(0.0)
        # mlp's decay 0.9 and epsilon 1e-8
        cfg = MlpTrainConfig(rmsprop_learning_rate=0.001)
        grads = np.array([1.0, 0.0])  # weight gradient 1, bias gradient 0
        out = rmsprop_step(model, grads, cfg)
        assert out.sq_grads[0] == pytest.approx(0.1)
        assert out.weights[0][0, 0] == pytest.approx(
            -0.001 / (np.sqrt(0.1) + 1e-8))

    def test_repeated_steps_shrink(self):
        model = self._single_param_model(0.0)
        cfg = MlpTrainConfig()
        grads = np.array([1.0, 0.0])
        step1 = step_copy(model, grads, cfg)
        move1 = abs(step1.weights[0][0, 0] - model.weights[0][0, 0])
        step2 = step_copy(step1, grads, cfg)
        move2 = abs(step2.weights[0][0, 0] - step1.weights[0][0, 0])
        assert move2 < move1


class TestTrainMlp:
    def separable_toy(self):
        x = np.array([[v] for v in (-4, -3, -2, -1, 1, 2, 3, 4)], dtype=float)
        t = np.sign(x[:, 0]) * 0.5
        return x, t

    def test_separable_set_reaches_full_accuracy(self):
        x, t = self.separable_toy()
        model = init_mlp([1, 8, 1], seed=3)
        cfg = MlpTrainConfig(epochs=500)
        model, hist = train_mlp(model, x, t, cfg, LossConfig())
        assert hist is None
        assert boundary_accuracy(predict_batch(model, x), t) == 1.0

    def test_rejects_an_empty_training_set(self):
        model = init_mlp([1, 4, 1], seed=0)
        with pytest.raises(ValueError, match="empty training set"):
            train_mlp(model, np.empty((0, 1)), np.empty(0),
                      MlpTrainConfig(epochs=5), LossConfig())

    def test_deterministic(self):
        x, t = self.separable_toy()
        cfg = MlpTrainConfig(epochs=50)
        runs = []
        for _ in range(2):
            model = init_mlp([1, 4, 1], seed=4)
            _, hist = train_mlp(model, x, t, cfg, LossConfig(),
                                eval_split=FoldSplit((0, 2, 3, 5, 7), (1, 4, 6)))
            runs.append(hist)
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_eval_split_recorded(self):
        x, t = self.separable_toy()
        split = FoldSplit(tuple(range(6)), (6, 7))
        model = init_mlp([1, 4, 1], seed=1)
        _, hist = train_mlp(model, x, t, MlpTrainConfig(epochs=10), LossConfig(),
                            eval_split=split)
        assert hist.test_loss.shape == hist.test_accuracy.shape == (10,)


class TestPredictWithoutBuffers:
    """Outside training, predict_batch allocates the (rows, width)
    activations of each layer and no training buffers: no product buffer,
    output rows or flat gradient."""

    def test_builds_no_training_buffers(self, rng, monkeypatch):
        model = init_mlp([10, 20, 10, 5, 1], seed=0)
        x = rng.normal(size=(37, 10))
        want = predict_batch(model, x, _Buffers(model, 37).acts).copy()

        def forbidden(*args):
            raise AssertionError("training buffers built for a prediction")
        monkeypatch.setattr(mlp_mod, "_Buffers", forbidden)
        np.testing.assert_array_equal(predict_batch(model, x), want)

    def test_peak_memory_is_about_the_activations(self, rng):
        rows, sizes = 1190, [10, 20, 10, 5, 1]
        model = init_mlp(sizes, seed=0)
        x = rng.normal(size=(rows, 10))
        acts_bytes = rows * sum(sizes[1:]) * 8  # 343 KB
        predict_batch(model, x)  # first-call caches, outside the measure
        tracemalloc.start()
        try:
            predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's ufunc buffer for the broadcast bias add comes on top; a
        # whole _Buffers takes about 1.7 times the activations (three times
        # while it also held a delta and a scratch array per hidden layer)
        assert peak < 1.5 * acts_bytes


class TestNoSharedMemory:
    """A call writes only into the buffers and model it is given, so
    results in other buffers or models stay as they were; predict_batch
    without buffers hands out arrays that no later call overwrites."""

    def model_and_batch(self, rng):
        model = init_mlp([3, 6, 4, 1], seed=7)
        return model, rng.normal(size=(9, 3)), rng.normal(size=9)

    def test_predict_batch_results_independent(self, rng):
        model, x, _ = self.model_and_batch(rng)
        a = predict_batch(model, x)
        a_copy = a.copy()
        b = predict_batch(model, x[::-1])
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, a_copy)

    def test_backward_results_independent(self, rng):
        model, x, t = self.model_and_batch(rng)
        buffers = [_Buffers(model, 9), _Buffers(model, 9)]
        first = backward(model, x, t, LossConfig(), buffers[0])
        copy = first.copy()
        second = backward(model, x[::-1], t, LossConfig(), buffers[1])
        np.testing.assert_array_equal(first, copy)
        assert not np.shares_memory(first, second)
        # the same buffers again: the result is overwritten
        again = backward(model, x[::-1], t, LossConfig(), buffers[0])
        assert again is first
        np.testing.assert_array_equal(first, second)

    def test_rmsprop_step_leaves_input_model(self, rng):
        """A step changes only the model it is given: a copy taken before
        it keeps its values and shares no memory with the stepped model."""
        model, x, t = self.model_and_batch(rng)
        rmsprop_step(model, gradient(model, x, t, LossConfig()),
                     MlpTrainConfig())
        kept = model.copy()
        arrays = [kept.params, kept.sq_grads]
        before = [a.copy() for a in arrays]
        out = rmsprop_step(model, gradient(model, x, t, LossConfig()),
                           MlpTrainConfig())
        assert out is model
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)
        new = [out.params, out.sq_grads]
        assert not any(np.shares_memory(a, b) for a in arrays for b in new)
        assert any((a != b).any() for a, b in zip(arrays, new))

    def test_in_place_edit_takes_effect_next_step(self, rng):
        model, x, t = self.model_and_batch(rng)
        cfg = MlpTrainConfig()
        stepped = step_copy(model, gradient(model, x, t, LossConfig()), cfg)
        stepped.weights[1][:] = 0.25
        stepped.biases[2][:] = -1.0
        sq_grad_w, sq_grad_b = stepped.split(stepped.sq_grads)
        sq_grad_w[0][:] = 4.0
        grads = gradient(stepped, x, t, LossConfig())
        # the edited model, copied layer by layer, gives the same step
        copied = MlpModel(
            to_flat(stepped.weights + stepped.biases),
            to_flat(sq_grad_w + sq_grad_b), stepped.layer_sizes)
        np.testing.assert_array_equal(predict_batch(stepped, x),
                                      predict_batch(copied, x))
        out = step_copy(stepped, grads, cfg)
        want = step_copy(copied, gradient(copied, x, t, LossConfig()), cfg)
        for a, b in zip((out.params, out.sq_grads),
                        (want.params, want.sq_grads)):
            np.testing.assert_array_equal(a, b)
        zero = np.zeros_like(stepped.params)
        held = step_copy(stepped, zero, cfg)
        assert (held.weights[1] == 0.25).all()
        assert (held.biases[2] == -1.0).all()
        assert (held.split(held.sq_grads)[0][0] == 0.9 * 4.0).all()

    def test_train_mlp_returns_fresh_model(self, rng):
        model, x, t = self.model_and_batch(rng)
        before = [w.copy() for w in model.weights]
        out, _ = train_mlp(model, x, t, MlpTrainConfig(epochs=3),
                           LossConfig())
        for w, b in zip(model.weights, before):
            np.testing.assert_array_equal(w, b)
        assert not any(np.shares_memory(a, b) for a in model.weights
                       for b in out.weights)


class TestPerEpochCalls:
    """Each epoch calls the public functions through the module, so that a
    wrapper installed on the module attribute sees every epoch."""

    @pytest.mark.parametrize("split", [
        None, FoldSplit((0, 1, 2, 3, 4, 5), (6, 7))])
    def test_counts(self, monkeypatch, split):
        import alsal.mlp as mlp_mod
        counts = dict.fromkeys(("backward", "rmsprop_step", "predict_batch"),
                               0)
        for name in counts:
            orig = getattr(mlp_mod, name)

            def counted(*args, _orig=orig, _name=name):
                counts[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(mlp_mod, name, counted)
        x = np.linspace(-1, 1, 8)[:, None]
        mlp_mod.train_mlp(init_mlp([1, 3, 1], seed=0), x, x[:, 0],
                          MlpTrainConfig(epochs=5), LossConfig(),
                          eval_split=split)
        # backward runs once before the first step and once after each,
        # its forward pass giving the stepped model's train cells, so
        # predict_batch runs only on the test rows, once per epoch
        assert counts == {"backward": 6, "rmsprop_step": 5,
                          "predict_batch": 0 if split is None else 5}


class TestFlatLayout:
    """An MlpModel's per-layer lists are views of its two flat vectors."""

    def models(self, rng):
        model = init_mlp([3, 6, 4, 1], seed=7)
        x, t = rng.normal(size=(9, 3)), rng.normal(size=9)
        stepped = step_copy(model, gradient(model, x, t, LossConfig()),
                            MlpTrainConfig())
        built = MlpModel(rng.normal(size=model.params.size),
                         rng.uniform(size=model.params.size), [3, 6, 4, 1])
        return {"init_mlp": model, "rmsprop_step": stepped,
                "constructor": built}

    @pytest.mark.parametrize("source",
                             ["init_mlp", "rmsprop_step", "constructor"])
    def test_lists_view_flat_vectors(self, rng, source):
        model = self.models(rng)[source]
        for flat, (w, b) in ((model.params, (model.weights, model.biases)),
                             (model.sq_grads, model.split(model.sq_grads))):
            assert len(w) == len(b) == 3
            assert all(np.shares_memory(v, flat) for v in w + b)
            np.testing.assert_array_equal(to_flat(w + b), flat)

    def test_edit_through_weights_shows_in_params(self):
        model = init_mlp([2, 3, 1], seed=0)
        model.weights[1][2, 0] = 42.0
        # layout: weights (2, 3) then (3, 1), then biases (3,) and (1,)
        assert model.params[6 + 2] == 42.0
        model.biases[0][:] = -1.0
        assert (model.params[9:12] == -1.0).all()

    @pytest.mark.parametrize("sizes, rows", [
        ([1, 1], 37), ([2, 8, 1], 37), ([10, 20, 10, 5, 1], 37),
        ([10, 20, 10, 5, 1], 1071)],
        ids=["sizes0", "sizes1", "sizes2", "bench"])
    def test_backward_equals_reference(self, sizes, rows):
        rng = np.random.default_rng(11)
        model = init_mlp(sizes, seed=3)
        x = rng.uniform(-1.5, 1.5, size=(rows, sizes[0]))
        t = rng.uniform(-1.0, 1.0, size=rows)
        t[::5] = 0.0
        grad = gradient(model, x, t, LossConfig())
        grad_w, grad_b = reference_backward(model, x, t, LossConfig())
        assert grad.shape == model.params.shape
        assert (grad == to_flat(grad_w + grad_b)).all()

    @pytest.mark.parametrize("rows", [1, 2, 37, 1071])
    def test_bias_sums_equal_np_sum(self, rows):
        rng = np.random.default_rng(rows)
        for width in range(1, 33):
            # magnitudes from 1e-8 to 1e3, so any other order of adding
            # shows in the last bits; and entries of +0 and -0
            delta = 10.0 ** rng.uniform(-8, 3, size=(rows, width))
            delta *= rng.choice([-1.0, 1.0], size=delta.shape)
            delta[rng.uniform(size=delta.shape) < 0.1] = 0.0
            delta[rng.uniform(size=delta.shape) < 0.1] = -0.0
            out = np.full(width, np.nan)
            assert _column_sums(delta, out) is out
            assert (out == np.sum(delta, axis=0)).all(), width

    def test_split_rejects_wrong_length(self):
        model = init_mlp([2, 3, 1], seed=0)
        with pytest.raises(ValueError, match="does not fit"):
            model.split(np.zeros(model.params.size + 1))
        with pytest.raises(ValueError, match="does not fit"):
            MlpModel(np.zeros(3), np.zeros(3), [2, 3, 1])


def reference_output_gradient(preds, truths, cfg):
    """_output_gradient as it was written before it took scratch rows, at
    the boundary 0: every temporary a new array."""
    n = preds.size
    resid = preds - truths
    r = rmse(preds, truths)
    grad = np.zeros_like(preds) if r == 0 else resid / (n * r)
    if cfg.beta != 0:
        kappa = 10.0  # mlp's SURROGATE_SHARPNESS
        th = np.tanh(kappa * preds * truths)
        grad -= cfg.beta / n * kappa * truths * (1.0 - th * th)
    return grad


class TestInPlaceForms:
    """Each function that writes in place gives, with ==, what its
    allocating reference gives, also when its work arrays hold an earlier
    call's values."""

    LOSSES = [LossConfig(), LossConfig(beta=0.0),
              LossConfig(beta=0.3), LossConfig(beta=1.0)]

    @pytest.mark.parametrize("cfg", LOSSES)
    @pytest.mark.parametrize("case", ["random", "all_zero_residuals",
                                      "boundary_hits"])
    def test_output_gradient(self, rng, cfg, case):
        truths = rng.normal(size=12)
        if case == "random":
            preds = rng.normal(size=12)
        elif case == "all_zero_residuals":  # the r == 0 branch
            preds = truths.copy()
        else:
            preds = rng.normal(size=12)
            preds[:3] = truths[3:6] = (-0.5, 0.0, 0.5)
            truths[:3] = (0.0, 0.5, -0.0)
        want = reference_output_gradient(preds, truths, cfg)
        out = rng.normal(size=(3, 12))  # stale values
        assert _output_gradient(preds, truths, cfg, out) == rmse(preds, truths)
        got = out[0]
        np.testing.assert_array_equal(got, want)
        if case == "all_zero_residuals" and cfg.beta == 0:
            assert not got.any()

    @pytest.mark.parametrize("cfg", LOSSES)
    def test_backward(self, rng, cfg):
        model = init_mlp([3, 6, 4, 1], seed=2)
        x, t = rng.normal(size=(9, 3)), rng.normal(size=9)
        buffers = _Buffers(model, 9)
        backward(init_mlp([3, 6, 4, 1], seed=5), x[::-1], -t, cfg, buffers)
        got = backward(model, x, t, cfg, buffers)
        assert got is buffers.grad
        assert buffers.rmse == rmse(predict_batch(model, x), t)
        np.testing.assert_array_equal(
            got, to_flat(sum(reference_backward(model, x, t, cfg), [])))

    def test_rmsprop_step(self, rng):
        model = init_mlp([3, 6, 4, 1], seed=2)
        model.sq_grads[:] = rng.uniform(0, 1, size=model.sq_grads.size)
        cfg = MlpTrainConfig()
        grad = rng.normal(size=model.params.size)
        want = reference_rmsprop_step(model, model.split(grad), cfg)
        in_place = model.copy()
        got = rmsprop_step(in_place, grad, cfg)
        assert got is in_place
        np.testing.assert_array_equal(got.params, want.params)
        np.testing.assert_array_equal(got.sq_grads, want.sq_grads)

    def test_rmsprop_step_divergence(self, rng):
        """rmsprop_step returns a non-finite step as it is, where the
        reference raises, and the reference's values before it; train_mlp
        raises DivergenceError at the epoch of the first step that leaves
        a parameter non-finite (1e308) or a model whose training RMSE is
        not finite (2e307: its parameters stay finite)."""
        model = init_mlp([3, 6, 4, 1], seed=2)
        x, t = rng.normal(size=(9, 3)), rng.normal(size=9)
        before, found = model.params.copy(), []
        for learning_rate in (1e308, 2e307):
            cfg = MlpTrainConfig(epochs=10,
                                 rmsprop_learning_rate=learning_rate)
            with np.errstate(all="ignore"):
                stepped = model.copy()
                ref = model.copy()
                for epoch in range(cfg.epochs):
                    grad = gradient(stepped, x, t, LossConfig())
                    rmsprop_step(stepped, grad, cfg)
                    ref_grad = reference_backward(ref, x, t, LossConfig())
                    finite = np.isfinite(stepped.params).all()
                    if not finite:
                        with pytest.raises(DivergenceError):
                            reference_rmsprop_step(ref, ref_grad, cfg)
                        break
                    ref = reference_rmsprop_step(ref, ref_grad, cfg)
                    np.testing.assert_array_equal(stepped.params, ref.params)
                    if not np.isfinite(rmse(predict_batch(stepped, x), t)):
                        break
                with pytest.raises(DivergenceError) as e:
                    train_mlp(model, x, t, cfg, LossConfig())
            assert e.value.epoch == epoch
            found.append((epoch, bool(finite)))
        assert found == [(0, False), (0, True)]
        np.testing.assert_array_equal(model.params, before)


class TestTrainingAllocations:
    def test_epochs_allocate_nothing_that_scales_with_rows(self, rng):
        # A (rows,) float64 vector is 160 KB at 20,000 rows. Before training
        # stepped in place, 20 epochs allocated about 1 MB more at peak than
        # none; numpy's fixed buffer for the broadcast bias add stays.
        rows = 20_000
        x, t = rng.normal(size=(rows, 10)), rng.normal(size=rows)
        model = init_mlp([10, 20, 10, 5, 1], seed=0)

        def peak(epochs):
            # no config allows 0 epochs, which measures what training
            # holds outside its epochs
            cfg = (MlpTrainConfig(epochs=epochs) if epochs
                   else SimpleNamespace(epochs=0))
            tracemalloc.start()
            try:
                train_mlp(model, x, t, cfg, LossConfig())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(1)  # first-call caches, outside the comparison
        assert peak(20) - peak(0) < rows * 8

    def test_peak_is_about_the_arrays_training_reads(self, rng):
        """At the bench shape, with a held-out split and a full history
        block, training holds only arrays it reads: the train rows'
        inputs, activations (which backward overwrites with the deltas),
        product buffer and output rows, the flat gradient, the test rows'
        activations, and each Scorer's float block and, only while a block
        is scored, its bool blocks, 1.01 MB in all. A delta and a
        tanh-derivative scratch array per hidden layer, a whole _Buffers
        for the test rows and a float scratch block per Scorer took the
        peak to 1.94 MB."""
        tr, te, sizes = 1071, 119, [10, 20, 10, 5, 1]
        model = init_mlp(sizes, seed=0)
        width = sum(sizes[1:])
        kept = (8 * (tr * sizes[0]  # train inputs
                     + tr * width  # train activations
                     + tr * max(sizes[1:-1])  # delta @ w.T
                     + 3 * tr  # output gradient and its scratch rows
                     + model.params.size  # flat gradient
                     + te * width  # test activations
                     + HISTORY_BLOCK * (tr + te))  # Scorer blocks
                + 2 * HISTORY_BLOCK * (tr + te))  # their bool blocks
        x = rng.normal(size=(tr + te, sizes[0]))
        t = rng.normal(size=tr + te)
        split = FoldSplit(np.arange(tr), np.arange(tr, tr + te))
        cfg = MlpTrainConfig(epochs=HISTORY_BLOCK + 1)
        train_mlp(model, x, t, cfg, LossConfig(), eval_split=split)  # caches
        tracemalloc.start()
        try:
            train_mlp(model, x, t, cfg, LossConfig(), eval_split=split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the model copy, the rmsprop step's temporaries, Scorer truths and
        # numpy's ufunc buffers come on top, about 0.1 MB; the bool blocks
        # exist only while a block is scored
        assert peak < 1.25 * kept
