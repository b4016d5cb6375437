"""Small fully connected network trained with rmsprop.

Hidden activations are tanh, the output is linear. The training objective
is RMSE minus a weighted classification penalty: the exact penalty is a
sign term (gradient zero almost everywhere), so training defaults to a smooth
tanh surrogate. The training curve records RMSE and boundary accuracy;
`penalized_loss` evaluates the exact objective, array-wide, on request.

A training epoch allocates no array. `_Buffers` holds one batch size's
work arrays: per layer, the (rows, width) activations, back-propagated
deltas and tanh-derivative scratch; the output gradient and its two
scratch rows; and the flat parameter gradient with its per-layer views.
`train_mlp` makes one for its training rows and, with history on and a
test split, one for the test rows, and passes them to `backward` and
`predict_batch`, whose ufuncs write through `out=`. It copies the model
once and then steps that copy in place through `rmsprop_step` and a
`StepWork`. Called without buffers or work, these functions make fresh
ones (and `rmsprop_step` a new model), so a public caller's result is
never overwritten by a later call. Either way each product and sum is
taken in the same order, so both forms give the same bits.
An epoch's train history cells come from the next epoch's training
forward pass (the one `backward` runs anyway), so history costs one
forward pass over the test rows per epoch. Two `metrics.Scorer`s score the
train and test cells HISTORY_BLOCK epochs at a time.
An `MlpModel` stores its parameters, its rmsprop accumulators and, from
`backward`, its gradients as flat float64 vectors in one layout (all weight
matrices in layer order, then all biases), and `MlpModel.split` gives the
per-layer views of any of them; `rmsprop_step` updates the flat vectors in
one pass, with the same per-element arithmetic as a per-layer update.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .als import DivergenceError, check_count
from .metrics import Curve, Scorer, residual_rmse, rmse


@dataclass
class MlpModel:
    """A network's parameters and rmsprop accumulators, each one flat
    float64 vector laid out as all the weight matrices in layer order, then
    all the bias vectors. `weights`/`biases` (per layer, (fan_in, fan_out)
    and (fan_out,)) view `params`, and `sq_grad_w`/`sq_grad_b` view
    `sq_grads`, so an edit through a view changes the vector."""

    params: np.ndarray
    sq_grads: np.ndarray
    layer_sizes: list

    def __post_init__(self):
        self.weights, self.biases = self.split(self.params)
        self.sq_grad_w, self.sq_grad_b = self.split(self.sq_grads)

    def split(self, flat):
        """Per-layer views (weights, biases) of a vector in this layout."""
        sizes = self.layer_sizes
        shapes = [*zip(sizes[:-1], sizes[1:]), *((s,) for s in sizes[1:])]
        bounds = list(accumulate((math.prod(s) for s in shapes), initial=0))
        if flat.shape != (bounds[-1],):
            raise ValueError(f"flat vector of shape {flat.shape} does not "
                             f"fit layer sizes {sizes}")
        views = [flat[a:b].reshape(s)
                 for a, b, s in zip(bounds, bounds[1:], shapes)]
        return views[:len(sizes) - 1], views[len(sizes) - 1:]

    def copy(self):
        return MlpModel(self.params.copy(), self.sq_grads.copy(),
                        self.layer_sizes)


@dataclass(frozen=True)
class LossConfig:
    beta: float = 0.1
    boundaries: tuple = (0.0,)
    surrogate_sharpness: float = 10.0
    use_smooth_surrogate: bool = True

    def __post_init__(self):
        b = self.boundaries
        if (not isinstance(b, tuple) or not b
                or any(lo >= hi for lo, hi in zip(b, b[1:]))):
            raise ValueError("boundaries must be a non-empty, strictly "
                             f"increasing tuple, not {b!r}")


@dataclass(frozen=True)
class MlpTrainConfig:
    epochs: int = 200
    rmsprop_learning_rate: float = 0.001
    rmsprop_decay: float = 0.9
    rmsprop_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_count("epochs", self.epochs, minimum=0)


def init_mlp(layer_sizes, seed):
    """Glorot-uniform weights, zero biases, zero rmsprop accumulators."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    size = sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    model = MlpModel(np.zeros(size), np.zeros(size), list(layer_sizes))
    rng = np.random.default_rng(seed)
    for w in model.weights:
        fan_in, fan_out = w.shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-s, s, size=(fan_in, fan_out))
    return model


class _Buffers:
    """Work arrays for one batch size of one network shape: per layer, its
    (rows, width) activations, and per hidden layer the back-propagated
    delta and the tanh-derivative scratch; the output gradient and two
    scratch rows, (3, rows); and a flat gradient in the layout of
    `model.params` with its per-layer views `grad_w`/`grad_b`. Each call
    that is given them overwrites them."""

    def __init__(self, model, rows):
        widths = model.layer_sizes[1:]
        self.acts = [np.empty((rows, w)) for w in widths]
        self.deltas = [np.empty((rows, w)) for w in widths[:-1]]
        self.scratch = [np.empty((rows, w)) for w in widths[:-1]]
        self.output_rows = np.empty((3, rows))
        self.grad = np.empty_like(model.params)
        self.grad_w, self.grad_b = model.split(self.grad)


def _forward_batch(model, inputs, buffers=None):
    """Activations per layer; inputs is (batch, fan_in). The layer outputs
    are written into `buffers` (fresh ones if not given)."""
    acts = [np.asarray(inputs, dtype=float)]
    if buffers is None:
        buffers = _Buffers(model, acts[0].shape[0])
    n_layers = len(model.weights)
    for li, (w, b, z) in enumerate(zip(model.weights, model.biases,
                                       buffers.acts)):
        np.matmul(acts[-1], w, out=z)
        np.add(z, b, out=z)
        if li < n_layers - 1:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def predict_batch(model, inputs, buffers=None):
    """Network output per input row; a view into `buffers` when given."""
    return _forward_batch(model, inputs, buffers)[-1][:, 0]


def sign_penalty(pred, truth, boundaries):
    """+1 if pred and truth share an inter-boundary interval, -1 if any
    boundary strictly separates them, 0 on an exact boundary hit;
    elementwise on arrays (float result), an int for scalars."""
    s = sum(np.sign((pred - c) * (truth - c)) for c in boundaries)
    penalty = np.sign(s - len(boundaries) + 1)
    return int(penalty) if penalty.ndim == 0 else penalty


def penalized_loss(preds, truths, cfg):
    """RMSE minus beta times the mean sign penalty (exact, non-smooth form)."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    # the mean of +-1/0 values is exact in float64, in any summation order
    return rmse(preds, truths) - cfg.beta * float(
        np.mean(sign_penalty(preds, truths, cfg.boundaries)))


def surrogate_objective(preds, truths, cfg):
    """The differentiable objective actually optimized when the smooth
    surrogate is on: the sign penalty is replaced per boundary by
    tanh(kappa * (pred - c) * (truth - c)), averaged over boundaries."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    loss = rmse(preds, truths)
    if cfg.beta == 0:
        return loss
    kappa = cfg.surrogate_sharpness
    pen = np.mean([np.mean(np.tanh(kappa * (preds - c) * (truths - c)))
                   for c in cfg.boundaries])
    return loss - cfg.beta * float(pen)


def _output_gradient(preds, truths, cfg, out=None):
    """d(objective)/d(pred) for the full batch, written into out[0]. out is
    a (3, batch) array whose other two rows are scratch; a new one if not
    given."""
    n = preds.size
    if out is None:
        out = np.empty((3, n))
    grad, th, t_c = out
    resid = np.subtract(preds, truths, out=grad)
    r = residual_rmse(resid, out=th)
    # RMSE = 0 means every residual is 0; the gradient limit is taken as 0
    if r == 0:
        grad.fill(0.0)
    else:
        grad /= n * r
    if cfg.beta != 0 and cfg.use_smooth_surrogate:
        kappa = cfg.surrogate_sharpness
        k = len(cfg.boundaries)
        for c in cfg.boundaries:
            # grad -= beta / (n k) * kappa * (truths - c) * (1 - th**2),
            # th = tanh(kappa * (preds - c) * (truths - c)), in that order
            np.subtract(preds, c, out=th)
            th *= kappa
            np.subtract(truths, c, out=t_c)
            th *= t_c
            np.tanh(th, out=th)
            np.multiply(th, th, out=th)
            np.subtract(1.0, th, out=th)
            t_c *= cfg.beta / (n * k) * kappa
            t_c *= th
            grad -= t_c
    return grad


def backward(model, batch_inputs, batch_truths, cfg, buffers=None):
    """Gradient of the training objective, a flat vector in the layout of
    `model.params`: `buffers.grad`, which the next call given the same
    buffers overwrites (fresh buffers if not given).

    With the surrogate off the penalty contributes nothing (the true sign
    term has zero gradient almost everywhere).
    """
    inputs = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    truths = np.asarray(batch_truths, dtype=float)
    if inputs.shape[0] != truths.size:
        raise ValueError("batch size mismatch")
    if buffers is None:
        buffers = _Buffers(model, inputs.shape[0])
    acts = _forward_batch(model, inputs, buffers)
    preds = acts[-1][:, 0]

    grad_w, grad_b = buffers.grad_w, buffers.grad_b
    delta = _output_gradient(preds, truths, cfg,
                             buffers.output_rows)[:, None]  # (batch, 1)
    for li in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[li].T, delta, out=grad_w[li])
        np.sum(delta, axis=0, out=grad_b[li])
        if li > 0:
            # delta <- (delta @ w.T) * (1 - a**2), a = this layer's input
            nxt, deriv = buffers.deltas[li - 1], buffers.scratch[li - 1]
            np.matmul(delta, model.weights[li].T, out=nxt)
            np.square(acts[li], out=deriv)
            np.subtract(1.0, deriv, out=deriv)
            delta = np.multiply(nxt, deriv, out=nxt)
    return buffers.grad


class StepWork(NamedTuple):
    """Work vectors for rmsprop_step, each the size of `model.params`: the
    step, its denominator and the finiteness flags."""

    step: np.ndarray
    denom: np.ndarray
    finite: np.ndarray

    @classmethod
    def like(cls, model):
        p = model.params
        return cls(np.empty_like(p), np.empty_like(p),
                   np.empty(p.shape, dtype=bool))


def rmsprop_step(model, grad, cfg, work=None):
    """One rmsprop update for the flat gradient `grad`.

    Given work (a StepWork for the model), it updates `model.params` and
    `model.sq_grads` in place and returns the model; without it, the model
    is left as it was and a new one, accumulators included, is returned.
    A non-finite parameter raises DivergenceError(-1), after the update.
    """
    if work is None:
        model = model.copy()
        work = StepWork.like(model)
    step, denom, finite = work
    decay = cfg.rmsprop_decay
    # sq_grads <- decay * sq_grads + (1 - decay) * grad * grad
    model.sq_grads *= decay
    np.multiply(grad, 1.0 - decay, out=step)
    step *= grad
    model.sq_grads += step
    # params <- params - learning_rate * grad / (sqrt(sq_grads) + epsilon)
    np.multiply(grad, cfg.rmsprop_learning_rate, out=step)
    np.sqrt(model.sq_grads, out=denom)
    denom += cfg.rmsprop_epsilon
    step /= denom
    model.params -= step
    if not np.isfinite(model.params, out=finite).all():
        raise DivergenceError(-1)
    return model


def train_mlp(model, inputs, truths, train_cfg, loss_cfg, eval_split=None,
              start_epoch=0, record_history=True):
    """Full-batch rmsprop training; deterministic given the initial model.
    Returns the trained model and a Curve numbered from start_epoch, or
    None for the curve when record_history is False.

    eval_split indexes rows of `inputs`; training uses the train rows only.
    Epoch e's train cells come from the forward pass of epoch e + 1's
    `backward`, which runs on the model that epoch e left (the last epoch's
    from one more pass over the train rows), and its test cells from a pass
    over the test rows alone.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    truths = np.asarray(truths, dtype=float)
    if eval_split is not None:
        tr = np.asarray(eval_split.train_indices, dtype=int)
        te = np.asarray(eval_split.test_indices, dtype=int)
    else:
        tr, te = np.arange(inputs.shape[0]), None
    if tr.size == 0:
        raise ValueError("empty training set")

    inputs_tr, truths_tr = inputs[tr], truths[tr]
    model = model.copy()  # stepped in place from here on
    # allocated once: each epoch overwrites them
    train_buffers = _Buffers(model, tr.size)
    step_work = StepWork.like(model)
    epochs, b0 = train_cfg.epochs, loss_cfg.boundaries[0]
    scorers = []
    if record_history:
        scorers.append(Scorer(truths_tr, b0, epochs))
        if te is not None and te.size > 0:
            inputs_te = inputs[te]
            scorers.append(Scorer(truths[te], b0, epochs))
            test_buffers = _Buffers(model, te.size)
    for epoch in range(epochs):
        grad = backward(model, inputs_tr, truths_tr, loss_cfg, train_buffers)
        if scorers and epoch:  # the previous epoch's train cells
            scorers[0].add(train_buffers.acts[-1][:, 0])
        try:
            model = rmsprop_step(model, grad, train_cfg, step_work)
        except DivergenceError:
            raise DivergenceError(epoch)
        if len(scorers) == 2:
            scorers[1].add(predict_batch(model, inputs_te, test_buffers))
    if not record_history:
        return model, None
    if epochs:
        scorers[0].add(predict_batch(model, inputs_tr, train_buffers))
    return model, Curve.scored(start_epoch, *scorers)
