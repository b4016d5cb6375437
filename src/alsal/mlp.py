"""Small fully connected network trained with rmsprop.

Hidden activations are tanh, the output is linear. The training objective
is RMSE minus a weighted classification penalty: the exact penalty is a
sign term (gradient zero almost everywhere), so training defaults to a smooth
tanh surrogate. The training curve records RMSE and boundary accuracy;
`penalized_loss` evaluates the exact objective, array-wide, on request.

Training allocates nothing per epoch that scales with the number of rows.
`_Buffers` holds one batch size's per-layer (rows, width) arrays: the
activations, the back-propagated deltas and the tanh-derivative scratch.
`train_mlp` makes one for its training rows and, with history on, one for
all rows, and passes them to `backward` and `predict_batch`, whose ufuncs
write through `out=`. Called without buffers, those functions make fresh
ones, so a public caller's result is never overwritten by a later call.
An `MlpModel` stores its parameters, its rmsprop accumulators and, from
`backward`, its gradients as flat float64 vectors in one layout (all weight
matrices in layer order, then all biases), and `MlpModel.split` gives the
per-layer views of any of them; `rmsprop_step` updates the flat vectors in
one pass, with the same per-element arithmetic as a per-layer update.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .als import DivergenceError, check_count
from .metrics import EvalPoint, rmse, boundary_accuracy


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
    """Work arrays for one batch size: per layer, its (rows, width)
    activations, and per hidden layer the back-propagated delta and the
    tanh-derivative scratch. Each call that is given them overwrites them."""

    def __init__(self, layer_sizes, rows):
        widths = layer_sizes[1:]
        self.acts = [np.empty((rows, w)) for w in widths]
        self.deltas = [np.empty((rows, w)) for w in widths[:-1]]
        self.scratch = [np.empty((rows, w)) for w in widths[:-1]]


def _forward_batch(model, inputs, buffers=None):
    """Activations per layer; inputs is (batch, fan_in). The layer outputs
    are written into `buffers` (fresh ones if not given)."""
    acts = [np.asarray(inputs, dtype=float)]
    if buffers is None:
        buffers = _Buffers(model.layer_sizes, acts[0].shape[0])
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


def _output_gradient(preds, truths, cfg):
    """d(objective)/d(pred) for the full batch."""
    n = preds.size
    resid = preds - truths
    r = rmse(preds, truths)
    # RMSE = 0 means every residual is 0; the gradient limit is taken as 0
    grad = np.zeros_like(preds) if r == 0 else resid / (n * r)
    if cfg.beta != 0 and cfg.use_smooth_surrogate:
        kappa = cfg.surrogate_sharpness
        k = len(cfg.boundaries)
        for c in cfg.boundaries:
            th = np.tanh(kappa * (preds - c) * (truths - c))
            grad -= cfg.beta / (n * k) * kappa * (truths - c) * (1.0 - th * th)
    return grad


def backward(model, batch_inputs, batch_truths, cfg, buffers=None):
    """Gradient of the training objective, one new flat vector in the
    layout of `model.params`.

    With the surrogate off the penalty contributes nothing (the true sign
    term has zero gradient almost everywhere). The forward pass and the
    hidden deltas use `buffers` (fresh ones if not given).
    """
    inputs = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    truths = np.asarray(batch_truths, dtype=float)
    if inputs.shape[0] != truths.size:
        raise ValueError("batch size mismatch")
    if buffers is None:
        buffers = _Buffers(model.layer_sizes, inputs.shape[0])
    acts = _forward_batch(model, inputs, buffers)
    preds = acts[-1][:, 0]

    grad = np.empty_like(model.params)
    grad_w, grad_b = model.split(grad)
    delta = _output_gradient(preds, truths, cfg)[:, None]  # (batch, 1)
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
    return grad


def rmsprop_step(model, grad, cfg):
    """One rmsprop update for the flat gradient `grad`; returns a new model,
    accumulators included, and leaves the input model as it was."""
    decay = cfg.rmsprop_decay
    sq = decay * model.sq_grads
    sq += (1.0 - decay) * grad * grad
    step = cfg.rmsprop_learning_rate * grad
    step /= np.sqrt(sq) + cfg.rmsprop_epsilon
    params = model.params - step
    if not np.isfinite(params).all():
        raise DivergenceError(-1)
    return MlpModel(params, sq, model.layer_sizes)


def train_mlp(model, inputs, truths, train_cfg, loss_cfg, eval_split=None,
              start_epoch=0, record_history=True):
    """Full-batch rmsprop training; deterministic given the initial model.

    eval_split indexes rows of `inputs`; training uses the train rows only.
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
    truths_te = None if te is None else truths[te]
    # allocated once: each epoch overwrites them
    train_buffers = _Buffers(model.layer_sizes, tr.size)
    if record_history:
        all_buffers = _Buffers(model.layer_sizes, inputs.shape[0])
    history = []
    for epoch in range(train_cfg.epochs):
        grad = backward(model, inputs_tr, truths_tr, loss_cfg, train_buffers)
        try:
            model = rmsprop_step(model, grad, train_cfg)
        except DivergenceError:
            raise DivergenceError(epoch)
        if not record_history:
            continue
        preds = predict_batch(model, inputs, all_buffers)
        b0 = loss_cfg.boundaries[0]
        p_tr = preds[tr]
        point = {"epoch_or_round": start_epoch + epoch,
                 "train_loss": rmse(p_tr, truths_tr),
                 "train_accuracy": boundary_accuracy(p_tr, truths_tr, b0)}
        if te is not None and te.size:
            p_te = preds[te]
            point.update(
                test_loss=rmse(p_te, truths_te),
                test_accuracy=boundary_accuracy(p_te, truths_te, b0))
        history.append(EvalPoint(**point))
    return model, history
