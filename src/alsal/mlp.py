"""Small fully connected network trained with rmsprop.

Hidden activations are tanh, the output is linear. The training objective
is RMSE minus a weighted classification penalty at the data's boundary 0:
the exact penalty is the sign of pred * truth (gradient zero almost
everywhere), so training uses a smooth tanh surrogate, and beta = 0 trains
on the RMSE alone. The training curve records RMSE and accuracy at 0.

A training epoch allocates no array that grows with the rows; only its
rmsprop step takes temporaries the size of the parameters, and its
finiteness check a flag per parameter. `_Buffers` holds the training
rows' work arrays, each of which the code reads: per layer, the
(rows, width) activations, which `backward` overwrites in each hidden
layer with that layer's back-propagated delta; one product buffer for
delta @ w.T; the output gradient and its two scratch rows; and the flat
parameter gradient with its per-layer views. `train_mlp` makes one for
its training rows and passes it to `backward` and `predict_batch`, whose
ufuncs write through `out=`; given a split, it keeps only the
activations (`_activations`) of the test rows, for `predict_batch`. It
copies the model once and then steps that copy in place through
`rmsprop_step`. `predict_batch` also runs without activations: it then
allocates them, so that a caller outside training owns its result.
A layer's bias gradient is the column sums of its delta, taken by
`_column_sums` with the bits of `np.sum(delta, axis=0)`.
`train_mlp` runs `backward` once before its first step and once after
each step, for the next step's gradient. The forward pass of the
`backward` after step e gives epoch e's training RMSE (`_Buffers.rmse`),
which is checked along with the parameters, and its train curve cells;
its test cells come from one forward pass over the test rows, the
curve's only extra cost. Two `metrics.Scorer`s score the
train and test cells HISTORY_BLOCK epochs at a time, at the boundary 0
that the data and the ALS history use.
An `MlpModel` stores its parameters, its rmsprop accumulators and, from
`backward`, its gradients as flat float64 vectors in one layout (all weight
matrices in layer order, then all biases), and `MlpModel.split` gives the
per-layer views of any of them; `rmsprop_step` updates the flat vectors in
one pass, with the same per-element arithmetic as a per-layer update, its
decay and epsilon the constants RMSPROP_DECAY and RMSPROP_EPSILON.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .als import Config, DivergenceError, in_range
from .metrics import Curve, Scorer, residual_rmse

SURROGATE_SHARPNESS = 10.0
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8


@dataclass
class MlpModel:
    """A network's parameters and rmsprop accumulators, each one flat
    float64 vector laid out as all the weight matrices in layer order, then
    all the bias vectors. `weights`/`biases` (per layer, (fan_in, fan_out)
    and (fan_out,)) view `params`, so an edit through a view changes the
    vector; `split(sq_grads)` gives the accumulators' views."""

    params: np.ndarray
    sq_grads: np.ndarray
    layer_sizes: list

    def __post_init__(self):
        self.weights, self.biases = self.split(self.params)

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
class LossConfig(Config):
    """The training objective: RMSE minus beta times the penalty, whose
    smooth form tanh(SURROGATE_SHARPNESS * pred * truth) classifies at the
    data's boundary 0, as the curves' accuracy does."""

    beta: float = in_range(0.1, ">= 0")


@dataclass(frozen=True)
class MlpTrainConfig(Config):
    epochs: int = in_range(200, ">= 1")
    rmsprop_learning_rate: float = in_range(0.001, "> 0")


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


def _activations(model, rows):
    """One (rows, width) array per layer, for a forward pass's outputs."""
    return [np.empty((rows, w)) for w in model.layer_sizes[1:]]


class _Buffers:
    """Work arrays for one batch size of one network shape: per layer, its
    (rows, width) activations, which `backward` overwrites in each hidden
    layer with the delta back-propagated to it; per hidden layer a
    (rows, width) view, `products`, of one array of the widest hidden
    layer's size, for delta @ w.T; the output gradient and two scratch
    rows, (3, rows); and a flat gradient in the layout of `model.params`
    with its per-layer views `grad_w`/`grad_b`; and `rmse`, the batch RMSE
    that the last `backward` found. Each call that is given them
    overwrites them."""

    def __init__(self, model, rows):
        self.acts = _activations(model, rows)
        hidden = model.layer_sizes[1:-1]
        product = np.empty(rows * max(hidden, default=0))
        self.products = [product[:rows * w].reshape(rows, w) for w in hidden]
        self.output_rows = np.empty((3, rows))
        self.grad = np.empty_like(model.params)
        self.grad_w, self.grad_b = model.split(self.grad)
        self.rmse = math.nan


def _forward_batch(model, inputs, outs):
    """Activations per layer; inputs is (batch, fan_in). The layer outputs
    are written into `outs`, one (batch, width) array per layer."""
    acts = [np.asarray(inputs, dtype=float)]
    n_layers = len(model.weights)
    for li, (w, b, z) in enumerate(zip(model.weights, model.biases, outs)):
        np.matmul(acts[-1], w, out=z)
        np.add(z, b, out=z)
        if li < n_layers - 1:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def predict_batch(model, inputs, acts=None):
    """Network output per input row; a view into `acts` (per layer, a
    (rows, width) array, as `_activations` makes) when given, else into
    fresh activations that no later call overwrites."""
    if acts is None:
        acts = _activations(model, np.shape(inputs)[0])
    return _forward_batch(model, inputs, acts)[-1][:, 0]


def _output_gradient(preds, truths, cfg, out):
    """d(objective)/d(pred) for the full batch, written into out[0], a
    (3, batch) array whose other two rows are scratch. Returns the RMSE of
    preds, which the gradient divides by."""
    n = preds.size
    grad, th, pen = out
    resid = np.subtract(preds, truths, out=grad)
    r = residual_rmse(resid, out=th)
    # RMSE = 0 means every residual is 0; the gradient limit is taken as 0
    if r == 0:
        grad.fill(0.0)
    else:
        grad /= n * r
    if cfg.beta != 0:
        kappa = SURROGATE_SHARPNESS
        # grad -= beta / n * kappa * truths * (1 - th**2),
        # th = tanh(kappa * preds * truths), in that order
        np.multiply(preds, kappa, out=th)
        th *= truths
        np.tanh(th, out=th)
        np.multiply(th, th, out=th)
        np.subtract(1.0, th, out=th)
        np.multiply(truths, cfg.beta / n * kappa, out=pen)
        pen *= th
        grad -= pen
    return r


def _column_sums(delta, out):
    """np.sum(delta, axis=0) of a C-ordered (rows, width) array, written
    into out, with its bits, in well under half np.sum's time at width > 1:
    einsum adds each column's rows one by one in row order, as np.sum does,
    except for a single column, which np.sum (that is, add.reduce) sums
    pairwise. (A column of only -0.0 sums to +0.0 under einsum; a bias
    gradient is only squared and subtracted from a bias, which is never
    -0.0, so this changes no result.) The tests pin both forms."""
    if delta.shape[1] > 1:
        return np.einsum("ij->j", delta, out=out)
    return np.add.reduce(delta, axis=0, out=out)


def backward(model, batch_inputs, batch_truths, cfg, buffers):
    """Gradient of the training objective, a flat vector in the layout of
    `model.params`: `buffers.grad`, which the next call given the same
    buffers overwrites. The model's RMSE on the batch, found on the way,
    is left in `buffers.rmse`. Each hidden layer's activations in
    `buffers.acts` are overwritten, once its weight gradient has read
    them, with the delta back-propagated to that layer; the output
    layer's are left as the forward pass wrote them.
    """
    inputs = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    truths = np.asarray(batch_truths, dtype=float)
    if inputs.shape[0] != truths.size:
        raise ValueError("batch size mismatch")
    acts = _forward_batch(model, inputs, buffers.acts)
    buffers.rmse = _output_gradient(acts[-1][:, 0], truths, cfg,
                                    buffers.output_rows)
    grad_w, grad_b = buffers.grad_w, buffers.grad_b
    delta = buffers.output_rows[0][:, None]  # (batch, 1)
    for li in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[li].T, delta, out=grad_w[li])
        _column_sums(delta, grad_b[li])
        if li > 0:
            # a <- (delta @ w.T) * (1 - a**2), a = this layer's input, which
            # is the next delta
            a, product = acts[li], buffers.products[li - 1]
            np.matmul(delta, model.weights[li].T, out=product)
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            delta = np.multiply(product, a, out=a)
    return buffers.grad


def rmsprop_step(model, grad, cfg):
    """One rmsprop update for the flat gradient `grad`, written into
    `model.params` and `model.sq_grads` through temporaries the size of
    the parameters; returns the model. It does not check the result for
    finiteness; train_mlp does.
    """
    model.sq_grads *= RMSPROP_DECAY
    model.sq_grads += (1.0 - RMSPROP_DECAY) * grad * grad
    model.params -= (grad * cfg.rmsprop_learning_rate
                     / (np.sqrt(model.sq_grads) + RMSPROP_EPSILON))
    return model


def train_mlp(model, inputs, truths, train_cfg, loss_cfg, eval_split=None,
              start_epoch=0):
    """Full-batch rmsprop training; deterministic given the initial model.
    Returns the trained model and a Curve numbered from start_epoch, or
    None for the curve when no split is held out.

    eval_split indexes rows of `inputs`; training uses the train rows only,
    and a split that `FoldSplit.indices` rejects raises IndexError before
    any epoch. Each epoch steps the model with the gradient of the last
    `backward`, then runs `backward` on the stepped model for the next
    step, so n epochs run n + 1 `backward` passes. Epoch e's train cells
    come from the forward pass of the `backward` after its step, and its
    test cells from a pass over the test rows alone. Both are scored at the
    boundary 0.

    Epoch e's step diverges when it leaves a parameter non-finite, or a
    model whose training RMSE (from that same forward pass) is not finite;
    the first such step raises DivergenceError(start_epoch + e), so that
    the error counts epochs as the curve does. The epochs run under
    np.errstate with overflow and invalid values ignored: these checks
    report a divergence. A negative start_epoch raises ValueError before
    any epoch.
    """
    if start_epoch < 0:
        raise ValueError(f"start_epoch must be >= 0, not {start_epoch}")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    truths = np.asarray(truths, dtype=float)
    if eval_split is None:
        tr = np.arange(inputs.shape[0])
    else:
        tr, te = eval_split.indices(inputs.shape[0])
    if tr.size == 0:
        raise ValueError("empty training set")

    inputs_tr, truths_tr = inputs[tr], truths[tr]
    model = model.copy()  # stepped in place from here on
    # allocated once: each epoch overwrites them
    train_buffers = _Buffers(model, tr.size)
    epochs = train_cfg.epochs
    train_scorer = test_scorer = None
    if eval_split is not None:
        inputs_te = inputs[te]
        train_scorer = Scorer(truths_tr, epochs)
        test_scorer = Scorer(truths[te], epochs)
        test_acts = _activations(model, te.size)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = backward(model, inputs_tr, truths_tr, loss_cfg, train_buffers)
        for epoch in range(start_epoch, start_epoch + epochs):
            rmsprop_step(model, grad, train_cfg)
            if not np.isfinite(model.params).all():
                raise DivergenceError(epoch)
            if test_scorer:
                test_scorer.add(predict_batch(model, inputs_te, test_acts))
            # the stepped model's forward pass, and the next step's gradient
            grad = backward(model, inputs_tr, truths_tr, loss_cfg,
                            train_buffers)
            if not math.isfinite(train_buffers.rmse):
                raise DivergenceError(epoch)
            if train_scorer:
                train_scorer.add(train_buffers.acts[-1][:, 0])
    if eval_split is None:
        return model, None
    return model, Curve.scored(start_epoch, train_scorer, test_scorer)
