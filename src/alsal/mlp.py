"""Small fully connected network trained with rmsprop.

Hidden activations are tanh, the output is linear. The training objective
is RMSE minus a weighted classification penalty: the exact penalty is a
sign term (gradient zero almost everywhere), so training defaults to a smooth
tanh surrogate; reported losses use the exact penalty, evaluated array-wide.
"""

from dataclasses import dataclass, field

import numpy as np

from .als import DivergenceError
from .metrics import EvalPoint, rmse, boundary_accuracy


@dataclass
class MlpModel:
    weights: list  # per layer, (fan_in, fan_out)
    biases: list  # per layer, (fan_out,)
    sq_grad_w: list  # rmsprop accumulators, same shapes as weights
    sq_grad_b: list

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass(frozen=True)
class LossConfig:
    beta: float = 0.1
    boundaries: tuple = (0.0,)
    surrogate_sharpness: float = 10.0
    use_smooth_surrogate: bool = True

    def __post_init__(self):
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("boundaries must be strictly increasing")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ValueError("boundaries must be strictly increasing")


@dataclass(frozen=True)
class MlpTrainConfig:
    epochs: int = 200
    rmsprop_learning_rate: float = 0.001
    rmsprop_decay: float = 0.9
    rmsprop_epsilon: float = 1e-8
    seed: int = 0


def init_mlp(layer_sizes, seed):
    """Glorot-uniform weights, zero biases, zero rmsprop accumulators."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        weights=weights,
        biases=biases,
        sq_grad_w=[np.zeros_like(w) for w in weights],
        sq_grad_b=[np.zeros_like(b) for b in biases],
    )


def _forward_batch(model, inputs):
    """Activations per layer; inputs is (batch, fan_in)."""
    acts = [np.asarray(inputs, dtype=float)]
    n_layers = len(model.weights)
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if li == n_layers - 1 else np.tanh(z))
    return acts


def predict_batch(model, inputs):
    return _forward_batch(model, inputs)[-1][:, 0]


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


def backward(model, batch_inputs, batch_truths, cfg):
    """Gradients of the training objective w.r.t. weights and biases.

    With the surrogate off the penalty contributes nothing (the true sign
    term has zero gradient almost everywhere).
    """
    inputs = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    truths = np.asarray(batch_truths, dtype=float)
    if inputs.shape[0] != truths.size:
        raise ValueError("batch size mismatch")
    acts = _forward_batch(model, inputs)
    preds = acts[-1][:, 0]

    delta = _output_gradient(preds, truths, cfg)[:, None]  # (batch, 1)
    grad_w, grad_b = [], []
    for li in range(len(model.weights) - 1, -1, -1):
        grad_w.append(acts[li].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if li > 0:
            delta = (delta @ model.weights[li].T) * (1.0 - acts[li] ** 2)
    return grad_w[::-1], grad_b[::-1]


def rmsprop_step(model, gradients, cfg):
    """One rmsprop update; returns a new model, accumulators included."""
    grad_w, grad_b = gradients
    new_w, new_b, new_sw, new_sb = [], [], [], []
    for w, b, sw, sb, gw, gb in zip(model.weights, model.biases,
                                    model.sq_grad_w, model.sq_grad_b,
                                    grad_w, grad_b):
        sw = cfg.rmsprop_decay * sw + (1.0 - cfg.rmsprop_decay) * gw * gw
        sb = cfg.rmsprop_decay * sb + (1.0 - cfg.rmsprop_decay) * gb * gb
        w = w - cfg.rmsprop_learning_rate * gw / (np.sqrt(sw) + cfg.rmsprop_epsilon)
        b = b - cfg.rmsprop_learning_rate * gb / (np.sqrt(sb) + cfg.rmsprop_epsilon)
        new_w.append(w)
        new_b.append(b)
        new_sw.append(sw)
        new_sb.append(sb)
    out = MlpModel(new_w, new_b, new_sw, new_sb)
    if not all(np.all(np.isfinite(a)) for a in new_w + new_b):
        raise DivergenceError(-1)
    return out


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
    history = []
    for epoch in range(train_cfg.epochs):
        grads = backward(model, inputs_tr, truths_tr, loss_cfg)
        try:
            model = rmsprop_step(model, grads, train_cfg)
        except DivergenceError:
            raise DivergenceError(epoch)
        if not record_history:
            continue
        preds = predict_batch(model, inputs)
        b0 = loss_cfg.boundaries[0]
        point = {"epoch_or_round": start_epoch + epoch,
                 "train_loss": rmse(preds[tr], truths_tr),
                 "train_accuracy": boundary_accuracy(preds[tr], truths_tr, b0),
                 "train_penalized": penalized_loss(preds[tr], truths_tr, loss_cfg)}
        if te is not None and te.size:
            point.update(
                test_loss=rmse(preds[te], truths[te]),
                test_accuracy=boundary_accuracy(preds[te], truths[te], b0),
                test_penalized=penalized_loss(preds[te], truths[te], loss_cfg))
        history.append(EvalPoint(**point))
    return model, history
