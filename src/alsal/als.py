"""Masked latent-factor model trained by alternating gradient descent.

Factorizes an m x n response matrix into cell embeddings x (m x d) and
molecule embeddings w (d x n), minimizing squared error over observed
positions only. No regularization term; the loss is

    0.5 * sum over mask==1 of (x @ w - y)^2

`als_epoch` steps x, then w at the updated x, each down this loss's
gradient. It also takes stacks of problems: leading axes of x, w and the
matrix's values and mask are batch axes, and each slice is computed
exactly as it would be on its own.

`train_als`, the one loop that steps ALS epochs, trains a `MaskedMatrix`,
one problem or a stack, in place (`als_epoch` into an `EpochWork`) and,
given a held-out split, hands each epoch's x @ w at its train and test
positions to a `metrics.Scorer`. An epoch scores to the same bits in any
history block, so a run of the epochs left after k, given the embeddings
at epoch k and start_epoch=k, continues the curve of an uninterrupted
one. Its epochs run under np.errstate with overflow and invalid values
ignored; finiteness is checked once, after the last epoch (a non-finite
entry stays non-finite under x - alpha * g), and the first problem found
non-finite is replayed alone, checked every epoch, for its
DivergenceError. Finite embeddings whose product overflows are reported
at the next epoch, which that product makes non-finite.
"""

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import NamedTuple, get_args, get_origin

import numpy as np

from .data import MaskedMatrix
from .metrics import Curve, Scorer

INIT_SCALE = 0.1  # init_embeddings draws from [-INIT_SCALE, INIT_SCALE)


class DivergenceError(RuntimeError):
    """The step of `epoch` left a parameter non-finite or, in `train_mlp`,
    a training RMSE that is not finite."""

    def __init__(self, epoch):
        super().__init__(f"non-finite values at epoch {epoch}")
        self.epoch = epoch


class ConfigError(ValueError):
    """A config value that is out of place: one the loaded data cannot
    satisfy (`key` is its dotted name in the config), or one a config
    dataclass rejects (`key` is the dotted name below that dataclass)."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


def in_range(default, bounds):
    """A config field with this default whose number, or each number of
    its tuple, meets bounds: one comparison, as in ">= 1" or "> 0". Every
    int and float field declares one."""
    return field(default=default, metadata={"range": bounds})


_COMPARE = {">": operator.gt, ">=": operator.ge}


@cache
def _rule(tp, bounds):
    """(test, kind) for a field annotated tp with range bounds (None if
    undeclared): test(value) tells whether value fits, kind what fits."""
    args = get_args(tp)
    if type(None) in args:  # X | None
        test, kind = _rule(args[0], bounds)
        return (lambda v: v is None or test(v)), f"null or {kind}"
    if get_origin(tp) is tuple:  # tuple[X, ...]
        test, kind = _rule(args[0], bounds)
        return (lambda v: isinstance(v, tuple) and all(map(test, v)),
                f"a tuple, each {kind}")
    if get_origin(tp) is dict:
        (test_k, kind_k), (test_v, kind_v) = (_rule(a, None) for a in args)
        return (lambda v: isinstance(v, dict) and all(map(test_k, v))
                and all(map(test_v, v.values())),
                f"a dict, each key {kind_k} and each value {kind_v}")
    if tp in (int, float):  # a bool is neither; a float is finite
        if bounds is None:
            raise TypeError(f"a {tp.__name__} field needs a declared range")
        op, limit = bounds.split()
        compare, limit = _COMPARE[op], float(limit)
        number, top = ((numbers.Integral, math.inf) if tp is int
                       else (numbers.Real, sys.float_info.max))
        kind = "an integer" if tp is int else "a finite number"
        return (lambda v: isinstance(v, number) and not isinstance(v, bool)
                and -top <= v <= top and compare(v, limit),
                f"{kind} {bounds}")
    if tp is str or is_dataclass(tp):
        return (lambda v: isinstance(v, tp)), (
            "a string" if tp is str else f"a {tp.__name__}")
    raise TypeError(f"unsupported config annotation {tp!r}")


class Config:
    """Base of the config dataclasses: each checks its fields when built,
    raising ConfigError, keyed by the field's name, unless each field holds
    a value of its annotated type within its declared range (see in_range).
    Values are kept as they are."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            test, kind = _rule(f.type, f.metadata.get("range"))
            if not test(value):
                raise ConfigError(f.name,
                                  f"{f.name} must be {kind}, not {value!r}")

    def updated(self, raw):
        """This config with the fields that raw, a JSON object, names
        replaced; a config-typed field is updated the same way from its
        value here (its class defaults if null), and takes null only where
        its default is null. Lists become tuples. An unknown key, a
        non-object where a config belongs, or a value a config rejects
        raises ConfigError keyed by its dotted name (None for raw)."""
        if not isinstance(raw, dict):
            raise ConfigError(None, "must be a JSON object")
        known = {f.name: f for f in fields(self)}
        changes = {}
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(key, "unknown key")
            f = known[key]
            sub = [t for t in (f.type, *get_args(f.type)) if is_dataclass(t)]
            if sub and not (value is None and f.default is None):
                if not isinstance(value, dict):
                    raise ConfigError(key, "must be an object")
                try:
                    value = (getattr(self, key) or sub[0]()).updated(value)
                except ConfigError as e:
                    raise ConfigError(f"{key}.{e.key}", str(e)) from e
            elif isinstance(value, list):
                value = tuple(value)
            changes[key] = value
        return replace(self, **changes)


@dataclass(frozen=True)
class EmbeddingPair:
    x: np.ndarray  # m x d, or stacked: ... x m x d
    w: np.ndarray  # d x n, or stacked: ... x d x n

    @property
    def d(self):
        return self.x.shape[-1]


@dataclass(frozen=True)
class AlsConfig(Config):
    d: int = in_range(5, ">= 1")
    learning_rate: float = in_range(0.01, "> 0")
    epochs: int = in_range(400, ">= 1")
    # epochs always alternate. A class attribute, not a field (so no
    # config key), kept because the bench tracer reads it on each
    # train_als call; it goes once ROADMAP item 1 stops that read
    simultaneous_updates = False


def init_embeddings(m, n, cfg, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(m, cfg.d))
    w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(cfg.d, n))
    return EmbeddingPair(x=x, w=w)


def _residual(matrix, emb, out):
    """mask * (x @ w - values), written into out."""
    r = np.matmul(emb.x, emb.w, out=out)
    r -= matrix.values
    r *= matrix.mask
    return r


def _t(a):
    return a.swapaxes(-1, -2)


class EpochWork(NamedTuple):
    """Work arrays for als_epoch: the residual (..., m, n) and the
    gradients of x (..., m, d) and w (..., d, n). They pay for a stacked
    ELM epoch: at (24, 35, 34) one takes 90 us with them, against 96-99 us
    through temporaries in the same order (the same bits) and 318-324 us
    written as plain expressions, timeit minima on a 2-vCPU VM; about 0.1 s
    over al-elm's 16,400 epochs. One problem takes 10.8 us against
    11.2-11.6 us, so they stay the one form of als_epoch."""

    residual: np.ndarray
    grad_x: np.ndarray
    grad_w: np.ndarray

    @classmethod
    def like(cls, emb):
        return cls(np.empty(emb.x.shape[:-1] + emb.w.shape[-1:]),
                   np.empty_like(emb.x), np.empty_like(emb.w))


def als_epoch(matrix, emb, alpha, work):
    """One training epoch: x-step then w-step on the updated x.

    The epoch writes its temporaries into work (an EpochWork shaped for
    emb), updates emb.x and emb.w in place and returns emb.
    """
    x, w = emb.x, emb.w
    r, gx, gw = work
    _residual(matrix, emb, out=r)
    np.matmul(r, _t(w), out=gx)
    gx *= alpha
    x -= gx
    _residual(matrix, emb, out=r)
    np.matmul(_t(x), r, out=gw)
    gw *= alpha
    w -= gw
    return emb


def train_als(matrix, cfg, emb, eval_split=None, start_epoch=0):
    """Run cfg.epochs alternating epochs from a copy of emb; returns the
    embeddings and a Curve numbered from start_epoch, or None for the
    curve when no split is held out.

    start_epoch numbers the run's first epoch, in the curve and in a
    DivergenceError, and does not change how many epochs run. A negative
    one, or an emb whose last two axes are not (m, cfg.d) and (cfg.d, n),
    raises ValueError before any epoch.

    When eval_split (a FoldSplit over matrix.observed_positions()) is
    given, test positions are masked out of training, and each epoch is
    scored at the train and test positions; a split that
    `FoldSplit.indices` rejects raises IndexError before any epoch.

    Given a stacked emb and no split, matrix may be a stacked MaskedMatrix:
    each problem trains as it would alone, and the first in stack order to
    diverge raises. A stacked matrix with a split raises ValueError.
    """
    m, n = matrix.shape
    if start_epoch < 0:
        raise ValueError(f"start_epoch must be >= 0, not {start_epoch}")
    if emb.x.shape[-2:] != (m, cfg.d) or emb.w.shape[-2:] != (cfg.d, n):
        raise ValueError(f"embeddings of shapes {emb.x.shape} and "
                         f"{emb.w.shape} do not fit a {m} x {n} matrix at "
                         f"d = {cfg.d}")
    if not matrix.mask.any(axis=(-2, -1)).all():
        raise ValueError("matrix has no observed positions")
    if eval_split is not None and matrix.values.ndim > 2:
        raise ValueError("a stacked matrix cannot hold out a split")
    train_matrix, scored = matrix, []
    if eval_split is not None:
        observed = matrix.observed_positions()
        train, test = (observed[i] for i in eval_split.indices(observed.size))
        train_matrix = matrix.with_mask(train)
        values = matrix.values.ravel()  # the truths, prepared once
        scored = [(Scorer(values[idx], cfg.epochs), idx)
                  for idx in (train, test)]
    start = emb
    emb = EmbeddingPair(x=start.x.copy(), w=start.w.copy())  # trained in place
    work = EpochWork.like(emb)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            als_epoch(train_matrix, emb, cfg.learning_rate, work)
            if scored:
                pred = (emb.x @ emb.w).ravel()
                for scorer, idx in scored:
                    scorer.add(pred[idx])
        finite = (np.isfinite(emb.x).all(axis=(-2, -1))
                  & np.isfinite(emb.w).all(axis=(-2, -1)))
        if not finite.all():  # replay the first such problem alone
            b = np.unravel_index(np.argmin(finite), finite.shape)
            alone = MaskedMatrix(train_matrix.values[b], train_matrix.mask[b])
            emb = EmbeddingPair(x=start.x[b].copy(), w=start.w[b].copy())
            work = EpochWork.like(emb)
            for epoch in range(start_epoch, start_epoch + cfg.epochs):
                als_epoch(alone, emb, cfg.learning_rate, work)
                if not (np.isfinite(emb.x).all()
                        and np.isfinite(emb.w).all()):
                    raise DivergenceError(epoch)
            raise RuntimeError("an ALS run diverged where its replay did not")
    if not scored:
        return emb, None
    return emb, Curve.scored(start_epoch, *(s for s, _ in scored))
