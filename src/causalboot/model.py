"""Small deterministic classifiers trained by mini-batch gradient descent.

Two shapes: a linear scorer and a one-hidden-layer tanh network.  The
objective is mean logistic loss plus an L2 penalty on every weight, with
biases left unpenalized so heavy regularization recovers the base-rate
logit rather than a coin flip.

Training is bit-for-bit reproducible: zeros (linear) or fan-in uniform
draws (network) for the start point and per-epoch shuffles all come
from one seeded stream, and batches walk the permutation in order.
``train_many`` trains models of one shape and configuration together,
stacked over a leading model axis, and each comes out bit-for-bit the
model ``train`` gives alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CausalBootError
from .rng import stream


# The most feature bytes a training pass gathers at once.  Gathering a
# span of batches per model call, not one batch, keeps the calls per
# step from growing with the number of models stacked.
_GATHER_BYTES = 1 << 18


class ModelError(CausalBootError):
    """Invalid model input or configuration."""


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.bias


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray  # (d, width)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width,)
    b2: float

    def logits(self, x: np.ndarray) -> np.ndarray:
        hidden = np.tanh(x @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2


Model = Union[LinearModel, MlpModel]


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "linear"
    lr: float = 0.1
    epochs: int = 60
    batch: int = 64
    seed: int = 0
    l2: float = 1e-4
    width: int = 16

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        for name in ("lr", "l2"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ModelError(f"{name} must be finite and nonnegative")
        if self.epochs < 1 or self.batch < 1 or self.width < 1:
            raise ModelError("epochs, batch and width must be positive")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def predict_proba(model: Model, x: np.ndarray) -> np.ndarray:
    x = _check_features(x)
    return _sigmoid(model.logits(x))


def _check_features(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ModelError(f"features must be 2-D, got shape {x.shape}")
    return x


def _check_labels(y: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ModelError("labels must be one per row")
    if not set(np.unique(y)) <= {0, 1}:
        raise ModelError("labels must be 0 or 1")
    return y.astype(float, copy=False)


def _stack(models) -> list:
    """Each parameter of same-shaped models stacked over a leading model
    axis K, weight vectors as columns and biases as rows, so that every
    product in ``_grad`` is a batched matmul and every bias broadcasts
    over the batch."""
    if isinstance(models[0], LinearModel):
        layers = [(m.weights[:, None], [[m.bias]]) for m in models]
    else:
        layers = [(m.w1, m.b1[None, :], m.w2[:, None], [[m.b2]]) for m in models]
    return [np.stack(p) for p in zip(*layers)]


def _unstack(kind: type, stacked, k: int) -> Model:
    """Model ``k`` of a stack, each field back in the model's own shape."""
    if kind is LinearModel:
        weights, bias = (p[k] for p in stacked)
        return LinearModel(weights=weights[:, 0], bias=float(bias[0, 0]))
    w1, b1, w2, b2 = (p[k] for p in stacked)
    return MlpModel(w1=w1, b1=b1[0], w2=w2[:, 0], b2=float(b2[0, 0]))


def _grad(params: list, x: np.ndarray, y: np.ndarray, l2: float):
    """Logits and the gradient, laid out like ``params``, of the mean
    logistic loss plus L2 on weights, for K models at once.  Inputs are
    trusted: ``params`` are stacked by ``_stack``, ``x`` is a (K, b, d)
    float array and ``y`` a (K, b, 1) float array of 0/1.

    Every product is an ``np.matmul`` over the model axis, which makes
    the same BLAS call per model as the 2-D product of one model would,
    and every sum runs over the batch axis alone, so each model's
    gradient is bit-for-bit the one it would get trained alone."""
    n = x.shape[1]
    xt = x.mT
    if len(params) == 2:
        weights, bias = params
        z = x @ weights + bias
        dz = (_sigmoid(z) - y) / n
        return z, (xt @ dz + 2.0 * l2 * weights, dz.sum(axis=1, keepdims=True))
    w1, b1, w2, b2 = params
    hidden = np.tanh(x @ w1 + b1)
    z = hidden @ w2 + b2
    dz = (_sigmoid(z) - y) / n
    d_hidden = dz * w2.mT * (1.0 - hidden * hidden)
    return z, (
        xt @ d_hidden + 2.0 * l2 * w1,
        d_hidden.sum(axis=1, keepdims=True),
        hidden.mT @ dz + 2.0 * l2 * w2,
        dz.sum(axis=1, keepdims=True),
    )


def loss_and_grad(model: Model, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean logistic loss with L2 on weights; gradient has the model's
    own shape so parameters and gradients stay aligned."""
    x = _check_features(x)
    y = _check_labels(y, len(x))
    z, grads = _grad(_stack([model]), x[None], y[None, :, None], l2)
    loss = float(np.logaddexp(0.0, -(2.0 * y - 1.0) * z[0, :, 0]).mean())
    if isinstance(model, LinearModel):
        loss += l2 * float(model.weights @ model.weights)
    else:
        loss += l2 * float((model.w1 * model.w1).sum() + model.w2 @ model.w2)
    return loss, _unstack(type(model), grads, 0)


def params_vector(model: Model) -> np.ndarray:
    """Every parameter in field order, each flattened row-major."""
    return np.concatenate([p.ravel() for p in _stack([model])])


def replace_params(model: Model, vector: np.ndarray) -> Model:
    """A model shaped like ``model`` holding ``params_vector``'s layout."""
    vector = np.asarray(vector, dtype=float)
    layout = _stack([model])
    sizes = [p.size for p in layout]
    if len(vector) != sum(sizes):
        raise ModelError("parameter vector has the wrong length")
    parts = np.split(vector, np.cumsum(sizes)[:-1])
    stacked = [part.reshape(p.shape) for part, p in zip(parts, layout)]
    return _unstack(type(model), stacked, 0)


def _initial_model(kind: str, dim: int, width: int, rng) -> Model:
    if kind == "linear":
        return LinearModel(weights=np.zeros(dim), bias=0.0)
    # any finite bound draws zero columns' empty w1, consuming nothing
    bound1 = 1.0 / np.sqrt(max(dim, 1))
    bound2 = 1.0 / np.sqrt(width)
    return MlpModel(
        w1=rng.uniform(-bound1, bound1, size=(dim, width)),
        b1=np.zeros(width),
        w2=rng.uniform(-bound2, bound2, size=width),
        b2=0.0,
    )


def training_set(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features as a 2-D float array and labels as floats, one 0/1 label
    per row; raises ``ModelError`` for anything ``train`` cannot use."""
    x = _check_features(x)
    return x, _check_labels(y, len(x))


def train(x: np.ndarray, y: np.ndarray, config: TrainConfig) -> Model:
    return train_many([x], [y], [config])[0]


def train_many(xs, ys, configs) -> list[Model]:
    """One model per (x, y, config), each bit-for-bit what training it
    alone gives, returned in input order.

    Models whose training sets have the same shape and whose configs
    agree in all but the seed train together in one pass over a leading
    model axis: each keeps its own seeded stream for its start point and
    per-epoch shuffles, and every step updates all of them with batched
    matmuls on (K, batch, features) arrays."""
    if not len(xs) == len(ys) == len(configs):
        raise ModelError("need one label array and one config per feature array")
    return _train_sets([training_set(x, y) for x, y in zip(xs, ys)], configs)


def _train_sets(sets, configs) -> list[Model]:
    """``train_many`` on (x, y) pairs already checked by ``training_set``."""
    groups: dict[tuple, list[int]] = {}
    for i, ((x, _), config) in enumerate(zip(sets, configs)):
        key = (x.shape, dataclasses.replace(config, seed=0))
        groups.setdefault(key, []).append(i)
    models: list = [None] * len(sets)
    for (_, config), members in groups.items():
        trained = _train_group(
            [sets[i] for i in members], config, [configs[i].seed for i in members]
        )
        for i, model in zip(members, trained):
            models[i] = model
    return models


def _train_group(sets, config: TrainConfig, seeds) -> list[Model]:
    k = len(sets)
    n, d = sets[0][0].shape
    batch, lr, l2 = config.batch, config.lr, config.l2
    rngs = [stream(seed, "train") for seed in seeds]
    starts = [_initial_model(config.kind, d, config.width, rng) for rng in rngs]
    params = _stack(starts)
    # Each model's rows are gathered into one reused buffer a span of
    # whole batches at a time, so the training sets are never copied
    # and at most _GATHER_BYTES of gathered features sit beside them.
    span = batch * max(1, _GATHER_BYTES // (8 * k * batch * max(d, 1)))
    x_span = np.empty((k, min(span, n), d))
    y_span = np.empty((k, min(span, n), 1))
    for _ in range(config.epochs):
        perms = [rng.permutation(n) for rng in rngs]
        for first in range(0, n, span):
            m = min(span, n - first)
            for (x, y), perm, x_out, y_out in zip(sets, perms, x_span, y_span):
                rows = perm[first : first + m]
                np.take(x, rows, axis=0, out=x_out[:m], mode="clip")
                np.take(y, rows, out=y_out[:m, 0], mode="clip")
            for start in range(0, m, batch):
                stop = min(start + batch, m)
                _, grads = _grad(
                    params, x_span[:, start:stop], y_span[:, start:stop], l2
                )
                params = [p - lr * g for p, g in zip(params, grads)]
    return [_unstack(type(starts[0]), params, i) for i in range(k)]


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Counted from the two classes sorted apart: each positive beats the
    negatives below it and ties those equal to it, so twice the
    Mann-Whitney U is an exact integer and the result is bit for bit
    the midrank formula's.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ModelError("scores and labels must be matching 1-D arrays")
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    n_pos, n_neg = len(pos), len(neg)
    if n_pos + n_neg != len(labels):
        raise ModelError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ModelError("both classes must appear to rank them")
    # NaNs sort last
    if np.isnan(pos[-1]) or np.isnan(neg[-1]):
        raise ModelError("scores must not be NaN")
    left = neg.searchsorted(pos, "left")
    right = neg.searchsorted(pos, "right")
    twice_u = 2 * int(left.sum()) + int((right - left).sum())
    return (twice_u / 2.0) / (n_pos * n_neg)
