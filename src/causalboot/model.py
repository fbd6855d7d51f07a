"""Small deterministic classifiers trained by mini-batch gradient descent.

Two shapes: a linear scorer and a one-hidden-layer tanh network.  The
objective is mean logistic loss plus an L2 penalty on every weight, with
biases left unpenalized so heavy regularization recovers the base-rate
logit rather than a coin flip.

Training is bit-for-bit reproducible: zeros (linear) or fan-in uniform
draws (network) for the start point and per-epoch shuffles all come
from one seeded stream, and batches walk the permutation in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CausalBootError
from .rng import stream


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
    return y.astype(float)


def _params(model: Model) -> tuple:
    """The model's fields in declaration order: (weights, bias) or
    (w1, b1, w2, b2); ``type(model)(*params)`` rebuilds it."""
    if isinstance(model, LinearModel):
        return (model.weights, model.bias)
    return (model.w1, model.b1, model.w2, model.b2)


def _grad(params: tuple, x: np.ndarray, y: np.ndarray, l2: float):
    """Logits and the gradient, laid out like ``params``, of the mean
    logistic loss plus L2 on weights.  Inputs are trusted: ``x`` is a
    2-D float array and ``y`` a float array of 0/1, one per row."""
    n = len(x)
    if len(params) == 2:
        weights, bias = params
        z = x @ weights + bias
        dz = (_sigmoid(z) - y) / n
        return z, (x.T @ dz + 2.0 * l2 * weights, float(dz.sum()))
    w1, b1, w2, b2 = params
    hidden = np.tanh(x @ w1 + b1)
    z = hidden @ w2 + b2
    dz = (_sigmoid(z) - y) / n
    d_hidden = dz[:, None] * w2 * (1.0 - hidden * hidden)
    return z, (
        x.T @ d_hidden + 2.0 * l2 * w1,
        d_hidden.sum(axis=0),
        hidden.T @ dz + 2.0 * l2 * w2,
        float(dz.sum()),
    )


def loss_and_grad(model: Model, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean logistic loss with L2 on weights; gradient has the model's
    own shape so parameters and gradients stay aligned."""
    x = _check_features(x)
    y = _check_labels(y, len(x))
    params = _params(model)
    z, grads = _grad(params, x, y, l2)
    loss = float(np.logaddexp(0.0, -(2.0 * y - 1.0) * z).mean())
    if isinstance(model, LinearModel):
        loss += l2 * float(model.weights @ model.weights)
    else:
        loss += l2 * float((model.w1 * model.w1).sum() + model.w2 @ model.w2)
    return loss, type(model)(*grads)


def params_vector(model: Model) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in _params(model)])


def replace_params(model: Model, vector: np.ndarray) -> Model:
    vector = np.asarray(vector, dtype=float)
    if isinstance(model, LinearModel):
        d = len(model.weights)
        if len(vector) != d + 1:
            raise ModelError("parameter vector has the wrong length")
        return LinearModel(weights=vector[:d], bias=float(vector[d]))
    d, width = model.w1.shape
    sizes = [d * width, width, width, 1]
    if len(vector) != sum(sizes):
        raise ModelError("parameter vector has the wrong length")
    parts = np.split(vector, np.cumsum(sizes)[:-1])
    return MlpModel(
        w1=parts[0].reshape(d, width),
        b1=parts[1],
        w2=parts[2],
        b2=float(parts[3][0]),
    )


def _initial_model(kind: str, dim: int, width: int, rng) -> Model:
    if kind == "linear":
        return LinearModel(weights=np.zeros(dim), bias=0.0)
    bound1 = 1.0 / np.sqrt(dim)
    bound2 = 1.0 / np.sqrt(width)
    return MlpModel(
        w1=rng.uniform(-bound1, bound1, size=(dim, width)),
        b1=np.zeros(width),
        w2=rng.uniform(-bound2, bound2, size=width),
        b2=0.0,
    )


def train(x: np.ndarray, y: np.ndarray, config: TrainConfig) -> Model:
    x = _check_features(x)
    y = _check_labels(y, len(x))
    n = len(x)
    rng = stream(config.seed, "train")
    model = _initial_model(config.kind, x.shape[1], config.width, rng)
    params = _params(model)
    lr, l2 = config.lr, config.l2
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch):
            idx = perm[start : start + config.batch]
            _, grads = _grad(params, x[idx], y[idx], l2)
            params = tuple(p - lr * g for p, g in zip(params, grads))
    return type(model)(*params)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from midranks, so tied scores contribute exactly 0.5 per
    tied pair.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ModelError("scores and labels must be matching 1-D arrays")
    if not set(np.unique(labels)) <= {0, 1}:
        raise ModelError("labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ModelError("both classes must appear to rank them")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    )
    ends = np.append(starts[1:], len(scores)) - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
