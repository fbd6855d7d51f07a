"""Gradient-descent classifiers: gradient oracle, ranking metric, training."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalboot import model as model_module
from causalboot.model import (
    LinearModel,
    MlpModel,
    ModelError,
    TrainConfig,
    _initial_model,
    _sigmoid,
    auc,
    loss_and_grad,
    predict_proba,
    train,
    train_many,
)
from causalboot.rng import stream

from params import params_vector, replace_params

# --- ranking metric ---------------------------------------------------------

def test_auc_frozen_example():
    scores = np.array([0.9, 0.8, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0])
    assert auc(scores, labels) == pytest.approx(0.75)


def pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(st.integers(0, 5), min_size=4, max_size=24),
    seed=st.integers(0, 999),
)
def test_auc_matches_pairwise_count(scores, seed):
    scores = np.asarray(scores, dtype=float)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, len(scores))
    labels[0], labels[1] = 0, 1  # both classes present
    assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 999),
    scale=st.floats(0.1, 50.0),
    shift=st.floats(-5.0, 5.0),
)
def test_auc_invariant_under_increasing_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(30)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    base = auc(scores, labels)
    assert auc(scale * scores + shift, labels) == pytest.approx(base)
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)


def while_loop_auc(scores, labels):
    """Midranks walked tie group by tie group, one Python step per row:
    the reference the vectorised midranks must reproduce exactly."""
    scores = np.asarray(scores, dtype=float)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_equals_while_loop_on_heavy_ties():
    rng = np.random.default_rng(11)
    scores = np.round(rng.standard_normal(100_000), 2)
    labels = (rng.random(100_000) < 1.0 / (1.0 + np.exp(-scores))).astype(np.int64)
    assert np.unique(scores).size < 1_000
    assert auc(scores, labels) == while_loop_auc(scores, labels)


def test_auc_equals_while_loop_on_edge_tie_groups():
    labels = np.array([0, 1, 1, 0, 1, 0, 0])
    all_equal = np.full(7, 0.3)
    assert auc(all_equal, labels) == while_loop_auc(all_equal, labels) == 0.5
    low_group = np.array([0.1, 0.1, 0.1, 0.4, 0.5, 0.6, 0.7])
    high_group = np.array([0.1, 0.2, 0.3, 0.4, 0.9, 0.9, 0.9])
    for scores in (low_group, high_group, low_group[::-1], high_group[::-1]):
        assert auc(scores, labels) == while_loop_auc(scores, labels)


@settings(max_examples=80, deadline=None)
@given(
    values=st.integers(1, 6),
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_auc_equals_stable_midranks_on_ties(values, n, seed):
    # the midranks come from an unstable sort; a tie group's members all
    # get its midrank, so the result keeps the stable reference's bits
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, values, n) / 7.0
    scores[rng.random(n) < 0.1] = -0.0
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    assert auc(scores, labels) == while_loop_auc(scores, labels)


def test_auc_equals_while_loop_on_rounded_scores_with_signed_zeros():
    rng = np.random.default_rng(29)
    scores = np.round(rng.standard_normal(100_000), 1)
    scores[scores == 0.0] = -0.0
    scores[rng.random(100_000) < 0.05] = 0.0
    labels = (rng.random(100_000) < 0.3).astype(np.int64)
    assert auc(scores, labels) == while_loop_auc(scores, labels)


def test_auc_ties_signed_zeros_across_classes():
    labels = np.array([1, 0, 1, 0])
    assert auc(np.array([0.0, -0.0, -0.0, 0.0]), labels) == 0.5
    scores = np.array([0.0, -0.0, 1.0, -1.0])
    assert auc(scores, labels) == pairwise_auc(scores, labels) == 0.875
    assert auc(scores, labels) == while_loop_auc(scores, labels)


def test_auc_validation():
    with pytest.raises(ModelError, match="both classes"):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    for labels in ([1, 2], [0, 2], [0.0, np.nan], [0.0, 1.0, np.nan]):
        scores = np.linspace(0.1, 0.3, len(labels))
        with pytest.raises(ModelError, match="0 or 1"):
            auc(scores, np.array(labels))
    with pytest.raises(ModelError, match="NaN"):
        auc(np.array([0.1, np.nan, 0.3]), np.array([0, 1, 1]))
    # a NaN among the negatives only, the positives all finite
    with pytest.raises(ModelError, match="NaN"):
        auc(np.array([0.1, np.nan, 0.3, 0.2]), np.array([0, 0, 1, 1]))
    with pytest.raises(ModelError, match="1-D"):
        auc(np.zeros((2, 2)), np.zeros((2, 2)))


# --- gradients ----------------------------------------------------------------

def random_model(kind, rng, d=3, width=4):
    if kind == "linear":
        return LinearModel(
            weights=rng.standard_normal(d), bias=float(rng.standard_normal())
        )
    return MlpModel(
        w1=rng.standard_normal((d, width)),
        b1=rng.standard_normal(width),
        w2=rng.standard_normal(width),
        b2=float(rng.standard_normal()),
    )


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.standard_normal((7, 3))
        y = rng.integers(0, 2, 7)
        y[:2] = [0, 1]
        model = random_model(kind, rng)
        _, grad = loss_and_grad(model, x, y, l2=0.01)
        gvec = params_vector(grad)
        base = params_vector(model)
        fd = np.empty_like(base)
        for i in range(len(base)):
            step = np.zeros_like(base)
            step[i] = 1e-6
            up, _ = loss_and_grad(replace_params(model, base + step), x, y, 0.01)
            down, _ = loss_and_grad(replace_params(model, base - step), x, y, 0.01)
            fd[i] = (up - down) / 2e-6
        rel = np.linalg.norm(fd - gvec) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5


def test_loss_value_by_hand():
    model = LinearModel(weights=np.array([1.0, -1.0]), bias=0.5)
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([1, 0])
    z = np.array([1.5, -1.5])
    want = np.mean(np.log1p(np.exp(-np.array([1.5, 1.5]))))
    want += 0.25 * (1.0 + 1.0)
    loss, _ = loss_and_grad(model, x, y, l2=0.25)
    assert loss == pytest.approx(want, rel=1e-12)
    probs = predict_proba(model, x)
    np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-z)))


def test_bias_not_penalized():
    model = LinearModel(weights=np.zeros(2), bias=3.0)
    x = np.zeros((4, 2))
    y = np.array([1, 1, 1, 1])
    loss_small, _ = loss_and_grad(model, x, y, l2=0.0)
    loss_large, _ = loss_and_grad(model, x, y, l2=100.0)
    assert loss_small == loss_large


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_params_roundtrip(kind):
    model = random_model(kind, np.random.default_rng(1))
    vec = params_vector(model)
    back = params_vector(replace_params(model, vec))
    np.testing.assert_array_equal(vec, back)
    with pytest.raises(ModelError, match="length"):
        replace_params(model, vec[:-1])


# --- training -----------------------------------------------------------------

def blobs(n, rng, gap=2.0):
    y = rng.integers(0, 2, n)
    x = gap * y[:, None] * np.array([1.0, 0.0, 0.0])
    return x + rng.standard_normal((n, 3)), y


def test_training_is_deterministic():
    rng = np.random.default_rng(0)
    x, y = blobs(300, rng)
    cfg = TrainConfig(kind="mlp", epochs=5, seed=3)
    a = train(x, y, cfg)
    b = train(x, y, cfg)
    np.testing.assert_array_equal(params_vector(a), params_vector(b))
    c = train(x, y, TrainConfig(kind="mlp", epochs=5, seed=4))
    assert not np.array_equal(params_vector(a), params_vector(c))


def masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def where_sigmoid(z):
    """Both branches over every value, then picked by sign: five
    temporaries of z's size, and the reference for the bits."""
    e = np.exp(-np.abs(z))
    den = 1.0 + e
    return np.where(z >= 0, 1.0 / den, e / den)


def test_sigmoid_equals_masked_form():
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-310, -1e-310]
    edges += [37.0, -37.0, 710.0, -710.0, 1e300, -1e300, 1e-300, -1e-300]
    z = np.concatenate(
        [
            np.linspace(-800.0, 800.0, 20_001),
            edges,
            np.random.default_rng(3).normal(scale=20.0, size=1_000_000),
        ]
    )
    before = z.tobytes()
    with np.errstate(over="raise"):
        got = _sigmoid(z)
    assert z.tobytes() == before
    assert got.tobytes() == where_sigmoid(z).tobytes()
    # the masked form gives NaN its sign back, so it is compared off NaN
    number = ~np.isnan(z)
    assert got[number].tobytes() == masked_sigmoid(z[number]).tobytes()


def test_predict_proba_holds_few_row_length_arrays():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200_000, 10))
    model = LinearModel(weights=rng.standard_normal(10), bias=0.25)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probs = predict_proba(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the logits, which become the result, and one block of their
    # denominators
    assert (peak - before) / (len(x) * 8) <= 1.5
    assert probs.tobytes() == where_sigmoid(x @ model.weights + 0.25).tobytes()


def oracle_grad(model, x, y, l2):
    """The per-batch gradient as a standalone model-shaped value, with
    the arithmetic of the training loop spelled out once more."""
    n = len(x)
    if isinstance(model, LinearModel):
        dz = (masked_sigmoid(x @ model.weights + model.bias) - y) / n
        return LinearModel(
            weights=x.T @ dz + 2.0 * l2 * model.weights, bias=float(dz.sum())
        )
    hidden = np.tanh(x @ model.w1 + model.b1)
    dz = (masked_sigmoid(hidden @ model.w2 + model.b2) - y) / n
    d_hidden = dz[:, None] * model.w2 * (1.0 - hidden * hidden)
    return MlpModel(
        w1=x.T @ d_hidden + 2.0 * l2 * model.w1,
        b1=d_hidden.sum(axis=0),
        w2=hidden.T @ dz + 2.0 * l2 * model.w2,
        b2=float(dz.sum()),
    )


def oracle_step(model, grad, lr):
    if isinstance(model, LinearModel):
        return LinearModel(
            weights=model.weights - lr * grad.weights,
            bias=model.bias - lr * grad.bias,
        )
    return MlpModel(
        w1=model.w1 - lr * grad.w1,
        b1=model.b1 - lr * grad.b1,
        w2=model.w2 - lr * grad.w2,
        b2=model.b2 - lr * grad.b2,
    )


def oracle_train(x, y, config):
    """One model object per batch: gradient, then step."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y).astype(float)
    rng = stream(config.seed, "train")
    model = _initial_model(config.kind, x.shape[1], config.width, rng)
    for _ in range(config.epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), config.batch):
            idx = perm[start : start + config.batch]
            grad = oracle_grad(model, x[idx], y[idx], config.l2)
            model = oracle_step(model, grad, config.lr)
    return model


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("batch,lr", [(64, 0.1), (23, 0.3), (500, 0.1), (7, 0.0)])
def test_training_equals_per_batch_oracle(kind, seed, batch, lr):
    rng = np.random.default_rng(100 + seed)
    x, y = blobs(229, rng)
    cfg = TrainConfig(kind=kind, lr=lr, epochs=4, batch=batch, seed=seed, width=5)
    got = train(x, y, cfg)
    want = oracle_train(x, y, cfg)
    assert type(got) is type(want)
    assert params_vector(got).tobytes() == params_vector(want).tobytes()
    if kind == "linear":
        assert type(got.bias) is float
    else:
        assert type(got.b2) is float


@pytest.mark.parametrize("gather_bytes", [None, 1])
def test_train_many_equals_train_in_input_order(monkeypatch, gather_bytes):
    """One call, several groups: two kinds, ragged row counts, two
    feature counts and two learning rates.  With gather_bytes=1 every
    batch is gathered on its own."""
    if gather_bytes is not None:
        monkeypatch.setattr(model_module, "_GATHER_BYTES", gather_bytes)
    rng = np.random.default_rng(7)
    xs, ys, configs = [], [], []
    for i in range(16):
        kind = ("linear", "mlp")[i % 2]
        n = (229, 180)[i // 2 % 2]
        d = (3, 5)[i // 4 % 2]
        lr = (0.1, 0.3)[i // 8]
        x, y = blobs(n, rng)
        xs.append(np.column_stack([x, rng.standard_normal((n, d - 3))]))
        ys.append(y)
        configs.append(
            TrainConfig(kind=kind, lr=lr, epochs=3, batch=23, seed=i, width=5)
        )
    got = train_many(xs, ys, configs)
    assert len(got) == len(xs)
    for model, x, y, cfg in zip(got, xs, ys, configs):
        want = train(x, y, cfg)
        assert type(model) is type(want)
        assert params_vector(model).tobytes() == params_vector(want).tobytes()
        assert params_vector(model).tobytes() == params_vector(
            oracle_train(x, y, cfg)
        ).tobytes()


def test_train_many_validation():
    x, y = blobs(20, np.random.default_rng(0))
    with pytest.raises(ModelError, match="one config per feature array"):
        train_many([x, x], [y], [TrainConfig()])
    with pytest.raises(ModelError, match="0 or 1"):
        train_many([x, x], [y, y + 1], [TrainConfig(), TrainConfig()])
    (empty,) = train_many([np.zeros((0, 3))], [np.zeros(0)], [TrainConfig()])
    assert params_vector(empty).tolist() == [0.0] * 4


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_zero_feature_columns_train_a_bias_only_model(kind):
    y = np.array([1, 1, 1, 0] * 5)
    model = train(np.zeros((20, 0)), y, TrainConfig(kind=kind, width=4))
    assert np.all(np.isfinite(params_vector(model)))
    p = predict_proba(model, np.zeros((3, 0)))
    assert p.shape == (3,) and np.all(p == p[0]) and 0.5 < p[0] < 1.0


def test_linear_starts_at_zero():
    rng = np.random.default_rng(0)
    x, y = blobs(50, rng)
    model = train(x, y, TrainConfig(lr=0.0, epochs=1))
    assert np.all(model.weights == 0.0) and model.bias == 0.0


def test_mlp_initial_draws_respect_fan_in():
    rng = np.random.default_rng(0)
    x, y = blobs(50, rng)
    model = train(x, y, TrainConfig(kind="mlp", lr=0.0, epochs=1, width=8))
    assert np.all(np.abs(model.w1) <= 1.0 / np.sqrt(3))
    assert np.all(np.abs(model.w2) <= 1.0 / np.sqrt(8))
    assert np.all(model.b1 == 0.0) and model.b2 == 0.0
    assert np.unique(model.w1).size > 1


def test_training_reduces_loss_and_separates():
    rng = np.random.default_rng(5)
    x, y = blobs(600, rng)
    x_test, y_test = blobs(600, rng)
    cfg = TrainConfig(epochs=40, seed=1)
    model = train(x, y, cfg)
    start = LinearModel(weights=np.zeros(3), bias=0.0)
    loss_start, _ = loss_and_grad(start, x, y, cfg.l2)
    loss_end, _ = loss_and_grad(model, x, y, cfg.l2)
    assert loss_end < loss_start
    assert auc(predict_proba(model, x_test), y_test) > 0.9


def test_heavy_penalty_recovers_base_rate():
    rng = np.random.default_rng(6)
    x, y = blobs(500, rng)
    y = (rng.random(500) < 0.8).astype(np.int64)
    cfg = TrainConfig(lr=0.01, epochs=300, l2=10.0, seed=2)
    model = train(x, y, cfg)
    assert np.linalg.norm(model.weights) < 0.05
    base_rate = 1.0 / (1.0 + np.exp(-model.bias))
    assert abs(base_rate - y.mean()) < 0.05


def test_mlp_learns_nonlinear_boundary():
    rng = np.random.default_rng(7)
    n = 400
    corner = rng.integers(0, 2, (n, 2))
    y = (corner[:, 0] ^ corner[:, 1]).astype(np.int64)
    x = corner + 0.2 * rng.standard_normal((n, 2))
    linear = train(x, y, TrainConfig(epochs=100, seed=1))
    mlp = train(x, y, TrainConfig(kind="mlp", lr=0.3, epochs=300, seed=1))
    assert auc(predict_proba(linear, x), y) < 0.65
    assert auc(predict_proba(mlp, x), y) > 0.75


def test_extreme_logits_stay_finite():
    model = LinearModel(weights=np.array([1e4]), bias=0.0)
    x = np.array([[-1.0], [1.0]])
    with np.errstate(over="raise"):
        probs = predict_proba(model, x)
    assert np.all(np.isfinite(probs))
    assert probs[0] == pytest.approx(0.0) and probs[1] == pytest.approx(1.0)


def test_config_and_input_validation():
    with pytest.raises(ModelError, match="kind"):
        TrainConfig(kind="tree")
    with pytest.raises(ModelError, match="lr"):
        TrainConfig(lr=-1.0)
    for name in ("lr", "l2"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ModelError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})
    with pytest.raises(ModelError, match="positive"):
        TrainConfig(epochs=0)
    with pytest.raises(ModelError, match="2-D"):
        train(np.zeros(3), np.zeros(3), TrainConfig())
    with pytest.raises(ModelError, match="0 or 1"):
        train(np.zeros((3, 1)), np.array([0, 1, 2]), TrainConfig())
    with pytest.raises(ModelError, match="one per row"):
        train(np.zeros((3, 1)), np.array([0, 1]), TrainConfig())
