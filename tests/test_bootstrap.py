"""Weight formulas on hand data, resampler behavior, oracle agreement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalboot.bootstrap import (
    BootstrapError,
    MethodId,
    NotIdentifiedError,
    ResampleConfig,
    WeightTable,
    cb_resample,
    cb_weights,
    da_resample,
    select_features,
)
from causalboot.estimate import EstimateError, KernelSpec, ZeroSupportError
from causalboot.graph import ScenarioId
from causalboot.simulate import (
    Dataset,
    SimConfig,
    TestRegime,
    exact_interventional,
    simulate,
)

ALL = list(ScenarioId)


def dataset_from(x, y, columns=None, shadow=None):
    return Dataset(
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=np.int64),
        columns={k: np.asarray(v, dtype=np.int64) for k, v in (columns or {}).items()},
        shadow={k: np.asarray(v, dtype=np.int64) for k, v in (shadow or {}).items()},
    )


# --- weight formulas on frozen hand data -----------------------------------

def test_observed_confounder_weights_by_hand():
    cols = {"y": np.array([1, 1, 1, 0]), "u": np.array([1, 1, 0, 0])}
    table = cb_weights(cols, "a")
    assert table.classes == (0, 1)
    np.testing.assert_allclose(table.column(1), [0.25, 0.25, 0.5, 0.0])
    # class 0 leaves mass unclaimed: no samples with y=0, u=1 exist
    np.testing.assert_allclose(table.column(0), [0.0, 0.0, 0.0, 0.5])
    assert not table.normalized


def test_hidden_confounder_weights_by_hand():
    cols = {"y": np.array([1, 1, 0, 0]), "z": np.array([1, 0, 0, 0])}
    table = cb_weights(cols, "d")
    np.testing.assert_allclose(table.column(1), [0.25, 0.25, 0.125, 0.125])
    assert table.column(1).sum() == pytest.approx(0.75)
    assert not table.normalized


def test_mediator_weights_by_hand():
    # full support: every (y,z) and (u,z) cell occupied
    y = np.array([1, 1, 0, 0, 1, 0])
    u = np.array([1, 0, 1, 0, 1, 0])
    z = np.array([1, 0, 0, 1, 1, 0])
    table = cb_weights({"y": y, "u": u, "z": z}, "b")
    n = 6.0
    p_z_given_y = {(1, 1): 2 / 3, (0, 1): 1 / 3, (1, 0): 1 / 3, (0, 0): 2 / 3}
    p_z_given_u = {(1, 1): 2 / 3, (0, 1): 1 / 3, (1, 0): 1 / 3, (0, 0): 2 / 3}
    for k, c in enumerate(table.classes):
        want = [
            p_z_given_y[(z[i], c)] / (n * p_z_given_u[(z[i], u[i])])
            for i in range(6)
        ]
        np.testing.assert_allclose(table.weights[:, k], want)
    assert table.normalized


def test_partial_confounder_weights_by_hand():
    # P(z=1|y): 3/4 at y=1, 1/4 at y=0.  P(z=1|y,u): 1/2 at (1,1) and
    # (0,0), 1 at (1,0), 0 at (0,1), so two (y,u) groups lack a z value
    # and each class leaves a quarter of its mass unclaimed.
    y = np.array([1, 1, 1, 0, 0, 0, 1, 0])
    u = np.array([1, 1, 0, 0, 0, 1, 0, 1])
    z = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    table = cb_weights({"y": y, "u": u, "z": z}, "c")
    assert table.classes == (0, 1)
    np.testing.assert_allclose(
        table.column(1), [6, 2, 3, 2, 6, 1, 3, 1] / np.float64(32)
    )
    np.testing.assert_allclose(
        table.column(0), [2, 6, 1, 6, 2, 3, 1, 3] / np.float64(32)
    )
    assert not table.normalized


def test_care_level_weights_collapse():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 300)
    u = rng.integers(0, 2, 300)
    d = rng.integers(0, 2, 300)
    with_care = cb_weights({"y": y, "u": u, "d": d}, "e")
    without = cb_weights({"y": y, "u": u}, "a")
    np.testing.assert_array_equal(with_care.weights, without.weights)
    # the care factors cancel, so the care column is never needed
    no_care_column = cb_weights({"y": y, "u": u}, "e")
    np.testing.assert_array_equal(no_care_column.weights, without.weights)


def full_support_columns(rng, scenario, n=400):
    cols = {"y": rng.integers(0, 2, n)}
    for name in ("u", "z", "d"):
        cols[name] = rng.integers(0, 2, n)
    # pin one row per joint cell so no combination is empty
    grid = np.array(np.meshgrid(*[[0, 1]] * 4)).reshape(4, -1).T
    for j, name in enumerate(("y", "u", "z", "d")):
        cols[name][: len(grid)] = grid[:, j]
    return cols


@pytest.mark.parametrize("scenario", ALL)
def test_full_support_weights_are_normalized(scenario):
    rng = np.random.default_rng(7)
    cols = full_support_columns(rng, scenario)
    table = cb_weights(cols, scenario)
    assert table.normalized
    np.testing.assert_allclose(table.weights.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(table.weights >= 0)


def test_off_class_weights_are_zero_for_indicator_cases():
    rng = np.random.default_rng(3)
    cols = full_support_columns(rng, ScenarioId.OBSERVED_CONF)
    table = cb_weights(cols, "a")
    for c in (0, 1):
        assert np.all(table.column(c)[cols["y"] != c] == 0.0)


def test_smoothing_fills_empty_numerator_cells():
    cols = {"y": np.array([1, 0]), "z": np.array([1, 0])}
    assert cb_weights(cols, "d").column(1)[1] == 0.0
    smoothed = cb_weights(cols, "d", alpha=1.0)
    assert np.all(np.isfinite(smoothed.weights))
    assert smoothed.column(1)[1] > 0.0


def test_missing_columns_rejected():
    with pytest.raises(EstimateError, match="missing z"):
        cb_weights({"y": np.array([0, 1]), "u": np.array([0, 1])}, "b")


def test_weights_need_an_identifiable_graph(unidentifiable_a):
    cols = {"y": np.array([0, 1, 0, 1]), "u": np.array([0, 0, 1, 1])}
    with pytest.raises(NotIdentifiedError, match="^hedge"):
        cb_weights(cols, unidentifiable_a)
    assert cb_weights(cols, "e").normalized  # other scenarios keep their graph


def test_weight_table_validation():
    with pytest.raises(BootstrapError, match="nonnegative"):
        WeightTable(weights=np.array([[-0.1]]), classes=(1,), normalized=False)
    with pytest.raises(BootstrapError, match="distinct"):
        WeightTable(weights=np.zeros((2, 2)), classes=(1, 1), normalized=False)
    with pytest.raises(BootstrapError, match="must be"):
        WeightTable(weights=np.zeros(3), classes=(1,), normalized=False)
    table = WeightTable(weights=np.ones((2, 1)), classes=(1,), normalized=False)
    with pytest.raises(BootstrapError, match="no weight column"):
        table.column(0)


# --- resampling -------------------------------------------------------------

def toy_dataset(n=400, seed=5):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    u = rng.integers(0, 2, n)
    x = np.column_stack([y + 0.1 * rng.standard_normal(n), u + 0.0])
    return dataset_from(x, y, columns={"u": u})


def test_resample_sizes_follow_empirical_prior():
    data = toy_dataset()
    table = cb_weights(data.weight_columns(), "a")
    out = cb_resample(data, table, ResampleConfig(seed=1))
    for c in (0, 1):
        assert (out.y == c).sum() == (data.y == c).sum()
    assert out.columns == {}
    assert set(out.shadow) == {"u"}


def test_resample_keeps_row_count_where_shares_round_down():
    # 162/313 held as a double gives int(313 * 162/313) == 161
    data = simulate(SimConfig(scenario="c", n=313), "conf", seed=0)
    assert [(data.y == c).sum() for c in (0, 1)] == [162, 151]
    table = cb_weights(data.weight_columns(), "c")
    out = cb_resample(data, table, ResampleConfig(seed=0))
    assert out.n == 313
    assert [(out.y == c).sum() for c in (0, 1)] == [162, 151]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.integers(2, 3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
    ),
    seed=st.integers(0, 999),
)
@example(sizes=(313, 162), seed=0)
@example(sizes=(50_000, 25_003), seed=0)
def test_resample_draws_every_label_count(sizes, seed):
    n, ones = sizes
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:ones]] = 1
    u = rng.integers(0, 2, n)
    data = dataset_from(np.column_stack([y, u]), y, columns={"u": u})
    table = cb_weights(data.weight_columns(), "a")
    out = cb_resample(data, table, ResampleConfig(seed=seed))
    assert out.n == n
    assert (out.y == 1).sum() == ones


def test_delta_kernel_copies_rows():
    data = toy_dataset(n=100)
    table = cb_weights(data.weight_columns(), "a")
    out = cb_resample(data, table, ResampleConfig(seed=3))
    originals = {tuple(row) for row in data.x}
    assert all(tuple(row) in originals for row in out.x)


def test_gaussian_kernel_jitters_rows():
    data = toy_dataset(n=100)
    table = cb_weights(data.weight_columns(), "a")
    cfg = ResampleConfig(seed=3, kernel=KernelSpec.gaussian(0.05))
    out = cb_resample(data, table, cfg)
    originals = {tuple(row) for row in data.x}
    assert not any(tuple(row) in originals for row in out.x)


def test_gaussian_kernel_rejects_integer_features():
    data = simulate(
        SimConfig(scenario="a", n=50, x_mode="discrete"), "conf", seed=1
    )
    table = cb_weights(data.weight_columns(), "a")
    cfg = ResampleConfig(seed=1, kernel=KernelSpec.gaussian(0.1))
    with pytest.raises(BootstrapError, match="real-valued"):
        cb_resample(data, table, cfg)


def test_resample_deterministic():
    data = toy_dataset()
    table = cb_weights(data.weight_columns(), "a")
    a = cb_resample(data, table, ResampleConfig(seed=9))
    b = cb_resample(data, table, ResampleConfig(seed=9))
    c = cb_resample(data, table, ResampleConfig(seed=10))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_resample_zero_support_class():
    data = toy_dataset(n=10)
    table = WeightTable(
        weights=np.zeros((10, 1)), classes=(1,), normalized=False
    )
    with pytest.raises(ZeroSupportError, match="class 1"):
        cb_resample(data, table, ResampleConfig(seed=0))


# --- balancing --------------------------------------------------------------

def test_balancing_upsamples_minority_strata():
    y = np.array([1] * 100 + [0] * 100)
    u = np.array([1] * 90 + [0] * 10 + [0] * 80 + [1] * 20)
    data = dataset_from(np.arange(200.0)[:, None], y, columns={"u": u})
    out = da_resample(data, seed=4)
    for yv in (0, 1):
        counts = [((out.y == yv) & (out.columns["u"] == uv)).sum() for uv in (0, 1)]
        assert counts[0] == counts[1] == max(
            ((y == yv) & (u == uv)).sum() for uv in (0, 1)
        )
    # originals all survive
    assert set(np.unique(out.x)) == set(np.unique(data.x))


def test_balancing_identity_when_already_balanced():
    y = np.array([0, 0, 1, 1])
    u = np.array([0, 1, 0, 1])
    data = dataset_from(np.arange(4.0)[:, None], y, columns={"u": u})
    out = da_resample(data, seed=1)
    assert sorted(out.x[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0]


def test_balancing_errors():
    y = np.array([1, 1, 0, 0])
    u = np.array([1, 1, 0, 0])
    data = dataset_from(np.zeros((4, 1)), y, columns={"u": u})
    with pytest.raises(ZeroSupportError, match="empty stratum"):
        da_resample(data, seed=0)
    data = dataset_from(np.zeros((4, 1)), y, columns={})
    with pytest.raises(EstimateError, match="confounder column"):
        da_resample(data, seed=0)
    data = dataset_from(np.zeros((0, 1)), [], columns={"u": []})
    with pytest.raises(EstimateError, match="empty dataset"):
        da_resample(data, seed=0)


def test_balancing_deterministic():
    data = toy_dataset()
    a = da_resample(data, seed=6)
    b = da_resample(data, seed=6)
    assert np.array_equal(a.x, b.x)


# --- feature selection -------------------------------------------------------

def test_select_features_by_method():
    data = simulate(SimConfig(scenario="c", n=50), "conf", seed=1)
    assert select_features(data, "simple", "c").shape == (50, 10)
    assert select_features(data, "cb", "c").shape == (50, 10)
    assert select_features(data, "da", "c").shape == (50, 10)
    assert select_features(data, "if", "c").shape == (50, 12)


@pytest.mark.parametrize(
    "scenario,extra", [("a", 1), ("b", 2), ("c", 2), ("d", 1), ("e", 1)]
)
def test_conditioning_features_per_scenario(scenario, extra):
    data = simulate(SimConfig(scenario=scenario, n=30), "conf", seed=2)
    feats = select_features(data, MethodId.IF, scenario)
    assert feats.shape == (30, 10 + extra)
    # the observed ancestors of X, in graph order: never the care level
    names = {"a": "u", "b": "uz", "c": "uz", "d": "z", "e": "u"}[scenario]
    np.testing.assert_array_equal(feats[:, :10], data.x)
    np.testing.assert_array_equal(
        feats[:, 10:], np.column_stack([data.columns[name] for name in names])
    )


def test_hidden_columns_never_selected():
    data = simulate(SimConfig(scenario="d", n=30), "conf", seed=3)
    feats = select_features(data, "if", "d")
    # only the mediator is appended; the hidden confounder stays hidden
    np.testing.assert_array_equal(feats[:, 10], data.columns["z"])
    assert feats.shape[1] == 11


def test_discrete_features_become_one_column():
    data = simulate(
        SimConfig(scenario="a", n=30, x_mode="discrete"), "conf", seed=4
    )
    feats = select_features(data, "simple", "a")
    assert feats.shape == (30, 1)
    assert feats.dtype == np.float64


def test_method_coercion():
    assert MethodId.coerce("CB") is MethodId.CB
    assert MethodId.coerce(MethodId.DA) is MethodId.DA
    with pytest.raises(BootstrapError, match="unknown method"):
        MethodId.coerce("oracle")


# --- distributional correctness ---------------------------------------------

@pytest.mark.parametrize("scenario", ALL)
def test_resampled_features_match_interventional_law(scenario):
    cfg = SimConfig(scenario=scenario, n=50_000, q_c=0.95, x_mode="discrete")
    data = simulate(cfg, TestRegime.CONF, seed=11)
    table = cb_weights(data.weight_columns(), scenario)
    out = cb_resample(data, table, ResampleConfig(seed=12))
    oracle = exact_interventional(cfg)
    for c in (0, 1):
        mask = out.y == c
        got = np.bincount(out.x[mask].astype(int), minlength=cfg.x_support)
        got = got / mask.sum()
        tv = 0.5 * np.abs(got - oracle[c]).sum()
        assert tv <= 0.02, (scenario, c, tv)


def test_resampling_removes_label_confounder_dependence():
    cfg = SimConfig(scenario="a", n=50_000, q_c=0.95)
    data = simulate(cfg, "conf", seed=21)
    table = cb_weights(data.weight_columns(), "a")
    out = cb_resample(data, table, ResampleConfig(seed=22))
    u = out.shadow["u"]
    overall = (u == 1).mean()
    within = (u[out.y == 1] == 1).mean()
    assert abs(within - overall) <= 0.02


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_weights_nonnegative_and_bounded(seed):
    rng = np.random.default_rng(seed)
    cols = full_support_columns(rng, ScenarioId.OBSERVED_CONF, n=64)
    table = cb_weights(cols, "a")
    assert np.all(table.weights >= 0)
    assert np.all(table.weights <= 1.0 + 1e-12)
