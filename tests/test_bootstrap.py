"""Weight formulas on hand data, resampler behavior, oracle agreement."""

import dataclasses
import math
import os
import re
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalboot import bootstrap, cli
from causalboot.bootstrap import (
    BootstrapError,
    MethodId,
    NotIdentifiedError,
    ResampleConfig,
    WeightTable,
    _draw,
    _weight_form,
    cb_resample,
    cb_weights,
    da_resample,
    select_features,
)
from causalboot.estimate import (
    EstimateError,
    KernelSpec,
    ZeroSupportError,
    silverman_bandwidth,
)
from causalboot.graph import ScenarioId, scenario_graph
from causalboot.identify import (
    Cond,
    EstimandError,
    Product,
    Quotient,
    Ref,
    Sum,
    estimand_to_text,
    identify,
    prune,
)
from causalboot.rng import _BLOCK, stream
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


# (t, G) of each scenario's weight w_n(c) = P(t_n | y=c) / (N P(t_n | G_n)),
# written out by hand for the reference
_WEIGHT_FORMS = {
    ScenarioId.OBSERVED_CONF: ("y", ("u",)),
    ScenarioId.OBSERVED_CONF_MEDIATOR: ("z", ("u",)),
    ScenarioId.PARTIAL_CONF_MEDIATOR: ("z", ("y", "u")),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: ("z", ("y",)),
    ScenarioId.BIASED_CARE: ("y", ("u",)),
}


PRUNED_ESTIMANDS = {
    ScenarioId.OBSERVED_CONF: "Σ_{u} P(u) P(x|u,y)",
    ScenarioId.OBSERVED_CONF_MEDIATOR: "Σ_{u,z} P(u) P(x|u,z) P(z|y)",
    ScenarioId.PARTIAL_CONF_MEDIATOR: (
        "Σ_{u,z} P(u) P(z|y) (Σ_{y'} P(x|u,y',z) P(y'|u))"
    ),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: "Σ_{z} P(z|y) (Σ_{y'} P(x|y',z) P(y'))",
    ScenarioId.BIASED_CARE: "Σ_{u} P(u) P(x|u,y)",
}


@pytest.mark.parametrize("scenario", ALL)
def test_weight_form_is_read_off_the_pruned_estimand(scenario):
    g = scenario_graph(scenario)
    estimand = identify(g, ("X",), ("Y",)).estimand
    pruned = dataclasses.replace(estimand, root=prune(estimand.root, g))
    assert estimand_to_text(pruned) == PRUNED_ESTIMANDS[scenario]
    target, given = _weight_form(scenario)
    want_target, want_given = _WEIGHT_FORMS[scenario]
    assert (target, sorted(given)) == (want_target, sorted(want_given))


@pytest.fixture
def pruned_as(monkeypatch):
    """Makes ``_weight_form`` read ``fn(expr, g)`` in place of the pruned
    estimand; its cache is cleared before and after, so no other test
    sees the forms read."""

    def use(fn):
        monkeypatch.setattr(bootstrap, "prune", fn)
        _weight_form.cache_clear()

    yield use
    _weight_form.cache_clear()


@pytest.mark.parametrize("scenario", ["b", "c", "e"])
def test_an_estimand_of_another_shape_has_no_weight_form(pruned_as, scenario):
    # unpruned, b, c and e condition x or the mediator on more than the
    # weight formula reads, so no (t, G) fits them
    pruned_as(lambda expr, g: expr)
    with pytest.raises(EstimandError, match="^no weight formula for Σ") as got:
        cb_weights({"y": np.array([0, 1]), "u": np.array([0, 1])}, scenario)
    assert type(got.value) is EstimandError


U, W, X, Y = (Ref(name, name.lower()) for name in "UWXY")
HAND_SHAPES = {
    # the factors without y are no chain-rule prefix of any P(S)
    "no weight formula for Σ_{u,w} P(u|w) P(w|u) P(x|u,w,y)": Sum(
        (("u", "U"), ("w", "W")),
        Product((Cond((U,), (W,)), Cond((W,), (U,)), Cond((X,), (U, W, Y)))),
    ),
    # ... or reach beyond S
    "no weight formula for Σ_{u,w} P(u) P(w|u) P(x|u,y)": Sum(
        (("u", "U"), ("w", "W")),
        Product((Cond((U,)), Cond((W,), (U,)), Cond((X,), (U, Y)))),
    ),
    # S holds two variables besides G
    "no weight formula for Σ_{u} P(x|u,y)": Sum((("u", "U"),), Cond((X,), (U, Y))),
    "a quotient of sums has no terms of its own": Quotient(
        Cond((X, Y)), Cond((Y,))
    ),
}


@pytest.mark.parametrize("message, root", HAND_SHAPES.items())
def test_hand_estimands_of_another_shape_have_no_weight_form(
    pruned_as, message, root
):
    pruned_as(lambda expr, g: root)
    with pytest.raises(EstimandError, match=f"^{re.escape(message)}$"):
        _weight_form(ScenarioId.OBSERVED_CONF)


def reference_weights(columns, scenario, alpha=0.0):
    """The weight formula row by row in Python ints and floats: each
    plug-in probability (count + alpha) / (group + alpha * k) from
    ``Counter`` tallies, then num / (n * den) for every row and class."""
    target, given = _WEIGHT_FORMS[ScenarioId.coerce(scenario)]
    rows = [
        {name: int(columns[name][i]) for name in ("y", *given, target)}
        for i in range(len(columns["y"]))
    ]
    n = len(rows)
    classes = tuple(sorted({row["y"] for row in rows}))
    k = len({row[target] for row in rows})

    def conditional(names):
        cells = Counter(tuple(row[name] for name in (*names, target)) for row in rows)
        groups = Counter(tuple(row[name] for name in names) for row in rows)
        return lambda t, *g: (cells[(*g, t)] + alpha) / (groups[g] + alpha * k)

    p_den = conditional(given)
    p_num = conditional(("y",))
    out = np.zeros((n, len(classes)))
    for i, row in enumerate(rows):
        den = n * p_den(row[target], *(row[name] for name in given))
        for j, c in enumerate(classes):
            if target == "y":
                num = 1.0 if row["y"] == c else 0.0
            else:
                num = p_num(row[target], c)
            out[i, j] = num / den
    normalized = bool(np.allclose(out.sum(axis=0), 1.0, atol=1e-9))
    return out, classes, normalized


# each column's domain choices: sparse, wide and more than two values
DOMAINS = {
    "y": [(0, 1), (-1, 1), (0, 2), (0, 1, 2)],
    "u": [(0, 1), (0, 5), (-2, 3, 7)],
    "z": [(0, 1), (-3, 10**12), (0, 1, 2)],
    "d": [(0, 1)],
}


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(ALL),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    n=st.integers(1, 50),
    data=st.data(),
)
def test_weights_equal_the_reference_bit_for_bit(scenario, alpha, n, data):
    cols = {}
    for name, choices in DOMAINS.items():
        domain = data.draw(st.sampled_from(choices))
        values = data.draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n))
        dtype = data.draw(st.sampled_from([np.int64, np.float64]))
        cols[name] = np.array(values, dtype=dtype)
    want, classes, normalized = reference_weights(cols, scenario, alpha)
    table = cb_weights(cols, scenario, alpha=alpha)
    assert table.weights.tobytes() == want.tobytes()
    assert table.classes == classes
    assert table.normalized == normalized


BAD_COLUMNS = [
    ("u", np.array([0, 0.5, 1, 0]), "column 'u' is not discrete"),
    ("z", np.array([0, 1, np.nan, 1]), "column 'z' is not discrete"),
    ("y", np.array([0, 1, 2.5, 1]), "column 'y' is not discrete"),
    ("u", np.array([0, 1, 1]), "column 'u' length differs from"),
    ("z", np.array([0, 1, 1, 0, 1]), "length differs from 'z'"),
    ("u", np.array([0, 1e19, 2e19, 0]), "column 'u' has a value beyond the int64 range"),
    ("y", np.array([0, 2**64 - 1, 1, 0], dtype=np.uint64), "'y' has a value beyond"),
]


def reads(scenario, name):
    target, given = _WEIGHT_FORMS[scenario]
    return name in ("y", target, *given)


@pytest.mark.parametrize(
    "scenario, name, bad, message",
    [(s, *case) for s in ALL for case in BAD_COLUMNS if reads(s, case[0])],
)
def test_bad_columns_are_input_errors(scenario, name, bad, message):
    cols = {key: np.array([0, 1, 1, 0]) for key in ("y", "u", "z")}
    cols[name] = bad
    with pytest.raises(EstimateError, match=message) as got:
        cb_weights(cols, scenario)
    assert type(got.value) is EstimateError and got.value.exit_code == 1


@pytest.mark.parametrize(
    "dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32]
)
def test_narrow_integer_columns_weigh_as_int64(dtype):
    rng = np.random.default_rng(17)
    cols = {"y": rng.integers(0, 2, 400)}
    cols |= {name: rng.choice([0, 2, 7], 400) for name in ("u", "z")}
    narrow = {name: values.astype(dtype) for name, values in cols.items()}
    for scenario in ALL:
        want = cb_weights(cols, scenario, alpha=0.5).weights
        assert cb_weights(narrow, scenario, alpha=0.5).weights.tobytes() == want.tobytes()


@pytest.mark.parametrize("scenario", ALL)
def test_empty_columns_are_input_errors(scenario):
    cols = {key: np.array([], dtype=np.int64) for key in ("y", "u", "z")}
    with pytest.raises(EstimateError, match="^empty dataset$") as got:
        cb_weights(cols, scenario)
    assert type(got.value) is EstimateError and got.value.exit_code == 1


@pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf])
def test_unusable_smoothing_is_an_input_error(alpha):
    cols = {"y": np.array([0, 1, 1, 0]), "u": np.array([0, 1, 0, 1])}
    with pytest.raises(
        EstimateError, match="^smoothing must be finite and nonnegative, got"
    ) as got:
        cb_weights(cols, "a", alpha=alpha)
    assert type(got.value) is EstimateError and got.value.exit_code == 1


def test_an_empty_group_raises_no_warning():
    # scenario c at alpha 0 has no rows with (y=0, u=1)
    cols = {"y": np.array([1, 1, 0, 0]), "u": np.array([1, 0, 0, 0]),
            "z": np.array([1, 0, 0, 1])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = cb_weights(cols, "c")
    assert np.isfinite(table.weights).all()
    assert table.weights.tobytes() == reference_weights(cols, "c")[0].tobytes()


def test_weight_table_validation():
    with pytest.raises(BootstrapError, match="nonnegative"):
        WeightTable(weights=np.array([[-0.1]]), classes=(1,), normalized=False)
    with pytest.raises(BootstrapError, match="distinct"):
        WeightTable(weights=np.zeros((2, 2)), classes=(1, 1), normalized=False)
    with pytest.raises(BootstrapError, match="must be"):
        WeightTable(weights=np.zeros(3), classes=(1,), normalized=False)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BootstrapError, match="finite"):
            WeightTable(weights=np.array([[0.5], [bad]]), classes=(1,), normalized=False)
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


def test_resample_refuses_a_table_of_another_length():
    table = cb_weights(toy_dataset(n=30).weight_columns(), "a")
    with pytest.raises(BootstrapError) as got:
        cb_resample(toy_dataset(n=40), table, ResampleConfig(seed=0))
    assert str(got.value) == "weight table and dataset sizes differ"


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


def test_resample_rejects_a_class_total_beyond_float_range():
    data = toy_dataset(n=10)
    table = WeightTable(
        weights=np.full((10, 1), 1e308), classes=(1,), normalized=False
    )
    with pytest.raises(BootstrapError, match="class 1 sum to inf"):
        cb_resample(data, table, ResampleConfig(seed=0))


def test_resample_checks_every_class_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr("causalboot.bootstrap._draw", lambda *args: calls.append(args))
    data = toy_dataset(n=10)
    table = WeightTable(
        weights=np.column_stack([np.ones(10), np.zeros(10)]),
        classes=(0, 1),
        normalized=False,
    )
    with pytest.raises(ZeroSupportError, match="class 1"):
        cb_resample(data, table, ResampleConfig(seed=0))
    assert calls == []


def cpu_set():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def test_resample_raises_the_threaded_class_error(monkeypatch):
    # the second class of a pair draws in a thread of its own: its error
    # surfaces from cb_resample, the thread has ended by then, and the
    # calling thread has its CPU set back
    data = toy_dataset()
    table = cb_weights(data.weight_columns(), "a")
    second = int((data.y == table.classes[1]).sum())
    assert second != (data.y == table.classes[0]).sum()

    def failing(rng, cdf, count):
        if count == second:
            raise RuntimeError("second class failed")
        return _draw(rng, cdf, count)

    monkeypatch.setattr("causalboot.bootstrap._draw", failing)
    threads, cpus = threading.active_count(), cpu_set()
    with pytest.raises(RuntimeError, match="second class failed"):
        cb_resample(data, table, ResampleConfig(seed=0))
    assert threading.active_count() == threads
    assert cpu_set() == cpus


def test_resample_gives_the_calling_thread_its_cpus_back():
    data = three_class_dataset()
    cpus = cpu_set()
    cb_resample(data, cb_weights(data.weight_columns(), "a"), ResampleConfig(seed=0))
    assert cpu_set() == cpus


def draw(rng, p, count):
    """``_draw``'s ``count`` indices, its blocks copied out in order and
    each checked to start where the last ended; ``p`` is left as it is."""
    blocks, end = [np.empty(0, np.int64)], 0
    for start, idx in _draw(rng, np.array(p, dtype=float), count):
        assert start == end and idx.dtype == np.int64
        blocks.append(idx.copy())
        end += len(idx)
    assert end == count
    return np.concatenate(blocks)


def reference_resample(data, table, config):
    """The resampler as it was before it gathered into preallocated
    output: each class's draw copied out, jittered, then every part
    joined with ``np.concatenate``."""
    jitter = None
    if config.kernel.kind == "gaussian":
        jitter = config.kernel.bandwidth
        if jitter is None:
            jitter = silverman_bandwidth(data.x)
    carried = {**data.columns, **data.shadow}
    x_parts, y_parts, carry_parts = [], [], {name: [] for name in carried}
    for c in table.classes:
        w = table.column(c)
        count = int((data.y == c).sum())
        rng = stream(config.seed, "resample", c)
        idx = draw(rng, w / w.sum(), count)
        x = data.x[idx]
        if jitter is not None:
            x = x + jitter * rng.standard_normal(x.shape)
        x_parts.append(x)
        y_parts.append(np.full(count, c, dtype=data.y.dtype))
        for name in carried:
            carry_parts[name].append(carried[name][idx])
    return Dataset(
        x=np.concatenate(x_parts),
        y=np.concatenate(y_parts),
        columns={},
        shadow={name: np.concatenate(parts) for name, parts in carry_parts.items()},
    )


def three_class_dataset(label_dtype=np.int64):
    rng = np.random.default_rng(8)
    y = rng.integers(0, 3, 900).astype(label_dtype)
    u = rng.integers(0, 2, 900)
    x = np.column_stack([y + 0.3 * rng.standard_normal(900), u + 0.0])
    return Dataset(x=x, y=y, columns={"u": u}, shadow={"_h": rng.integers(0, 4, 900)})


def resample_cases():
    """(name, data, table, kernels) covering every way the resampler
    lays out its output."""
    every_kernel = [
        KernelSpec.delta(), KernelSpec.gaussian(0.2), KernelSpec.gaussian()
    ]
    scenario_c = simulate(SimConfig(scenario="c", n=3_000, feature_dim=3), "conf", 4)
    discrete = simulate(
        SimConfig(scenario="d", n=2_000, x_mode="discrete"), "conf", seed=5
    )
    three = three_class_dataset()
    three_table = cb_weights(three.weight_columns(), "a")
    # class 7 has weight but no rows in y, so it draws none
    extra = np.column_stack(
        [three_table.weights, np.random.default_rng(9).random(three.n)]
    )
    empty_class = WeightTable(
        weights=extra[:, [0, 3, 1, 2]], classes=(0, 7, 1, 2), normalized=False
    )
    narrow = three_class_dataset(np.int32)
    # jitter makes float64 rows of float32 features, as adding noise does
    float32_x = Dataset(
        x=three.x.astype(np.float32), y=three.y, columns=three.columns, shadow={}
    )
    return [
        ("2-D float x, shadow column", scenario_c,
         cb_weights(scenario_c.weight_columns(), "c"), every_kernel),
        ("1-D int x", discrete,
         cb_weights(discrete.weight_columns(), "d"), [KernelSpec.delta()]),
        ("three classes", three, three_table, every_kernel),
        ("a class with no rows", three, empty_class, every_kernel),
        ("int32 labels", narrow,
         cb_weights(narrow.weight_columns(), "a"), every_kernel),
        ("float32 x", float32_x, three_table, every_kernel),
    ]


def test_resample_equals_the_concatenating_reference():
    for name, data, table, kernels in resample_cases():
        for kernel in kernels:
            config = ResampleConfig(seed=12, kernel=kernel)
            got = cb_resample(data, table, config)
            want = reference_resample(data, table, config)
            assert got.columns == {}
            assert list(got.shadow) == list(want.shadow), name
            pairs = [(got.x, want.x), (got.y, want.y)]
            pairs += [(got.shadow[key], want.shadow[key]) for key in want.shadow]
            for ours, theirs in pairs:
                assert ours.dtype == theirs.dtype, (name, kernel)
                assert ours.shape == theirs.shape, (name, kernel)
                assert ours.tobytes() == theirs.tobytes(), (name, kernel)


# draw counts either side of a block's end: the uniforms come a block at
# a time, and the indices and generator state must not show it
BLOCK_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


def weight_cases(rng):
    """(weights, draw count) pairs: sizes 0, 1 and uneven, zero weights
    scattered, leading and trailing, and counts at every block edge."""
    n = int(rng.integers(1, 3_000))
    w = rng.random(n)
    w[rng.random(n) < 0.4] = 0.0
    w[rng.integers(n)] = 1.0  # some weight survives
    trailing = np.concatenate([rng.random(7), np.zeros(5)])
    leading = np.concatenate([np.zeros(5), rng.random(4)])
    counts = (0, 1, n, int(rng.integers(2, 2 * n + 2)))
    return [(w, k) for k in counts] + [
        (trailing, 301), (leading, 17), (np.ones(1), 3)
    ] + [(w, k) for k in BLOCK_EDGES]


@pytest.mark.parametrize("seed", range(24))
def test_draw_equals_generator_choice(seed):
    # the resampler's bytes are Generator.choice's: same indices, same
    # dtype, and the same generator state after, so the Gaussian jitter
    # drawn next is unchanged too
    for w, count in weight_cases(np.random.default_rng(seed)):
        p = w / w.sum()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw(ours, p, count)
        want = theirs.choice(len(p), size=count, replace=True, p=p)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == (count,)
        assert np.array_equal(got, want)
        assert ours.random() == theirs.random()


class LargestUniform:
    """Draws the largest double below 1 every time."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("seed", range(8))
def test_draw_indices_lie_in_range(seed):
    # the resampler gathers with mode="clip", which would hide an index
    # outside [0, len(p)): every index must fall on a row with weight,
    # and the largest uniform on the last such row
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 500))
    body = rng.random(n) + 0.01
    single_first, single_last = np.zeros(n), np.zeros(n)
    single_first[0], single_last[-1] = 1.0, 1.0
    cases = {
        "leading zeros": np.concatenate([np.zeros(7), body]),
        "trailing zeros": np.concatenate([body, np.zeros(7)]),
        "both": np.concatenate([np.zeros(3), body, np.zeros(5)]),
        "single first": single_first,
        "single last": single_last,
    }
    for name, w in cases.items():
        p = w / w.sum()
        idx = draw(np.random.default_rng(seed), p, 20_000)
        assert 0 <= idx.min() and idx.max() < len(w), name
        assert (w[idx] > 0).all(), name
        last = np.flatnonzero(w)[-1]
        assert (draw(LargestUniform(), p, 3) == last).all(), name


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
    # 0 and 0.5 are distinct strata that integer keys would merge
    u = np.array([0, 0, 0.5, 1, 1, 0, 1, 0.5])
    data = Dataset(x=np.zeros((8, 1)), y=np.array([0, 1] * 4), columns={"u": u}, shadow={})
    with pytest.raises(EstimateError, match="^column 'u' is not discrete$") as got:
        da_resample(data, seed=0)
    assert got.value.exit_code == 1


def test_balancing_deterministic():
    data = toy_dataset()
    a = da_resample(data, seed=6)
    b = da_resample(data, seed=6)
    assert np.array_equal(a.x, b.x)


def reference_balance(data, seed):
    """The balancer that found the strata with ``np.unique`` and one
    boolean mask per (y, u) pair."""
    y, u = data.y, data.columns["u"]
    y_values = [int(v) for v in np.unique(y)]
    u_values = [int(v) for v in np.unique(u)]
    keep = []
    for yv in y_values:
        counts = {uv: int(((y == yv) & (u == uv)).sum()) for uv in u_values}
        target = max(counts.values())
        for uv in u_values:
            if counts[uv] == 0:
                raise ZeroSupportError(
                    f"empty stratum y={yv}, u={uv}; cannot balance"
                )
            rows = np.flatnonzero((y == yv) & (u == uv))
            keep.append(rows)
            extra = target - counts[uv]
            if extra > 0:
                rng = stream(seed, "balance", yv, uv)
                keep.append(rng.choice(rows, size=extra, replace=True))
    idx = np.concatenate(keep)
    return Dataset(
        x=data.x[idx],
        y=y[idx],
        columns={name: data.columns[name][idx] for name in data.columns},
        shadow={name: data.shadow[name][idx] for name in data.shadow},
    )


def assert_same_dataset(got, want):
    pairs = [(got.x, want.x), (got.y, want.y)]
    assert list(got.columns) == list(want.columns)
    assert list(got.shadow) == list(want.shadow)
    pairs += [(got.columns[k], want.columns[k]) for k in want.columns]
    pairs += [(got.shadow[k], want.shadow[k]) for k in want.shadow]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_balanced_as_the_reference(sample, seed):
    try:
        want = reference_balance(sample, seed)
    except ZeroSupportError as exc:
        with pytest.raises(ZeroSupportError) as got:
            da_resample(sample, seed)
        assert type(got.value) is ZeroSupportError and str(got.value) == str(exc)
    else:
        assert_same_dataset(da_resample(sample, seed), want)


@settings(max_examples=80, deadline=None)
@given(
    y_domain=st.sampled_from([(0, 1), (-1, 2), (0, 2, 5), (-1, 0, 2, 5)]),
    u_domain=st.sampled_from([(0, 1), (0, 5), (-2, 3, 7), (4,)]),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_balancing_equals_the_mask_reference(y_domain, u_domain, n, seed, data):
    y = np.array(data.draw(st.lists(st.sampled_from(y_domain), min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(st.sampled_from(u_domain), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3)) if data.draw(st.booleans()) else np.arange(n) * 2
    columns = {"u": u, "z": rng.integers(0, 2, n).astype(np.int32)}
    shadow = {"v": rng.integers(0, 2, n), "row": np.arange(n, dtype=np.uint16)}
    assert_balanced_as_the_reference(
        Dataset(x=x, y=y, columns=columns, shadow=shadow), seed
    )


@pytest.mark.parametrize("scenario", ["a", "b", "c", "e"])
def test_balancing_simulated_draws_equals_the_mask_reference(scenario):
    # scenario c's 40-row draw has an empty stratum, which both refuse
    for n, seed in ((40, 0), (3000, 1)):
        sample = simulate(SimConfig(scenario=scenario, n=n), "conf", seed=seed)
        assert_balanced_as_the_reference(sample, seed + 5)


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


def test_conditioning_features_need_their_columns():
    data = dataset_from(np.zeros((4, 2)), np.array([0, 1, 0, 1]), columns={})
    with pytest.raises(EstimateError) as got:
        select_features(data, "if", "a")
    assert str(got.value) == "conditioning features need observed column 'u'"


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


# --- simulated int8 columns against the same columns widened ----------------

def widened(data):
    """The same draw with its label and every discrete column as int64."""
    def wide(columns):
        return {name: values.astype(np.int64) for name, values in columns.items()}

    return Dataset(
        x=data.x,
        y=data.y.astype(np.int64),
        columns=wide(data.columns),
        shadow=wide(data.shadow),
    )


def assert_same_draw(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert np.array_equal(a.y, b.y)
    assert a.columns.keys() == b.columns.keys()
    assert a.shadow.keys() == b.shadow.keys()
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])
    for name in a.shadow:
        assert np.array_equal(a.shadow[name], b.shadow[name])


@pytest.mark.parametrize("n, feature_dim", [(3000, 10), (2**16 + 3, 4)])
@pytest.mark.parametrize("scenario", ALL)
def test_int8_columns_give_the_bytes_of_int64_columns(scenario, n, feature_dim, tmp_path):
    # above 2**16 rows the columns are drawn and resampled in blocks; few
    # features keep that case's CSV small
    cfg = SimConfig(scenario=scenario, n=n, feature_dim=feature_dim)
    narrow = simulate(cfg, "conf", seed=11)
    assert narrow.y.dtype == np.int8
    draws = (narrow, widened(narrow))
    tables = [cb_weights(d.weight_columns(), scenario) for d in draws]
    assert tables[0].weights.tobytes() == tables[1].weights.tobytes()
    config = ResampleConfig(seed=4)
    assert_same_draw(*(cb_resample(d, t, config) for d, t in zip(draws, tables)))
    if "u" in narrow.columns:
        assert_same_draw(*(da_resample(d, 5) for d in draws))
    for method in MethodId:
        a, b = (select_features(d, method, scenario) for d in draws)
        assert a.tobytes() == b.tobytes()
    paths = [tmp_path / "narrow.csv", tmp_path / "wide.csv"]
    for path, d in zip(paths, draws):
        cli._write_dataset(str(path), d, True)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def traced_peak(call, *args):
    """``call(*args)`` and the most bytes it held at once beyond what was
    live before, by tracemalloc, in every thread."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_weights_and_resample_hold_few_row_length_arrays():
    # cb_weights codes one-byte columns without an int64 copy and
    # gathers each class straight into the table: beyond the table, one
    # intp cell index and a one-byte check of the table.  cb_resample
    # draws a block of indices at a time: beyond its output, one cdf per
    # class of a pair drawing at once and a few blocks of scratch, the
    # Gaussian kernel's jitter included
    n = 2**18
    row = n * 8
    data = simulate(SimConfig(scenario="c", n=n), "conf", seed=3)
    table, peak = traced_peak(cb_weights, data.weight_columns(), "c")
    assert peak <= table.weights.nbytes + 2.25 * row
    for kernel in (KernelSpec.delta(), KernelSpec.gaussian(0.1)):
        config = ResampleConfig(seed=0, kernel=kernel)
        out, peak = traced_peak(cb_resample, data, table, config)
        arrays = [out.x, out.y, *out.columns.values(), *out.shadow.values()]
        assert peak <= sum(a.nbytes for a in arrays) + 2 * row + 4 * 2**20, kernel
