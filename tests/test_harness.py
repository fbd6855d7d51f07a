"""Grid runner: cardinality, status rows, determinism, persistence, parsing."""

import hashlib
import weakref

import numpy as np
import pytest

from causalboot import bootstrap, harness
from causalboot.bootstrap import MethodId
from causalboot.harness import (
    CSV_HEADER,
    ExperimentSpec,
    MAX_ROWS,
    HarnessError,
    ResultRow,
    parse_spec_text,
    read_results,
    resolved_spec_text,
    run_experiment,
    write_results,
)
from causalboot.model import TrainConfig


def small_spec(**kw):
    base = dict(
        scenarios=("a",),
        qc_grid=(0.95,),
        methods=("simple", "cb"),
        seeds=(0, 1, 2),
        n_train=400,
        n_test=400,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def by_cell(rows):
    return {(r.scenario, r.method, r.qc, r.regime, r.seed): r for r in rows}


def mean_auc(rows, method, regime, qc=None):
    picked = [
        r.auc
        for r in rows
        if r.method == method
        and r.regime == regime
        and r.status == "ok"
        and (qc is None or r.qc == qc)
    ]
    assert picked
    return float(np.mean(picked))


# --- structure ----------------------------------------------------------------

def test_grid_cardinality():
    rows = run_experiment(small_spec())
    assert len(rows) == 2 * 4 * 3
    assert all(r.status == "ok" for r in rows)
    assert all(r.auc is not None and 0.0 <= r.auc <= 1.0 for r in rows)
    assert all(r.wall_time_ms == 0 for r in rows)
    assert all(r.n_train == 400 for r in rows)


def test_rows_sorted_canonically():
    rows = run_experiment(small_spec(qc_grid=(0.95, 0.65)))
    regime_order = {"conf": 0, "unconf": 1, "revconf": 2, "unseen": 3}
    keys = [
        (r.scenario, r.method, r.qc, regime_order[r.regime], r.seed) for r in rows
    ]
    assert keys == sorted(keys)


def test_na_rows_for_inapplicable_cells():
    spec = small_spec(scenarios=("d",), methods=("da", "if"), seeds=(0,))
    rows = run_experiment(spec)
    cells = by_cell(rows)
    for regime in ("conf", "unconf", "revconf", "unseen"):
        row = cells[("d", "da", 0.95, regime, 0)]
        assert row.status == "na" and row.auc is None
    assert cells[("d", "if", 0.95, "unseen", 0)].status == "na"
    assert cells[("d", "if", 0.95, "conf", 0)].status == "ok"


def test_error_rows_do_not_abort():
    # 2 feature dimensions leave no room for the unseen-value offset
    spec = small_spec(methods=("simple",), seeds=(0,), sim={"feature_dim": 2})
    rows = run_experiment(spec)
    cells = by_cell(rows)
    assert cells[("a", "simple", 0.95, "conf", 0)].status == "ok"
    unseen = cells[("a", "simple", 0.95, "unseen", 0)]
    assert unseen.status.startswith("error:")
    assert unseen.auc is None


def test_unidentifiable_scenario_fails_its_cb_cells_only(unidentifiable_a):
    rows = run_experiment(small_spec(methods=("simple", "da", "cb"), seeds=(0,)))
    for row in rows:
        if row.method == "cb":
            assert row.status.startswith("error: hedge") and row.auc is None
        else:
            assert row.status == "ok"


def test_adding_methods_never_perturbs_existing_cells():
    both = run_experiment(small_spec())
    only = run_experiment(small_spec(methods=("simple",)))
    reference = by_cell(both)
    for row in only:
        assert reference[(row.scenario, row.method, row.qc, row.regime, row.seed)] == row


def test_sweep_mode_reports_offset_levels():
    spec = small_spec(
        methods=("simple",), seeds=(0,), complexity_sweep=(0.5, 2.0)
    )
    rows = run_experiment(spec)
    assert sorted({r.qc for r in rows}) == [0.5, 2.0]
    assert len(rows) == 2 * 4


def test_confounding_bites_simple_but_not_cb():
    rows = run_experiment(small_spec(n_train=2000, n_test=2000))
    gap = mean_auc(rows, "simple", "conf") - mean_auc(rows, "simple", "revconf")
    assert gap >= 0.2
    cb_gap = abs(mean_auc(rows, "cb", "unconf") - mean_auc(rows, "cb", "revconf"))
    assert cb_gap <= 0.05


# --- persistence ----------------------------------------------------------------

def test_write_read_round_trip(tmp_path):
    spec = small_spec(scenarios=("d",), methods=("da", "simple"), seeds=(0, 1))
    rows = run_experiment(spec)
    path = tmp_path / "results.csv"
    write_results(rows, path)
    assert read_results(path) == rows
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1


def test_write_empty_rows(tmp_path):
    path = tmp_path / "results.csv"
    write_results([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_reruns_are_byte_identical(tmp_path):
    spec = small_spec(seeds=(0,))
    a = tmp_path / "a.csv"
    write_results(run_experiment(spec), a)
    b = tmp_path / "b.csv"
    write_results(run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_read_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(HarnessError, match="header"):
        read_results(path)


def test_read_results_names_the_bad_line(tmp_path):
    good = "a,cb,0.95,conf,0,0.75,10,0,ok"
    for record, message in (
        ("a,cb,0.95", "expected 9 fields, got 3"),
        (good + ",extra", "expected 9 fields, got 10"),
        ("a,cb,zz,conf,0,0.75,10,0,ok", "could not convert"),
        ("a,cb,0.95,conf,0,0.75,1.5,0,ok", "invalid literal"),
        ("a,cb,0.95,conf,0,1.5,10,0,ok", "auc 1.5 outside"),
    ):
        path = tmp_path / "results.csv"
        path.write_text(f"{CSV_HEADER}\n{good}\n{record}\n")
        with pytest.raises(HarnessError, match=f"line 3: {message}"):
            read_results(path)
    path.write_text("")
    with pytest.raises(HarnessError, match="header"):
        read_results(path)


def test_result_row_validation():
    with pytest.raises(HarnessError, match="auc"):
        ResultRow(
            scenario="a",
            method="cb",
            qc=0.95,
            regime="conf",
            seed=0,
            auc=1.5,
            n_train=10,
        )


# --- spec files -------------------------------------------------------------

def test_parse_minimal_spec():
    spec = parse_spec_text("scenarios=a,b\n")
    assert [s.value for s in spec.scenarios] == ["a", "b"]
    assert spec.qc_grid == (0.65, 0.75, 0.85, 0.95)
    assert spec.seeds == (0, 1, 2, 3, 4)
    assert [m.value for m in spec.methods] == ["simple", "if", "da", "cb"]


def test_parse_full_spec():
    text = """
    # comment line
    scenarios = c
    qc_grid = 0.95
    methods = cb, da
    seeds = 3, 4
    n_train = 500
    n_test = 250   # trailing comment
    sim.r1 = 0.9
    sim.feature_dim = 6
    train.kind = mlp
    train.epochs = 10
    """
    spec = parse_spec_text(text)
    assert spec.qc_grid == (0.95,)
    assert spec.seeds == (3, 4)
    assert spec.n_train == 500 and spec.n_test == 250
    assert spec.sim == {"r1": 0.9, "feature_dim": 6}
    assert spec.train.kind == "mlp" and spec.train.epochs == 10


def test_parse_spec_errors():
    with pytest.raises(HarnessError, match="scenarios="):
        parse_spec_text("qc_grid=0.9\n")
    with pytest.raises(HarnessError, match="unknown spec key"):
        parse_spec_text("scenarios=a\nsim.bogus=1\n")
    with pytest.raises(HarnessError, match="unknown spec key"):
        parse_spec_text("scenarios=a\ncolor=red\n")
    with pytest.raises(HarnessError, match="duplicate"):
        parse_spec_text("scenarios=a\nscenarios=b\n")
    with pytest.raises(HarnessError, match="key=value"):
        parse_spec_text("scenarios\n")
    with pytest.raises(HarnessError, match="nonempty"):
        parse_spec_text("scenarios=a\nmethods=\n")
    for line in (
        "n_test=2k",
        "sim.r1=high",
        "train.epochs=1.5",
        "seeds=0,x",
        "qc_grid=0.9,high",
        "complexity_sweep=1,a",
    ):
        with pytest.raises(HarnessError, match="bad value"):
            parse_spec_text(f"scenarios=a\n{line}\n")
    with pytest.raises(HarnessError, match="spec key 'seeds': bad value 'x'"):
        parse_spec_text("scenarios=a\nseeds=0, x\n")
    for line in (
        "train.epochs=0",
        "train.kind=tree",
        "train.lr=inf",
        "train.l2=nan",
        "train.lr=-1",
    ):
        with pytest.raises(HarnessError, match="train settings"):
            parse_spec_text(f"scenarios=a\n{line}\n")


def test_resolved_spec_round_trip():
    spec = ExperimentSpec(
        scenarios=("a", "c"),
        qc_grid=(0.7, 0.95),
        methods=("cb",),
        seeds=(1, 2),
        n_train=300,
        n_test=200,
        sim={"r1": 0.9, "x_mode": "gaussian"},
        train=TrainConfig(kind="mlp", epochs=5),
    )
    text = resolved_spec_text(spec)
    again = parse_spec_text(text)
    assert again.scenarios == spec.scenarios
    assert again.qc_grid == spec.qc_grid
    assert again.methods == spec.methods
    assert again.seeds == spec.seeds
    assert again.train == spec.train
    assert again.sim["r1"] == 0.9
    # defaults materialized
    assert "sim.p=0.5" in text
    assert "train.lr=0.1" in text


def test_spec_validation():
    with pytest.raises(HarnessError, match="nonempty"):
        ExperimentSpec(scenarios=())
    with pytest.raises(HarnessError, match="outside"):
        ExperimentSpec(scenarios=("a",), qc_grid=(1.5,))
    with pytest.raises(HarnessError, match="positive"):
        ExperimentSpec(scenarios=("a",), n_train=0)
    for size in (MAX_ROWS + 1, 10**23):
        with pytest.raises(HarnessError, match=f"at most {MAX_ROWS}"):
            ExperimentSpec(scenarios=("a",), n_train=size)
        with pytest.raises(HarnessError, match=f"at most {MAX_ROWS}"):
            ExperimentSpec(scenarios=("a",), n_test=size)
    with pytest.raises(HarnessError, match="unknown sim overrides"):
        ExperimentSpec(scenarios=("a",), sim={"bogus": 1})
    with pytest.raises(HarnessError, match="unknown scenario"):
        ExperimentSpec(scenarios=("zz",))
    with pytest.raises(HarnessError, match="unknown method"):
        ExperimentSpec(scenarios=("a",), methods=("bogus",))
    with pytest.raises(HarnessError, match="spec sim settings: sigma"):
        ExperimentSpec(scenarios=("a",), sim={"sigma": -1.0})
    # scenario c's default hidden-confounder offset needs a third axis
    with pytest.raises(HarnessError, match="spec sim settings: feature_dim 2"):
        ExperimentSpec(scenarios=("a", "c"), sim={"feature_dim": 2})
    # the sweep's label offset is sized only after the width is checked
    with pytest.raises(HarnessError, match="spec sim settings: feature_dim must be"):
        ExperimentSpec(
            scenarios=("a",), complexity_sweep=(1.0,), sim={"feature_dim": 0}
        )
    for sweep in (None, (1.0,)):
        with pytest.raises(HarnessError, match=r"spec sim settings: n \* feature_dim"):
            ExperimentSpec(
                scenarios=("a",),
                complexity_sweep=sweep,
                sim={"feature_dim": 99999999999},
            )
    # the width is checked at the larger of the training and test sizes
    with pytest.raises(HarnessError, match=r"n \* feature_dim .* got 10000000 \* 11"):
        ExperimentSpec(
            scenarios=("a",), n_train=10, n_test=MAX_ROWS, sim={"feature_dim": 11}
        )
    for level in (0.0, float("inf"), float("nan")):
        with pytest.raises(HarnessError, match="complexity_sweep"):
            ExperimentSpec(scenarios=("a",), complexity_sweep=(0.5, level))
    for axis, values, shown in (
        ("scenarios", ("a", "b", "a"), "'a'"),
        ("methods", ("simple", "cb", "simple"), "'simple'"),
        ("seeds", (1, 2, 1), "1"),
        ("qc_grid", (0.75, 0.750), "0.75"),
        ("complexity_sweep", (0.5, 1.0, 1.0), "1.0"),
    ):
        with pytest.raises(HarnessError, match=f"{axis} lists {shown} more than once"):
            ExperimentSpec(**{"scenarios": ("a",), axis: values})


# --- pinned grids -------------------------------------------------------------

# results.csv digests of grids written before models trained in stacks,
# when every cell simulated its own draws and trained its own model.
A8_SPEC = (
    "scenarios=a\nmethods=simple,cb\ncomplexity_sweep=0.5,1.0,1.5,2.2,3.0\n"
    "seeds=0,1,2,3,4\nn_train=2000\nn_test=2000\ntrain.kind=linear\n"
    "train.epochs=60\n"
)
# Scenarios a-e, every method: da balances ragged draws and errors on
# empty strata, if is "na" under the unseen regime, and six-row test
# draws leave some regimes with one class to rank.
MIXED_SPEC = (
    "scenarios=a,b,c,d,e\nqc_grid=0.65,0.95\nseeds=0,1,2\nn_train=60\n"
    "n_test=6\ntrain.batch=16\ntrain.epochs=5\n"
)
PINNED_GRIDS = {
    "a8": (
        A8_SPEC,
        "1ae17b3ec3f0193dd90bd5a33f6ac3bd6db6d2d4de6f88fb08948406c14a4e51",
    ),
    "mixed": (
        MIXED_SPEC,
        "0f8a481bc8cd106da2cf3444877ebf280620ee133765e7c08c6d63fc36b333ed",
    ),
    "mixed_mlp": (
        MIXED_SPEC + "train.kind=mlp\ntrain.width=4\n",
        "a51bc48143feb40b060416a05666ddcacc3fa9214189f931848d355a39d708f1",
    ),
}


def _digest(spec, tmp_path):
    path = tmp_path / "results.csv"
    write_results(run_experiment(spec), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
def test_grid_matches_pinned_digest_whatever_the_stack_size(
    name, tmp_path, monkeypatch
):
    text, pinned = PINNED_GRIDS[name]
    spec = parse_spec_text(text)
    calls = {"simulate": 0, "identify": 0}
    stacks = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recorded(sets, configs):
        stacks.append(len(sets))
        return train_sets(sets, configs)

    train_sets = harness._train_sets
    monkeypatch.setattr(harness, "simulate", counted(harness.simulate, "simulate"))
    monkeypatch.setattr(bootstrap, "identify", counted(bootstrap.identify, "identify"))
    monkeypatch.setattr(harness, "_train_sets", recorded)
    bootstrap._x_under_do_y.cache_clear()
    assert _digest(spec, tmp_path) == pinned
    cells = len(spec.scenarios) * len(spec.levels) * len(spec.seeds)
    checked = len(spec.scenarios) if MethodId.CB in spec.methods else 0
    assert calls == {"simulate": cells * (1 + 4), "identify": checked}
    # one stack per (scenario, level), holding every trainable cell
    assert len(stacks) == len(spec.scenarios) * len(spec.levels)
    assert max(stacks) == len(spec.seeds) * len(spec.methods)

    # smaller than any one model's features: every model trains alone
    stacks.clear()
    monkeypatch.setattr(harness, "_STACK_BYTES", 1)
    assert _digest(spec, tmp_path) == pinned
    assert set(stacks) == {1}


def test_training_sets_are_freed_once_trained(monkeypatch):
    """With stacks of one model, each set is freed as soon as it has
    trained: none is alive when the next draw is simulated, and only
    the draw's own features are when the next set is built."""
    trained = []

    def recorded(sets, configs):
        trained.extend(weakref.ref(x) for x, _ in sets)
        return train_sets(sets, configs)

    def alive():
        return sum(ref() is not None for ref in trained)

    def checked(fn, most):
        def wrapper(*args, **kwargs):
            assert alive() <= most
            return fn(*args, **kwargs)

        return wrapper

    train_sets = harness._train_sets
    monkeypatch.setattr(harness, "_STACK_BYTES", 1)
    monkeypatch.setattr(harness, "_train_sets", recorded)
    monkeypatch.setattr(harness, "simulate", checked(harness.simulate, 0))
    monkeypatch.setattr(harness, "_method_set", checked(harness._method_set, 1))
    run_experiment(parse_spec_text(MIXED_SPEC))
    assert len(trained) > 0 and alive() == 0
