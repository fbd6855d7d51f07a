"""Grid runner: cardinality, status rows, determinism, persistence, parsing."""

import numpy as np
import pytest

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
    for level in (0.0, float("inf"), float("nan")):
        with pytest.raises(HarnessError, match="complexity_sweep"):
            ExperimentSpec(scenarios=("a",), complexity_sweep=(0.5, level))
