"""Self-test of the benchmark's output checks: each passes on real output
and fails on a deliberately corrupted copy.

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from causalboot import cli  # noqa: E402
from causalboot.bootstrap import ResampleConfig, cb_resample, cb_weights  # noqa: E402
from causalboot.model import auc  # noqa: E402
from causalboot.simulate import SimConfig, simulate  # noqa: E402


@pytest.fixture(scope="module")
def debiased(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    sim, cb, da = tmp / "sim.csv", tmp / "cb.csv", tmp / "da.csv"
    boot = ["bootstrap", "--scenario", "c", "--seed", "4", "--in", str(sim)]
    assert cli.main(["simulate", "--scenario", "c", "--n", "3000", "--seed", "3", "--out", str(sim)]) == 0
    assert cli.main(boot + ["--method", "cb", "--out", str(cb)]) == 0
    assert cli.main(boot + ["--method", "da", "--out", str(da)]) == 0
    return sim, cb, da


def test_csv_checks_pass_on_real_output(debiased):
    workloads._check_csv(*debiased, workloads.Result())


def test_debiased_row_absent_from_input_fails(debiased, tmp_path):
    sim, cb, da = debiased
    lines = cb.read_text().split("\n")
    fields = lines[5].split(",")
    fields[0] = repr(float(fields[0]) + 1e-9)
    lines[5] = ",".join(fields)
    bad = tmp_path / "cb.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(checks.CheckFailed, match="not an input row"):
        workloads._check_csv(sim, bad, da, workloads.Result())


def test_debiased_file_missing_a_row_fails(debiased, tmp_path):
    sim, cb, da = debiased
    lines = cb.read_text().split("\n")
    bad = tmp_path / "cb.csv"
    bad.write_text("\n".join(lines[:1] + lines[2:]))
    with pytest.raises(checks.CheckFailed, match="rows of class"):
        workloads._check_csv(sim, bad, da, workloads.Result())


def test_row_count_wants_every_input_row_but_the_known_rounding_fault():
    y_in = np.array([0] * 162 + [1] * 151)  # 313 rows: int(313 * (162/313)) == 161
    assert [checks.rounding_shortfall(313, k) for k in (162, 151)] == [1, 0]
    assert checks.debias_row_count(y_in, y_in) == 0
    assert checks.debias_row_count(y_in[1:], y_in) == 1
    with pytest.raises(checks.CheckFailed, match="rows of class 1"):
        checks.debias_row_count(y_in[:-1], y_in)
    with pytest.raises(checks.CheckFailed, match="rows of class 0"):
        checks.debias_row_count(y_in[2:], y_in)


def test_balanced_stratum_of_wrong_size_fails(debiased, tmp_path):
    sim, cb, da = debiased
    lines = da.read_text().split("\n")
    bad = tmp_path / "da.csv"
    bad.write_text("\n".join(lines[:1] + lines[2:]))
    with pytest.raises(checks.CheckFailed, match="da stratum"):
        workloads._check_csv(sim, cb, bad, workloads.Result())


def test_confounded_rows_fail_the_balance_check():
    data = simulate(SimConfig(scenario="a", n=20_000), "conf", 5)
    u = data.columns["u"]
    with pytest.raises(checks.CheckFailed, match="P\\(u=1"):
        checks.confounder_balance(data.y, u, float(u.mean()), {0: 5e3, 1: 5e3}, data.n, "u")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    spec = tmp / "spec.txt"
    spec.write_text(
        "scenarios=a\nmethods=simple,cb\ncomplexity_sweep=0.5,3.0\nseeds=0\n"
        "n_train=300\nn_test=300\ntrain.epochs=3\n"
    )
    assert cli.main(["run", "--spec", str(spec), "--out", str(tmp / "out")]) == 0
    return (tmp / "out" / "results.csv").read_text()


def _change_one_auc(text: str, value: str) -> str:
    lines = text.split("\n")
    fields = lines[3].split(",")
    fields[5] = value
    lines[3] = ",".join(fields)
    return "\n".join(lines)


def test_grid_checks_pass_on_real_output(results):
    checks.grid_rows(results, 16)
    checks.identical(results.encode(), results.encode(), "results.csv")
    assert checks.failed_cells(results) == 0


def test_one_changed_auc_fails(results):
    changed = _change_one_auc(results, "0.5")
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.identical(results.encode(), changed.encode(), "results.csv")
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.grid_rows(_change_one_auc(results, "1.25"), 16)


def test_a8_properties_fail_on_a_cb_gap(results):
    records = checks.grid_rows(results, 16)
    for r in records:
        if r["method"] == "cb" and r["regime"] == "revconf":
            r["auc"] = repr(float(r["auc"]) - 0.2)
    with pytest.raises(checks.CheckFailed, match="cb"):
        checks.a8_properties(records, (0.5, 3.0))


@pytest.fixture(scope="module")
def resampled():
    cfg = SimConfig(scenario="b", n=50_000)
    data = simulate(cfg, "conf", 7)
    table = cb_weights(data.weight_columns(), "b")
    return cfg, data, table, cb_resample(data, table, ResampleConfig(seed=8))


def test_resample_checks_pass_on_real_output(resampled):
    cfg, data, table, out = resampled
    checks.weight_sums(table.weights, table.classes)
    ess = checks.plugin_ess("b", data.weight_columns())
    checks.confounder_balance(out.y, out.shadow["u"], float(data.columns["u"].mean()), ess, data.n, "u")
    checks.feature_means(out.x, out.y, {c: workloads._do_mean(cfg, c) for c in (0, 1)}, ess)


def test_resample_of_concentrated_weights_fails(resampled):
    # all of each class's draws from 20 input rows: the program's own
    # weights would then have an ESS near 20 and a bound wide enough to
    # pass; the benchmark's plug-in ESS keeps the bound tight
    cfg, data, _, out = resampled
    rows = np.random.default_rng(9).choice(20, size=out.n)
    ess = checks.plugin_ess("b", data.weight_columns())
    with pytest.raises(checks.CheckFailed, match="E\\[x\\|do\\(y\\)\\]"):
        checks.feature_means(data.x[rows], out.y, {c: workloads._do_mean(cfg, c) for c in (0, 1)}, ess)


def test_plugin_ess_matches_the_program_weights(resampled):
    _, data, table, _ = resampled
    ess = checks.plugin_ess("b", data.weight_columns())
    for c in table.classes:
        assert ess[c] == pytest.approx(checks.kish_ess(table.column(c)), rel=1e-9)


def test_weight_column_scaled_by_1_01_fails(resampled):
    _, _, table, _ = resampled
    scaled = table.weights.copy()
    scaled[:, 1] *= 1.01
    with pytest.raises(checks.CheckFailed, match="sum to"):
        checks.weight_sums(scaled, table.classes)


def test_observational_means_fail_the_interventional_check(resampled):
    cfg, data, table, _ = resampled
    ess = checks.plugin_ess("b", data.weight_columns())
    means = {c: workloads._do_mean(cfg, c) for c in (0, 1)}
    with pytest.raises(checks.CheckFailed, match="E\\[x\\|do\\(y\\)\\]"):
        checks.feature_means(data.x, data.y, means, ess)


def test_concordance_matches_auc_and_catches_a_change():
    rng = np.random.default_rng(0)
    scores = np.round(rng.normal(size=5000), 1)  # many ties
    labels = (rng.random(5000) < 0.4).astype(np.int64)
    value = auc(scores, labels)
    checks.auc_matches(value, scores, labels)
    with pytest.raises(checks.CheckFailed, match="concordance"):
        checks.auc_matches(value + 1e-9, scores, labels)
