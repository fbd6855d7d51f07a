"""Grid runner: cardinality, status rows, determinism, persistence, parsing."""

import csv
import dataclasses
import hashlib
import os
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
    resolved_spec_text,
    run_experiment,
    write_results,
)
from causalboot.model import TrainConfig
from causalboot.rng import derive_key
from causalboot.simulate import SimConfig, SimulateError
from forks import counting_forks, two_cpus

# How read_results parses each column of results.csv, in ResultRow's order.
_COLUMN_PARSERS = (
    str, str, float, str, int, lambda s: None if s == "" else float(s), int, str
)


def read_results(path) -> list[ResultRow]:
    """results.csv back as ResultRows, naming the line of any bad record."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise HarnessError(f"unexpected results header {header!r}")
        rows = []
        for record in reader:
            where = f"{path}: line {reader.line_num}"
            if len(record) != len(header):
                raise HarnessError(
                    f"{where}: expected {len(header)} fields, got {len(record)}"
                )
            try:
                row = ResultRow(*(f(v) for f, v in zip(_COLUMN_PARSERS, record)))
            except ValueError as exc:
                raise HarnessError(f"{where}: {exc}") from None
            rows.append(row)
    return rows


def small_spec(**kw):
    base = dict(
        scenarios=("a",),
        qc_grid=None if "complexity_sweep" in kw else (0.95,),
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


def test_a_level_with_no_runnable_method_simulates_nothing(monkeypatch):
    monkeypatch.setattr(harness, "simulate", no_draw)
    rows = run_experiment(small_spec(scenarios=("d",), methods=("da",), seeds=(0, 1)))
    assert len(rows) == 2 * 4
    assert all(r.status == "na" and r.auc is None for r in rows)


def no_draw(*args):
    raise AssertionError("a draw was simulated")


def test_a_failed_training_draw_fails_its_seed_only(monkeypatch):
    spec = small_spec(scenarios=("d",), methods=("da", "simple", "cb"))
    clean = run_experiment(spec)
    broken = derive_key(1, "data", "train", "d", repr(0.95))
    simulate = harness.simulate

    def failing(config, regime, seed):
        if seed == broken:
            raise SimulateError("no draw today")
        return simulate(config, regime, seed)

    monkeypatch.setattr(harness, "simulate", failing)
    rows = run_experiment(spec)
    assert len(rows) == len(clean)
    for row, want in zip(rows, clean):
        if row.seed == 1 and row.method != "da":
            assert (row.status, row.auc) == ("error: no draw today", None)
            assert row == dataclasses.replace(want, auc=None, status=row.status)
        else:
            assert row == want
    assert {r.status for r in rows if r.method == "da"} == {"na"}
    assert sum(r.status.startswith("error") for r in rows) == 2 * 4


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
    good = "a,cb,0.95,conf,0,0.75,10,ok"
    for record, message in (
        ("a,cb,0.95", "expected 8 fields, got 3"),
        (good + ",extra", "expected 8 fields, got 9"),
        ("a,cb,zz,conf,0,0.75,10,ok", "could not convert"),
        ("a,cb,0.95,conf,0,0.75,1.5,ok", "invalid literal"),
        ("a,cb,0.95,conf,0,1.5,10,ok", "auc 1.5 outside"),
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
    # settings that change no output are refused, not echoed
    with pytest.raises(HarnessError, match="unknown spec key 'train.seed'"):
        parse_spec_text("scenarios=a\ntrain.seed=3\n")
    with pytest.raises(HarnessError, match="sim.q_c is set by each qc_grid level"):
        parse_spec_text("scenarios=a\nsim.q_c=0.8\n")
    with pytest.raises(HarnessError, match="qc_grid has no effect with complexity_sweep"):
        parse_spec_text("scenarios=a\nqc_grid=0.9\ncomplexity_sweep=1.0\n")
    assert parse_spec_text("scenarios=a\nsim.q_c=0.8\ncomplexity_sweep=1.0\n").sim == {
        "q_c": 0.8
    }
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


@pytest.mark.parametrize(
    "sweep, sim",
    [
        (None, {"r1": 0.9, "x_mode": "gaussian"}),
        ((0.5, 2.0), {"r1": 0.9}),
        ((0.5, 2.0), {"q_c": 0.8, "qp_c": 0.6}),
    ],
)
def test_resolved_spec_round_trip(sweep, sim):
    spec = ExperimentSpec(
        scenarios=("a", "c"),
        qc_grid=(0.7, 0.95) if sweep is None else None,
        methods=("cb",),
        seeds=(1, 2),
        n_train=300,
        n_test=200,
        sim=sim,
        train=TrainConfig(kind="mlp", epochs=5),
        complexity_sweep=sweep,
    )
    text = resolved_spec_text(spec)
    again = parse_spec_text(text)
    assert again.scenarios == spec.scenarios
    assert again.levels == spec.levels
    assert again.complexity_sweep == spec.complexity_sweep
    assert again.methods == spec.methods
    assert again.seeds == spec.seeds
    assert again.train == spec.train
    assert all(again.sim[name] == value for name, value in sim.items())
    assert resolved_spec_text(again) == text
    # defaults materialized, but only the settings that reach a cell: the
    # level axis in force, q_c where no grid level sets it, a set qp_c
    assert "sim.p=0.5" in text
    assert "train.lr=0.1" in text
    assert "train.seed=" not in text
    assert ("qc_grid=" in text) == (sweep is None)
    assert ("complexity_sweep=" in text) == (sweep is not None)
    if sweep is None:
        assert "sim.q_c=" not in text
    else:
        assert f"sim.q_c={sim.get('q_c', SimConfig.q_c)!r}\n" in text
    assert ("sim.qp_c=" in text) == ("qp_c" in sim)


def test_spec_refuses_qc_grid_in_sweep_mode():
    # a spec file refuses it too: the sweep's levels replace the q_c grid
    with pytest.raises(HarnessError, match="qc_grid has no effect") as err:
        ExperimentSpec(scenarios=("a",), complexity_sweep=(1.0,), qc_grid=(0.7,))
    assert err.value.exit_code == 2
    assert ExperimentSpec(scenarios=("a",), complexity_sweep=(1.0,)).qc_grid is None
    assert ExperimentSpec(scenarios=("a",)).qc_grid == (0.65, 0.75, 0.85, 0.95)


def test_spec_refuses_a_training_seed():
    # a spec file refuses it too: every cell trains under a seed of its own
    with pytest.raises(HarnessError, match="train.seed has no effect") as err:
        ExperimentSpec(scenarios=("a",), train=TrainConfig(seed=5))
    assert err.value.exit_code == 2
    assert ExperimentSpec(scenarios=("a",), train=TrainConfig(epochs=3)).train.epochs == 3


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
    with pytest.raises(HarnessError, match="sim.q_c is set by each qc_grid level"):
        ExperimentSpec(scenarios=("a",), sim={"q_c": 0.8})
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
        "23d68a0ea354f0937c26692e88a3871b5f78b4b19d26d38113d00e0822054260",
    ),
    "mixed": (
        MIXED_SPEC,
        "7143810b2cc244ed1dad73c1012dd0be88f6c7179edfa7af00e56d934fe012ed",
    ),
    "mixed_mlp": (
        MIXED_SPEC + "train.kind=mlp\ntrain.width=4\n",
        "575ab84e47341229e1a0574069bba55642fffd23599dad0cf485d07cca4f1b1a",
    ),
}


def _digest(spec, tmp_path):
    path = tmp_path / "results.csv"
    write_results(run_experiment(spec), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def serially(work, n, out):
    """A stand-in for ``rng._forked`` that never forks: the caller runs
    the whole range itself, as on a one-CPU machine."""
    work(out, 0, n)


def kept_pairs(spec, forked):
    """The (scenario, level) pairs the calling process runs itself: the
    first half, rounded up, when a child runs the rest."""
    pairs = [(s, level) for s in spec.scenarios for level in spec.levels]
    return pairs[: (len(pairs) + 1) // 2] if forked else pairs


@pytest.mark.parametrize("mode", ["forked", "fallback"])
@pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
def test_grid_matches_pinned_digest_whatever_the_stack_size(
    name, mode, tmp_path, monkeypatch
):
    forked = mode == "forked"
    if forked and not two_cpus():
        pytest.skip("the split needs os.fork and two CPUs")
    if not forked:
        monkeypatch.setattr(harness, "_forked", serially)
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

    def noted(scenario, level, *rest):
        x, y = method_set(scenario, level, *rest)
        adds.append(((scenario, level), x.nbytes))
        return x, y

    train_sets, method_set, adds = harness._train_sets, harness._method_set, []
    monkeypatch.setattr(harness, "_method_set", noted)
    monkeypatch.setattr(harness, "simulate", counted(harness.simulate, "simulate"))
    monkeypatch.setattr(bootstrap, "identify", counted(bootstrap.identify, "identify"))
    monkeypatch.setattr(harness, "_train_sets", recorded)
    bootstrap._weight_form.cache_clear()
    pids = counting_forks(monkeypatch) if forked else []
    assert _digest(spec, tmp_path) == pinned
    assert len(pids) == int(forked)
    # the child's calls do not count here: these are this process's own
    kept = kept_pairs(spec, forked)
    cells = len(kept) * len(spec.seeds)
    checked = len({s for s, _ in kept}) if MethodId.CB in spec.methods else 0
    assert calls == {"simulate": cells * (1 + 4), "identify": checked}
    # one stack per (scenario, level), holding every trainable cell
    assert len(stacks) == len(kept)
    assert max(stacks) == len(spec.seeds) * len(spec.methods)

    # between one set's features and two: a set that would overflow a
    # waiting stack trains that stack first, so levels take several stacks
    limit = 3 * max(nbytes for _, nbytes in adds) // 2
    stacks.clear()
    adds.clear()
    monkeypatch.setattr(harness, "_STACK_BYTES", limit)
    assert _digest(spec, tmp_path) == pinned
    assert stacks == byte_rule(adds, limit)
    assert len(stacks) > len(kept)

    # smaller than any one model's features: every model trains alone
    stacks.clear()
    monkeypatch.setattr(harness, "_STACK_BYTES", 1)
    assert _digest(spec, tmp_path) == pinned
    assert set(stacks) == {1}


def byte_rule(adds, limit):
    """The stack sizes of ``adds``, (level, feature bytes) in the order the
    sets were built: a stack trains before a set that would take it past
    ``limit`` bytes, once it reaches ``limit``, and when its level ends."""
    sizes, owner, count, total = [], None, 0, 0
    for level, nbytes in adds:
        if count and (level != owner or total + nbytes > limit):
            sizes.append(count)
            count = total = 0
        owner, count, total = level, count + 1, total + nbytes
        if total >= limit:
            sizes.append(count)
            count = total = 0
    return sizes + [count] if count else sizes


def raise_in(where):
    """Wrap ``_run_level`` to raise in the child or in this process only."""
    parent, run_level = os.getpid(), harness._run_level

    def wrapper(*args):
        if (os.getpid() == parent) == (where == "caller"):
            raise RuntimeError(f"fault in the {where}")
        return run_level(*args)

    return wrapper


@pytest.mark.skipif(not two_cpus(), reason="the split needs os.fork and two CPUs")
def test_a_failed_child_leaves_the_caller_to_run_its_half(tmp_path, monkeypatch):
    text, pinned = PINNED_GRIDS["mixed"]
    pids = counting_forks(monkeypatch)
    monkeypatch.setattr(harness, "_run_level", raise_in("child"))
    assert _digest(parse_spec_text(text), tmp_path) == pinned
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not two_cpus(), reason="the split needs os.fork and two CPUs")
def test_a_fault_in_the_caller_leaves_no_child(monkeypatch):
    pids = counting_forks(monkeypatch)
    monkeypatch.setattr(harness, "_run_level", raise_in("caller"))
    with pytest.raises(RuntimeError, match="fault in the caller"):
        run_experiment(parse_spec_text(PINNED_GRIDS["mixed"][0]))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise AssertionError("a process was forked")


def test_one_cpu_never_forks(tmp_path, monkeypatch):
    text, pinned = PINNED_GRIDS["mixed"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert _digest(parse_spec_text(text), tmp_path) == pinned


def test_one_pair_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    spec = small_spec(seeds=(0,))
    assert kept_pairs(spec, True) == kept_pairs(spec, False)
    assert len(run_experiment(spec)) == len(spec.methods) * 4


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
