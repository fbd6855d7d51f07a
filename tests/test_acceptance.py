"""Package-level acceptance checks, one test per criterion (A1..A10).

Each test is self-contained: it states its tolerance inline and pulls
only on the public API plus the exact reference implementations in
``tests/scm.py`` and ``tests/bruteforce.py``.
"""

import dataclasses
import subprocess
import sys
from itertools import product

import numpy as np

from causalboot.bootstrap import (
    MethodId,
    ResampleConfig,
    cb_resample,
    cb_weights,
    select_features,
)
from causalboot.graph import (
    OBSERVED_COLUMNS,
    ScenarioId,
    d_separated,
    parse_graph,
    scenario_graph,
)
from causalboot.harness import ExperimentSpec, run_experiment
from causalboot.identify import Identified, Unidentifiable, identify
from causalboot.model import (
    TrainConfig,
    auc,
    loss_and_grad,
    predict_proba,
    train,
)
from causalboot.rng import derive_key, stream
from causalboot.simulate import (
    SimConfig,
    TestRegime,
    _discrete_tables,
    exact_interventional,
    simulate,
)
from bruteforce import dsep_by_path_enumeration, random_admg, random_disjoint_sets
from exact import JointTable, evaluate_estimand, exact_observational
from params import params_vector, replace_params
from population import DYADIC_RATES, training_rows
from scm import DiscreteSCM

ALL_SCENARIOS = list(ScenarioId)


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


def spearman(xs, ys):
    def ranks(vals):
        order = np.argsort(np.asarray(vals, dtype=float))
        out = np.empty(len(vals))
        out[order] = np.arange(len(vals))
        return out

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


# --- A1: weight normalization ---------------------------------------------------

def test_a1_weight_columns_sum_to_one_per_class():
    # Small samples need milder confounding and mediator skew so every
    # stratum is populated; the identity itself is size-free.
    small = {"q_c": 0.6, "qp_c": 0.6, "r0": 0.3, "r1": 0.7}
    settings = [(100, small), (10_000, {})]
    for scenario, (n, overrides) in product(ALL_SCENARIOS, settings):
        cfg = SimConfig(scenario=scenario, n=n, **overrides)
        data = simulate(cfg, TestRegime.CONF, seed=1)
        table = cb_weights(data.weight_columns(), scenario, alpha=0.0)
        assert table.normalized, (scenario, n)
        for c in table.classes:
            total = table.column(c).sum()
            assert abs(total - 1.0) <= 1e-9, (scenario, n, c, total)


# --- A2: resample matches the exact interventional law --------------------------

def test_a2_resampled_law_matches_exact_intervention():
    for scenario in ALL_SCENARIOS:
        cfg = SimConfig(
            scenario=scenario, n=50_000, q_c=0.95, x_mode="discrete", x_support=8
        )
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


def test_a2_population_weights_reproduce_exact_intervention():
    # A2 without sampling: the weights of the whole training population
    # (tests/population.py), contracted with the exact feature law given
    # each row's X parents, are P(x | do(y=c)) up to rounding.
    for scenario in ALL_SCENARIOS:
        cfg = SimConfig(
            scenario=scenario, n=1, x_mode="discrete", x_support=8, **DYADIC_RATES
        )
        rows = training_rows(cfg)
        observed = {name: rows[name] for name in ("y", *OBSERVED_COLUMNS[scenario])}
        table = cb_weights(observed, scenario)
        names, laws = _discrete_tables(cfg)
        keys = zip(*(rows[name].tolist() for name in names))
        feature_law = np.array([laws[key] for key in keys])
        oracle = exact_interventional(cfg)
        naive = exact_observational(cfg)
        assert table.classes == (0, 1)
        for c in table.classes:
            got = table.column(c) @ feature_law
            err = np.abs(got - oracle[c]).max()
            assert err <= 1e-12, (scenario, c, err)
            # the confounded law is far away, so agreement is not vacuous
            assert np.abs(got - naive[c]).max() > 1e-3, (scenario, c)


# --- A3: resample decouples label and confounder --------------------------------

def test_a3_resample_breaks_label_confounder_dependence():
    cfg = SimConfig(scenario="a", n=50_000, q_c=0.95)
    data = simulate(cfg, TestRegime.CONF, seed=21)
    table = cb_weights(data.weight_columns(), "a")
    out = cb_resample(data, table, ResampleConfig(seed=22))
    u = out.shadow["u"]
    p_joint = u[out.y == 1].mean()
    p_marginal = u.mean()
    assert abs(p_joint - p_marginal) <= 0.02


# --- A4: d-separation against path enumeration ----------------------------------

def test_a4_dsep_agrees_with_path_enumeration():
    rng = np.random.default_rng(4)
    queries = 0
    for _ in range(200):
        g = random_admg(rng, int(rng.integers(3, 9)))
        for _ in range(2):
            a, b, given = random_disjoint_sets(rng, g)
            want = dsep_by_path_enumeration(g, a, b, given)
            assert d_separated(g, a, b, given) == want, (g, a, b, given)
            queries += 1
    assert queries >= 200


# --- A5: identified estimands equal the closed forms -----------------------------

def _prob_fn(variables, table):
    """Return p(partial assignment) computed by exact summation."""

    def prob(**fixed):
        total = 0.0
        for values in product(*(range(s) for s in table.shape)):
            if all(values[variables.index(k)] == v for k, v in fixed.items()):
                total += table[values]
        return total

    return prob


def _closed_form(scenario, prob, c):
    """The textbook adjustment for P(x|do(y=c)) in each scenario."""
    if scenario in (ScenarioId.OBSERVED_CONF, ScenarioId.BIASED_CARE):
        return [
            sum(prob(U=u) * prob(X=x, U=u, Y=c) / prob(U=u, Y=c) for u in (0, 1))
            for x in (0, 1)
        ]
    if scenario is ScenarioId.OBSERVED_CONF_MEDIATOR:
        return [
            sum(
                prob(Z=z, Y=c) / prob(Y=c)
                * prob(U=u)
                * prob(X=x, Z=z, U=u) / prob(Z=z, U=u)
                for z in (0, 1)
                for u in (0, 1)
            )
            for x in (0, 1)
        ]
    if scenario is ScenarioId.PARTIAL_CONF_MEDIATOR:
        return [
            sum(
                prob(Z=z, Y=c) / prob(Y=c)
                * prob(Y=y2, U=u)
                * prob(X=x, Z=z, Y=y2, U=u) / prob(Z=z, Y=y2, U=u)
                for z in (0, 1)
                for y2 in (0, 1)
                for u in (0, 1)
            )
            for x in (0, 1)
        ]
    if scenario is ScenarioId.UNOBSERVED_CONF_MEDIATOR:
        return [
            sum(
                prob(Z=z, Y=c) / prob(Y=c)
                * prob(Y=y2)
                * prob(X=x, Z=z, Y=y2) / prob(Z=z, Y=y2)
                for z in (0, 1)
                for y2 in (0, 1)
            )
            for x in (0, 1)
        ]
    raise AssertionError(scenario)


def test_a5_estimands_match_closed_forms_exactly():
    rng = np.random.default_rng(5)
    for scenario in ALL_SCENARIOS:
        g = scenario_graph(scenario)
        scm = DiscreteSCM.random(rng, g)
        variables, table = scm.observational_joint()
        prob = _prob_fn(variables, table)
        out = identify(g, {"X"}, {"Y"})
        assert isinstance(out, Identified), scenario
        jt = JointTable(variables, {v: (0, 1) for v in variables}, table)
        for c in (0, 1):
            hand = np.array(_closed_form(scenario, prob, c))
            truth = scm.interventional({"Y": c}, ("X",))
            got = evaluate_estimand(out.estimand, jt, c)
            assert np.abs(hand - truth).max() <= 1e-9, (scenario, c)
            assert np.abs(got - hand).max() <= 1e-9, (scenario, c)


def test_a5_bow_graph_is_unidentifiable():
    out = identify(parse_graph("Y -> X; Y <-> X"), {"X"}, {"Y"})
    assert isinstance(out, Unidentifiable)


# --- A6: confounding hurts the naive model, not the resampled one ----------------

def _grid(**kw):
    base = dict(
        scenarios=("a",),
        qc_grid=None if "complexity_sweep" in kw else (0.95,),
        seeds=(0, 1, 2, 3, 4),
        n_train=2000,
        n_test=2000,
    )
    base.update(kw)
    return run_experiment(ExperimentSpec(**base))


def _unconfounded_reference(seed, scenario=ScenarioId.OBSERVED_CONF, level=0.95):
    """AUC of a model trained on unconfounded data, on the shared test set."""
    train_cfg = SimConfig(scenario=scenario, n=2000, q_c=level)
    data = simulate(
        train_cfg,
        TestRegime.UNCONF,
        derive_key(seed, "data", "ref", scenario.value, repr(level)),
    )
    feats = select_features(data, MethodId.SIMPLE, scenario)
    cfg = TrainConfig(seed=derive_key(seed, "train", "ref", scenario.value))
    model = train(feats, data.y, cfg)
    test_data = simulate(
        SimConfig(scenario=scenario, n=2000, q_c=level),
        TestRegime.UNCONF,
        derive_key(seed, "data", "test", scenario.value, repr(level), "unconf"),
    )
    scores = predict_proba(model, select_features(test_data, MethodId.SIMPLE, scenario))
    return auc(scores, test_data.y)


def test_a6_reversal_breaks_naive_training_but_not_cb():
    rows = _grid(methods=("simple", "cb"))
    drop = mean_auc(rows, "simple", "conf") - mean_auc(rows, "simple", "revconf")
    assert drop >= 0.2, drop
    cb = [mean_auc(rows, "cb", r) for r in ("conf", "unconf", "revconf")]
    assert max(cb) - min(cb) <= 0.05, cb
    reference = float(np.mean([_unconfounded_reference(s) for s in range(5)]))
    assert abs(mean_auc(rows, "cb", "unconf") - reference) <= 0.03


# --- A7: strata balancing fails under a hidden confounder ------------------------

def test_a7_cb_beats_balancing_under_partial_observation():
    rows = _grid(scenarios=("c",), methods=("cb", "da"))
    margin = mean_auc(rows, "cb", "revconf") - mean_auc(rows, "da", "revconf")
    assert margin >= 0.1, margin


# --- A8: the confounding gap shrinks with signal strength ------------------------

def test_a8_signal_sweep_shrinks_the_gap_for_cb_only():
    levels = (0.5, 1.0, 1.5, 2.2, 3.0)
    rows = _grid(methods=("simple", "cb"), complexity_sweep=levels)
    simple_gaps = [
        mean_auc(rows, "simple", "unconf", qc=v) - mean_auc(rows, "simple", "revconf", qc=v)
        for v in levels
    ]
    assert spearman(levels, simple_gaps) <= -0.8, simple_gaps
    for v in levels:
        gap = mean_auc(rows, "cb", "unconf", qc=v) - mean_auc(rows, "cb", "revconf", qc=v)
        assert abs(gap) <= 0.05, (v, gap)


# --- A9: gradient and AUC exactness ----------------------------------------------

def test_a9_gradients_match_central_differences():
    rs = stream(9, "acceptance", "grad")
    x = rs.normal(size=(20, 4))
    y = (rs.random(20) < 0.5).astype(np.int64)
    y[:2] = [0, 1]
    for kind in ("linear", "mlp"):
        cfg = TrainConfig(kind=kind, width=6, epochs=2, seed=0)
        model = train(x, y, cfg)
        theta = params_vector(model)
        _, grad = loss_and_grad(model, x, y, l2=0.01)
        gvec = params_vector(grad)
        eps = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = eps
            up, _ = loss_and_grad(replace_params(model, theta + step), x, y, 0.01)
            down, _ = loss_and_grad(replace_params(model, theta - step), x, y, 0.01)
            fd[j] = (up - down) / (2 * eps)
        rel = np.linalg.norm(gvec - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5, (kind, rel)


def test_a9_auc_equals_pairwise_concordance():
    rs = stream(9, "acceptance", "auc")
    for i in range(100):
        n = int(rs.integers(4, 40))
        scores = rs.normal(size=n)
        if i % 2:
            scores = np.round(scores, 1)  # force ties
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(1, int(rs.integers(1, n)))] = 1
        rs.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (
            pos[:, None] == neg[None, :]
        ).sum()
        want = wins / (len(pos) * len(neg))
        assert abs(auc(scores, labels) - want) <= 1e-12


# --- A10: byte-identical command-line output -------------------------------------

def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "causalboot.cli"] + [str(a) for a in args],
        capture_output=True,
    )


def test_a10_every_subcommand_is_deterministic(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("U->Y; U->X; Y->X\n")
    runs = {}
    for tag in ("first", "second"):
        sim = tmp_path / f"sim_{tag}.csv"
        boot = tmp_path / f"boot_{tag}.csv"
        bal = tmp_path / f"bal_{tag}.csv"
        out_dir = tmp_path / f"run_{tag}"
        spec = tmp_path / f"spec_{tag}.txt"
        spec.write_text(
            "scenarios=a\nqc_grid=0.95\nmethods=simple\nseeds=0\n"
            "n_train=150\nn_test=150\ntrain.epochs=3\n"
        )
        dsep = _cli("dsep", "--graph", graph, "--a", "X", "--b", "Y")
        ident = _cli("identify", "--graph", graph, "--outcome", "X", "--do", "Y")
        assert dsep.returncode == 0 and ident.returncode == 0
        assert _cli(
            "simulate", "--scenario", "a", "--n", 120, "--seed", 3, "--out", sim
        ).returncode == 0
        assert _cli(
            "bootstrap", "--scenario", "a", "--method", "cb",
            "--in", sim, "--out", boot, "--seed", 5,
        ).returncode == 0
        assert _cli(
            "bootstrap", "--scenario", "a", "--method", "da",
            "--in", sim, "--out", bal, "--seed", 5,
        ).returncode == 0
        assert _cli("run", "--spec", spec, "--out", out_dir).returncode == 0
        runs[tag] = (
            dsep.stdout,
            ident.stdout,
            sim.read_bytes(),
            boot.read_bytes(),
            bal.read_bytes(),
            (out_dir / "results.csv").read_bytes(),
            (out_dir / "spec.resolved.txt").read_bytes(),
        )
    assert runs["first"] == runs["second"]
