"""Generator checks: schemas, regime laws, determinism, exact tables."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalboot.estimate import fit_conditional
from causalboot.graph import X_PARENTS, ScenarioId
from causalboot.rng import stream
from causalboot.simulate import (
    DELTA_SCALE,
    MAX_ROWS,
    MAX_X_SUPPORT,
    Dataset,
    SimConfig,
    SimulateError,
    TestRegime,
    _BLOCK_ROWS,
    _discrete_tables,
    _offsets,
    exact_interventional,
    exact_observational,
    simulate,
)

# the module, which the package's own ``simulate`` function shadows
simulate_module = importlib.import_module("causalboot.simulate")

ALL = list(ScenarioId)


def cfg_for(scenario, n, **kw):
    return SimConfig(scenario=scenario, n=n, **kw)


def binom_close(phat, p, n, z=3.0):
    se = np.sqrt(max(p * (1.0 - p), 1e-12) / n)
    return abs(phat - p) <= z * se + 1e-3


# --- schema ---------------------------------------------------------------

EXPECTED_OBSERVED = {
    ScenarioId.OBSERVED_CONF: {"u"},
    ScenarioId.OBSERVED_CONF_MEDIATOR: {"u", "z"},
    ScenarioId.PARTIAL_CONF_MEDIATOR: {"u", "z"},
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: {"z"},
    ScenarioId.BIASED_CARE: {"u", "d"},
}
EXPECTED_SHADOW = {
    ScenarioId.OBSERVED_CONF: set(),
    ScenarioId.OBSERVED_CONF_MEDIATOR: set(),
    ScenarioId.PARTIAL_CONF_MEDIATOR: {"v"},
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: {"u"},
    ScenarioId.BIASED_CARE: set(),
}


@pytest.mark.parametrize("scenario", ALL)
def test_columns_match_scenario(scenario):
    data = simulate(cfg_for(scenario, 500), TestRegime.CONF, seed=1)
    assert set(data.columns) == EXPECTED_OBSERVED[scenario]
    assert set(data.shadow) == EXPECTED_SHADOW[scenario]
    assert data.x.shape == (500, 10)
    assert data.x.dtype == np.float64
    assert set(np.unique(data.y)) <= {0, 1}
    assert set(data.weight_columns()) == {"y"} | EXPECTED_OBSERVED[scenario]


@pytest.mark.parametrize("scenario", ALL)
def test_discrete_mode_emits_codes(scenario):
    data = simulate(
        cfg_for(scenario, 2000, x_mode="discrete", x_support=6),
        "conf",
        seed=3,
    )
    assert data.x.shape == (2000,)
    assert data.x.dtype == np.int64
    assert data.x.min() >= 0 and data.x.max() < 6


def test_determinism_and_seed_sensitivity():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 400)
    a = simulate(cfg, "conf", seed=7)
    b = simulate(cfg, "conf", seed=7)
    c = simulate(cfg, "conf", seed=8)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.columns["u"], b.columns["u"])
    assert not np.array_equal(a.x, c.x)


def test_regimes_use_distinct_streams():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 400)
    a = simulate(cfg, "conf", seed=7)
    b = simulate(cfg, "revconf", seed=7)
    assert not np.array_equal(a.y, b.y) or not np.array_equal(a.x, b.x)


# --- regime laws ----------------------------------------------------------

def rate(mask_num, mask_den):
    return mask_num.sum() / mask_den.sum()


def test_confounder_law_per_regime():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 50_000, q_c=0.95)
    for regime, want1, want0 in [
        ("conf", 0.95, 0.05),
        ("unconf", 0.5, 0.5),
        ("revconf", 0.05, 0.95),
    ]:
        data = simulate(cfg, regime, seed=11)
        u, y = data.columns["u"], data.y
        n1, n0 = (y == 1).sum(), (y == 0).sum()
        assert binom_close(rate((u == 1) & (y == 1), y == 1), want1, n1)
        assert binom_close(rate((u == 1) & (y == 0), y == 0), want0, n0)
        assert binom_close((y == 1).mean(), 0.5, len(y))


def test_unseen_regime_pins_confounder():
    data = simulate(cfg_for(ScenarioId.OBSERVED_CONF, 20_000), "unseen", seed=5)
    u = data.columns["u"]
    assert np.all(u == 2)
    # the third confounder value has its own feature direction
    assert abs(data.x[:, 3].mean() - DELTA_SCALE) < 0.05
    assert abs(data.x[:, 1].mean()) < 0.05


def test_mediator_and_care_laws():
    data = simulate(cfg_for(ScenarioId.OBSERVED_CONF_MEDIATOR, 50_000), "conf", 2)
    z, y = data.columns["z"], data.y
    assert binom_close(rate((z == 1) & (y == 1), y == 1), 0.95, (y == 1).sum())
    assert binom_close(rate((z == 1) & (y == 0), y == 0), 0.05, (y == 0).sum())

    data = simulate(cfg_for(ScenarioId.BIASED_CARE, 80_000), "conf", 2)
    d, u, y = data.columns["d"], data.columns["u"], data.y
    for yv, uv, want in [(1, 1, 0.95), (1, 0, 0.8), (0, 1, 0.05), (0, 0, 0.2)]:
        cell = (y == yv) & (u == uv)
        if cell.sum() > 200:
            assert binom_close(rate((d == 1) & cell, cell), want, cell.sum())


def test_hidden_confounder_follows_regime():
    cfg = cfg_for(ScenarioId.PARTIAL_CONF_MEDIATOR, 50_000, qp_c=0.7)
    for regime, want in [("conf", 0.7), ("unconf", 0.5), ("revconf", 0.3), ("unseen", 0.5)]:
        data = simulate(cfg, regime, seed=13)
        v, y = data.shadow["v"], data.y
        got = rate((v == 1) & (y == 1), y == 1)
        assert binom_close(got, want, (y == 1).sum())


@pytest.mark.parametrize("regime", ["conf", "unseen"])
@pytest.mark.parametrize("scenario", ALL)
def test_gaussian_features_center_on_parent_offsets(scenario, regime):
    rng = np.random.default_rng(41)
    names = ("delta_y", "delta_u", "delta_z", "delta_v", "delta_u2")
    deltas = {name: rng.normal(size=4) for name in names}
    cfg = cfg_for(scenario, 300, feature_dim=4, sigma=1e-12, **deltas)
    data = simulate(cfg, regime, seed=31)
    cols = {"y": data.y, **data.columns, **data.shadow}
    want = np.zeros((300, 4))
    for parent in X_PARENTS[scenario]:
        want += (cols[parent] == 1)[:, None] * deltas[f"delta_{parent}"]
        if parent == "u":
            want += (cols["u"] == 2)[:, None] * deltas["delta_u2"]
    assert np.allclose(data.x, want, rtol=0, atol=1e-9)


class RecordingGenerator:
    """A generator that keeps a copy of every array of draws it hands
    out, so a test can rebuild the features from the same draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append(np.copy(out))
            return out

        return record


def record_draws(monkeypatch):
    generators = []

    def recording_stream(*key):
        generators.append(RecordingGenerator(stream(*key)))
        return generators[-1]

    monkeypatch.setattr(simulate_module, "stream", recording_stream)
    return generators


@pytest.mark.parametrize("feature_dim", [1, 3])
@pytest.mark.parametrize("regime", list(TestRegime))
@pytest.mark.parametrize("scenario", ALL)
def test_features_equal_the_fancy_index_gather(monkeypatch, scenario, regime, feature_dim):
    # the row-block gather by flat cell gives the bytes of indexing the
    # mean table with every parent column at once; n is not a multiple
    # of the block, and the unseen regime reads u's third offset
    rng = np.random.default_rng(feature_dim)
    names = ("delta_y", "delta_u", "delta_z", "delta_v", "delta_u2")
    deltas = {name: rng.normal(size=feature_dim) for name in names}
    n = 2 * _BLOCK_ROWS + 123
    cfg = cfg_for(scenario, n, feature_dim=feature_dim, sigma=1.3, **deltas)
    generators = record_draws(monkeypatch)
    data = simulate(cfg, regime, seed=17)
    cols = {"y": data.y, **data.columns, **data.shadow}
    table = np.zeros(feature_dim)
    for parent in X_PARENTS[scenario]:
        table = table[..., None, :] + _offsets(cfg, parent)
    want = generators[0].draws[-1]  # the Gaussian draw, made last
    want *= cfg.sigma
    want += table[tuple(cols[parent] for parent in X_PARENTS[scenario])]
    assert data.x.dtype == want.dtype and data.x.tobytes() == want.tobytes()
    if regime is TestRegime.UNSEEN:
        assert (cols["u"] == 2).all()


@pytest.mark.parametrize("regime", list(TestRegime))
@pytest.mark.parametrize("scenario", ALL)
def test_discrete_features_equal_the_masked_table_rows(monkeypatch, scenario, regime):
    # each row's categorical law gathered by flat cell gives the bytes
    # of filling every parent configuration's rows by mask
    cfg = cfg_for(scenario, 5_000, x_mode="discrete", x_support=6)
    generators = record_draws(monkeypatch)
    data = simulate(cfg, regime, seed=23)
    names, tables = _discrete_tables(cfg)
    cols = {"y": data.y, **data.columns, **data.shadow}
    prob_rows = np.full((cfg.n, cfg.x_support), np.nan)
    for config, probs in tables.items():
        mask = np.ones(cfg.n, dtype=bool)
        for name, value in zip(names, config):
            mask &= cols[name] == value
        prob_rows[mask] = probs
    uniforms = generators[0].draws[-1]  # the feature's uniforms, drawn last
    want = (uniforms < np.cumsum(prob_rows, axis=1)).argmax(axis=1).astype(np.int64)
    assert data.x.dtype == want.dtype and data.x.tobytes() == want.tobytes()


def test_mechanism_shared_between_conf_and_revconf():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 100_000, x_mode="discrete")
    names, tables = _discrete_tables(cfg)
    for regime in ("conf", "revconf"):
        data = simulate(cfg, regime, seed=17)
        table = fit_conditional(
            {"x": data.x, "y": data.y, "u": data.columns["u"]},
            "x",
            given=("y", "u"),
        )
        for yv in (0, 1):
            for uv in (0, 1):
                got = np.array(
                    [table.prob(k, (yv, uv)) for k in range(cfg.x_support)]
                )
                key = tuple({"y": yv, "u": uv}[name] for name in names)
                tv = 0.5 * np.abs(got - tables[key]).sum()
                assert tv < 0.05, (regime, yv, uv, tv)


# --- exact tables ---------------------------------------------------------

def mc_interventional(cfg, y_value, n, seed):
    """Ancestral redraw with the label forced; confounders keep their
    training joint.  Independent of the summation in exact tables."""
    rng = np.random.default_rng(seed)
    y_raw = (rng.random(n) < cfg.p).astype(np.int64)
    thr = np.where(y_raw == 1, cfg.q_c, 1.0 - cfg.q_c)
    cols = {"y": np.full(n, y_value, dtype=np.int64)}
    cols["u"] = (rng.random(n) < thr).astype(np.int64)
    if cfg.scenario is ScenarioId.PARTIAL_CONF_MEDIATOR:
        thr = np.where(y_raw == 1, cfg.qp, 1.0 - cfg.qp)
        cols["v"] = (rng.random(n) < thr).astype(np.int64)
    if cfg.scenario in (
        ScenarioId.OBSERVED_CONF_MEDIATOR,
        ScenarioId.PARTIAL_CONF_MEDIATOR,
        ScenarioId.UNOBSERVED_CONF_MEDIATOR,
    ):
        r = cfg.r1 if y_value == 1 else cfg.r0
        cols["z"] = (rng.random(n) < r).astype(np.int64)
    names, tables = _discrete_tables(cfg)
    domains = [len(_offsets(cfg, p)) for p in names]
    arr = np.zeros(tuple(domains) + (cfg.x_support,))
    for config, probs in tables.items():
        arr[config] = probs
    prob_rows = arr[tuple(cols[p] for p in names)]
    cum = prob_rows.cumsum(axis=1)
    codes = (rng.random((n, 1)) < cum).argmax(axis=1)
    return np.bincount(codes, minlength=cfg.x_support) / n


@pytest.mark.parametrize("scenario", ALL)
def test_exact_interventional_matches_forced_redraw(scenario):
    cfg = cfg_for(scenario, 1, x_mode="discrete")
    table = exact_interventional(cfg)
    for y_value in (0, 1):
        approx = mc_interventional(cfg, y_value, 200_000, seed=23 + y_value)
        tv = 0.5 * np.abs(approx - table[y_value]).sum()
        assert tv < 0.02, (scenario, y_value, tv)


@pytest.mark.parametrize("scenario", ALL)
def test_exact_observational_matches_sampler(scenario):
    cfg = cfg_for(scenario, 200_000, x_mode="discrete")
    data = simulate(cfg, "conf", seed=29)
    table = exact_observational(cfg)
    for y_value in (0, 1):
        mask = data.y == y_value
        approx = np.bincount(data.x[mask], minlength=cfg.x_support) / mask.sum()
        tv = 0.5 * np.abs(approx - table[y_value]).sum()
        assert tv < 0.02, (scenario, y_value, tv)


def test_hidden_confounding_shifts_observational_law():
    cfg = cfg_for(ScenarioId.UNOBSERVED_CONF_MEDIATOR, 1, q_c=0.95, x_mode="discrete")
    doy = exact_interventional(cfg)
    obs = exact_observational(cfg)
    for y_value in (0, 1):
        tv = 0.5 * np.abs(doy[y_value] - obs[y_value]).sum()
        assert tv > 0.05


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(ALL),
    p=st.floats(0.2, 0.8),
    r0=st.floats(0.05, 0.45),
    r1=st.floats(0.55, 0.95),
    support=st.integers(2, 9),
)
def test_no_confounding_collapses_do_to_conditioning(scenario, p, r0, r1, support):
    cfg = SimConfig(
        scenario=scenario,
        n=1,
        p=p,
        q_c=0.5,
        qp_c=0.5,
        r0=r0,
        r1=r1,
        x_mode="discrete",
        x_support=support,
    )
    doy = exact_interventional(cfg)
    obs = exact_observational(cfg)
    assert doy.shape == (2, support)
    assert np.allclose(doy.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(doy, obs, atol=1e-12)


# --- validation -----------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(SimulateError, match="n must be positive"):
        cfg_for(ScenarioId.OBSERVED_CONF, 0)
    for n in (MAX_ROWS + 1, 10**20):  # rejected before any allocation
        with pytest.raises(SimulateError, match=f"at most {MAX_ROWS}"):
            cfg_for(ScenarioId.OBSERVED_CONF, n)
    with pytest.raises(SimulateError, match="q_c"):
        cfg_for(ScenarioId.OBSERVED_CONF, 10, q_c=1.5)
    for sigma in (0.0, np.inf, np.nan):
        with pytest.raises(SimulateError, match="sigma"):
            cfg_for(ScenarioId.OBSERVED_CONF, 10, sigma=sigma)
    with pytest.raises(SimulateError, match="x_mode"):
        cfg_for(ScenarioId.OBSERVED_CONF, 10, x_mode="binned")
    with pytest.raises(SimulateError, match="support"):
        cfg_for(ScenarioId.OBSERVED_CONF, 10, x_mode="discrete", x_support=1)
    # the support is capped whatever n is, before any table is built
    with pytest.raises(SimulateError, match=f"x_support must be at most {MAX_X_SUPPORT}"):
        cfg_for(ScenarioId.OBSERVED_CONF, 1, x_mode="discrete", x_support=MAX_X_SUPPORT + 1)
    widest = cfg_for(
        ScenarioId.PARTIAL_CONF_MEDIATOR, 1, x_mode="discrete", x_support=MAX_X_SUPPORT
    )
    assert 0 <= simulate(widest, TestRegime.CONF, seed=0).x[0] < MAX_X_SUPPORT
    with pytest.raises(SimulateError, match="shape"):
        cfg_for(ScenarioId.OBSERVED_CONF, 10, delta_y=np.zeros(3))
    for bad in (np.inf, -np.inf, np.nan):
        offsets = np.zeros(10)
        offsets[4] = bad
        for name in ("delta_y", "delta_u", "delta_u2"):
            with pytest.raises(SimulateError, match=f"{name} must be finite"):
                cfg_for(ScenarioId.OBSERVED_CONF, 10, **{name: offsets})
    with pytest.raises(SimulateError, match="regime"):
        simulate(cfg_for(ScenarioId.OBSERVED_CONF, 10), "shifted", seed=0)


def test_unseen_requires_third_offset():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 10, feature_dim=2)
    assert cfg.delta_u2 is None
    with pytest.raises(SimulateError, match="unseen"):
        simulate(cfg, "unseen", seed=0)


def test_scenario_specific_offsets_left_unset():
    cfg = cfg_for(ScenarioId.OBSERVED_CONF, 10)
    assert cfg.delta_z is None and cfg.delta_v is None
    cfg = cfg_for(ScenarioId.PARTIAL_CONF_MEDIATOR, 10)
    assert cfg.delta_v is not None and cfg.delta_y is None


def test_dataset_length_mismatch_rejected():
    with pytest.raises(SimulateError, match="length"):
        Dataset(
            x=np.zeros((3, 2)),
            y=np.zeros(3, dtype=np.int64),
            columns={"u": np.zeros(2, dtype=np.int64)},
            shadow={},
        )
