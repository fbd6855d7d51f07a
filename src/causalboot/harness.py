"""Experiment grid: scenarios x bias levels x methods x regimes x seeds.

Each cell trains one model on a confounded draw and scores it on all
four test regimes.  Method pipelines:

* simple - features only, trained on the raw draw
* if     - features plus the scenario's observed confounder and
           mediator columns, available at test time too
* da     - stratified upsampling to balance the observed confounder,
           then features only
* cb     - identification check, importance weights, weighted
           resampling, then features only

Cells that cannot run are rows, not crashes: "na" where a method does
not apply (balancing without an observed confounder, extra-column
models under the unseen regime), "error: ..." where a pipeline raised.

Every random draw is keyed by (seed, purpose, cell coordinates), so
data seeds are method-independent and enlarging the grid never changes
existing cells.  Wall time is reported as 0: timing is hardware noise
and would break byte-identical reruns.

In sweep mode the grid's level axis carries the label-offset norm
instead of the confounder strength, which stays at its configured
value; the level column of the output holds that norm.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .bootstrap import (
    BootstrapError,
    MethodId,
    ResampleConfig,
    cb_resample,
    cb_weights,
    da_resample,
    select_features,
)
from .errors import CausalBootError
from .graph import OBSERVED_COLUMNS, GraphError, ScenarioId, scenario_graph
from .identify import EstimandError, Unidentifiable, identify
from .model import ModelError, TrainConfig, auc, predict_proba, train
from .rng import derive_key
from .simulate import (
    _SIM_KEYS,
    MAX_ROWS,
    SimConfig,
    SimulateError,
    TestRegime,
    simulate,
)


class HarnessError(CausalBootError):
    """Invalid experiment definition."""

    exit_code = 2


CSV_HEADER = (
    "scenario,method,qc,regime,seed,auc,n_train,wall_time_ms,status"
)

_REGIME_ORDER = {r: i for i, r in enumerate(TestRegime)}

# The knobs of TrainConfig, each typed by its default: what a spec file's
# train.* keys may set, in the order spec.resolved.txt writes them.
_TRAIN_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}


@dataclass(frozen=True)
class ExperimentSpec:
    scenarios: tuple[ScenarioId, ...]
    qc_grid: tuple[float, ...] = (0.65, 0.75, 0.85, 0.95)
    methods: tuple[MethodId, ...] = (
        MethodId.SIMPLE,
        MethodId.IF,
        MethodId.DA,
        MethodId.CB,
    )
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_train: int = 2000
    n_test: int = 2000
    sim: Mapping[str, object] = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    complexity_sweep: tuple[float, ...] | None = None

    def __post_init__(self):
        try:
            scenarios = tuple(ScenarioId.coerce(s) for s in self.scenarios)
            methods = tuple(MethodId.coerce(m) for m in self.methods)
        except (GraphError, BootstrapError) as exc:
            raise HarnessError(str(exc)) from None
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "qc_grid", tuple(float(q) for q in self.qc_grid))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for name in ("scenarios", "qc_grid", "methods", "seeds"):
            if not getattr(self, name):
                raise HarnessError(f"{name} must be nonempty")
        for q in self.qc_grid:
            if not 0.0 <= q <= 1.0:
                raise HarnessError(f"qc value {q!r} outside [0,1]")
        if not (1 <= self.n_train <= MAX_ROWS and 1 <= self.n_test <= MAX_ROWS):
            raise HarnessError(
                f"n_train and n_test must be positive and at most {MAX_ROWS}"
            )
        object.__setattr__(self, "sim", dict(self.sim))
        unknown = set(self.sim) - set(_SIM_KEYS)
        if unknown:
            raise HarnessError(f"unknown sim overrides {sorted(unknown)}")
        if self.complexity_sweep is not None:
            sweep = tuple(float(v) for v in self.complexity_sweep)
            if not sweep or not all(0 < v < np.inf for v in sweep):
                raise HarnessError("complexity_sweep needs finite positive values")
            object.__setattr__(self, "complexity_sweep", sweep)
        try:
            for scenario in self.scenarios:
                for level in self.levels:
                    _sim_config(self, scenario, level, self.n_train)
        except SimulateError as exc:
            raise HarnessError(f"spec sim settings: {exc}") from None

    @property
    def levels(self) -> tuple[float, ...]:
        """The grid's level axis: offset norms in sweep mode, else q_c."""
        if self.complexity_sweep is not None:
            return self.complexity_sweep
        return self.qc_grid


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    method: str
    qc: float
    regime: str
    seed: int
    auc: float | None
    n_train: int
    wall_time_ms: int = 0
    status: str = "ok"

    def __post_init__(self):
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise HarnessError(f"auc {self.auc!r} outside [0,1]")


def _sim_config(spec: ExperimentSpec, scenario, level, n) -> SimConfig:
    kw = dict(spec.sim)
    if spec.complexity_sweep is not None:
        dim = int(kw.get("feature_dim", SimConfig.feature_dim))
        delta_y = np.zeros(dim)
        delta_y[0] = level
        kw["delta_y"] = delta_y
    else:
        kw["q_c"] = level
    return SimConfig(scenario=scenario, n=n, **kw)


def _row(scenario, method, level, regime, seed, n_train, auc=None, status="ok"):
    return ResultRow(
        scenario=scenario.value,
        method=method.value,
        qc=level,
        regime=regime.value,
        seed=seed,
        auc=auc,
        n_train=n_train,
        status=status,
    )


def _error(exc) -> str:
    return "error: " + " ".join(str(exc).split())


def _run_cell(spec: ExperimentSpec, scenario, method, level, seed):
    """Train once, score on all four regimes."""
    cell = (scenario, method, level)
    if method is MethodId.DA and "u" not in OBSERVED_COLUMNS[scenario]:
        return [
            _row(*cell, regime, seed, spec.n_train, status="na")
            for regime in TestRegime
        ]
    try:
        data_seed = derive_key(seed, "data", "train", scenario.value, repr(level))
        train_data = simulate(
            _sim_config(spec, scenario, level, spec.n_train),
            TestRegime.CONF,
            data_seed,
        )

        if method is MethodId.CB:
            outcome = identify(scenario_graph(scenario), ("X",), ("Y",))
            if isinstance(outcome, Unidentifiable):
                raise EstimandError(outcome.witness)
            table = cb_weights(train_data.weight_columns(), scenario)
            method_seed = derive_key(seed, "resample", scenario.value, repr(level))
            train_data = cb_resample(
                train_data, table, ResampleConfig(seed=method_seed)
            )
        elif method is MethodId.DA:
            method_seed = derive_key(seed, "balance", scenario.value, repr(level))
            train_data = da_resample(train_data, method_seed)

        feats = select_features(train_data, method, scenario)
        train_seed = derive_key(
            seed, "train", method.value, scenario.value, repr(level)
        )
        cfg = dataclasses.replace(spec.train, seed=train_seed)
        model = train(feats, train_data.y, cfg)
    except CausalBootError as exc:
        return [
            _row(*cell, regime, seed, spec.n_train, status=_error(exc))
            for regime in TestRegime
        ]

    rows = []
    for regime in TestRegime:
        if method is MethodId.IF and regime is TestRegime.UNSEEN:
            rows.append(_row(*cell, regime, seed, spec.n_train, status="na"))
            continue
        try:
            test_seed = derive_key(
                seed, "data", "test", scenario.value, repr(level), regime.value
            )
            test_data = simulate(
                _sim_config(spec, scenario, level, spec.n_test), regime, test_seed
            )
            scores = predict_proba(model, select_features(test_data, method, scenario))
            value = auc(scores, test_data.y)
        except CausalBootError as exc:
            status = _error(exc)
            rows.append(_row(*cell, regime, seed, spec.n_train, status=status))
        else:
            rows.append(_row(*cell, regime, seed, spec.n_train, value))
    return rows


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """All grid cells, run one after another and canonically sorted, so
    the rows are deterministic for a given spec."""
    rows = [
        row
        for scenario in spec.scenarios
        for method in spec.methods
        for level in spec.levels
        for seed in spec.seeds
        for row in _run_cell(spec, scenario, method, level, seed)
    ]
    rows.sort(
        key=lambda r: (
            r.scenario,
            r.method,
            r.qc,
            _REGIME_ORDER[TestRegime.coerce(r.regime)],
            r.seed,
        )
    )
    return rows


# --- persistence -------------------------------------------------------------

def _format_row(row: ResultRow) -> list[str]:
    return [
        row.scenario,
        row.method,
        repr(row.qc),
        row.regime,
        str(row.seed),
        "" if row.auc is None else repr(row.auc),
        str(row.n_train),
        str(row.wall_time_ms),
        row.status,
    ]


def write_results(rows, path) -> None:
    """Fixed-header CSV; floats via repr so reruns are byte-identical."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(_format_row(row))
    with open(path, "w", newline="") as fh:
        fh.write(buffer.getvalue())


def read_results(path) -> list[ResultRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER.split(","):
            raise HarnessError(f"unexpected results header {header!r}")
        rows = []
        for record in reader:
            rows.append(
                ResultRow(
                    scenario=record[0],
                    method=record[1],
                    qc=float(record[2]),
                    regime=record[3],
                    seed=int(record[4]),
                    auc=None if record[5] == "" else float(record[5]),
                    n_train=int(record[6]),
                    wall_time_ms=int(record[7]),
                    status=record[8],
                )
            )
    return rows


# --- flat key=value spec files ------------------------------------------------

def parse_spec_text(text: str) -> ExperimentSpec:
    """Flat key=value format; lists comma-separated; # starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise HarnessError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    def convert(key, raw, kind):
        try:
            return kind(raw)
        except ValueError:
            raise HarnessError(f"spec key {key!r}: bad value {raw!r}") from None

    def pop_value(key, kind):
        return convert(key, values.pop(key), kind)

    def pop_list(key, kind):
        items = [item.strip() for item in values.pop(key).split(",")]
        return [convert(key, item, kind) for item in items if item]

    kwargs: dict = {
        key: pop_list(key, kind)
        for key, kind in (
            ("scenarios", str),
            ("qc_grid", float),
            ("seeds", int),
            ("methods", str),
            ("complexity_sweep", float),
        )
        if key in values
    }
    if "scenarios" not in kwargs:
        raise HarnessError("spec needs a scenarios= line")
    for key in ("n_train", "n_test"):
        if key in values:
            kwargs[key] = pop_value(key, int)

    sim: dict[str, object] = {}
    train_kw: dict[str, object] = {}
    for key in list(values):
        if key.startswith("sim."):
            name = key[4:]
            if name not in _SIM_KEYS:
                raise HarnessError(f"unknown spec key {key!r}")
            sim[name] = pop_value(key, _SIM_KEYS[name])
        elif key.startswith("train."):
            name = key[6:]
            if name not in _TRAIN_KEYS:
                raise HarnessError(f"unknown spec key {key!r}")
            train_kw[name] = pop_value(key, _TRAIN_KEYS[name])
    if values:
        raise HarnessError(f"unknown spec keys {sorted(values)}")

    if sim:
        kwargs["sim"] = sim
    if train_kw:
        try:
            kwargs["train"] = TrainConfig(**train_kw)
        except ModelError as exc:
            raise HarnessError(f"spec train settings: {exc}") from None
    return ExperimentSpec(**kwargs)


def resolved_spec_text(spec: ExperimentSpec) -> str:
    """Every knob written out, defaults included, in a fixed order."""
    lines = [
        "scenarios=" + ",".join(s.value for s in spec.scenarios),
        "qc_grid=" + ",".join(repr(q) for q in spec.qc_grid),
        "methods=" + ",".join(m.value for m in spec.methods),
        "seeds=" + ",".join(str(s) for s in spec.seeds),
        f"n_train={spec.n_train}",
        f"n_test={spec.n_test}",
    ]
    if spec.complexity_sweep is not None:
        lines.append(
            "complexity_sweep=" + ",".join(repr(v) for v in spec.complexity_sweep)
        )
    for name in _SIM_KEYS:
        if name in ("q_c", "qp_c") and name not in spec.sim:
            continue  # q_c is grid-controlled, and qp_c follows it
        lines.append(f"sim.{name}={spec.sim.get(name, getattr(SimConfig, name))}")
    for name in _TRAIN_KEYS:
        value = getattr(spec.train, name)
        lines.append(f"train.{name}={value}")
    return "\n".join(lines) + "\n"
