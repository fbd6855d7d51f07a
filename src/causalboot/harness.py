"""Experiment grid: scenarios x bias levels x methods x regimes x seeds.

Each cell trains one model on a confounded draw and scores it on all
four test regimes.  The cells of one (scenario, level) share their
draws: each seed's training draw is simulated once and feeds every
method, each (seed, regime) test draw is simulated once and scored by
every method's model, and the models train together in stacked numpy
passes (as by ``model.train_many``), each bit-for-bit the model trained
alone.  Method pipelines:

* simple - features only, trained on the raw draw
* if     - features plus the scenario's observed confounder and
           mediator columns, available at test time too
* da     - stratified upsampling to balance the observed confounder,
           then features only
* cb     - identification check (once per scenario, inside
           ``cb_weights``), importance weights, weighted resampling,
           then features only

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
from enum import Enum
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
from .graph import OBSERVED_COLUMNS, GraphError, ScenarioId
from .model import (
    ModelError,
    TrainConfig,
    auc,
    _train_sets,
    predict_proba,
    training_set,
)
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


_REGIME_ORDER = {r: i for i, r in enumerate(TestRegime)}

# The most feature bytes waiting to train in one stack.  A set joins
# the stack as soon as it is built, so a grid holds at most this much
# beyond training one model at a time: grids of small draws train many
# models per pass, and a set this large trains alone, at once.
_STACK_BYTES = 32 << 20

# The grid keys of a spec file, in the order spec.resolved.txt writes
# them: (key, type, listed), where a listed key holds comma-separated values.
_SPEC_KEYS = (
    ("scenarios", str, True),
    ("qc_grid", float, True),
    ("methods", str, True),
    ("seeds", int, True),
    ("n_train", int, False),
    ("n_test", int, False),
    ("complexity_sweep", float, True),
)

# The knobs of TrainConfig, each typed by its default: what a spec file's
# train.* keys may set, in the order spec.resolved.txt writes them.
_TRAIN_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}


def _reject_repeats(name: str, values) -> None:
    """A grid axis names each value once: a repeat would run its cells
    twice and pair each seed's models with the wrong test draws."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        shown = getattr(repeated[0], "value", repeated[0])
        raise HarnessError(f"{name} lists {shown!r} more than once")


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
            values = getattr(self, name)
            if not values:
                raise HarnessError(f"{name} must be nonempty")
            _reject_repeats(name, values)
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
            _reject_repeats("complexity_sweep", sweep)
            object.__setattr__(self, "complexity_sweep", sweep)
        try:
            for scenario in self.scenarios:
                for level in self.levels:
                    _sim_config(self, scenario, level, max(self.n_train, self.n_test))
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


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))

# How read_results parses each column of results.csv, in ResultRow's order.
_COLUMN_PARSERS = (
    str, str, float, str, int, lambda s: None if s == "" else float(s), int, int, str
)


def _sim_config(spec: ExperimentSpec, scenario, level, n) -> SimConfig:
    if spec.complexity_sweep is None:
        return SimConfig(scenario=scenario, n=n, **{**spec.sim, "q_c": level})
    # the label offset is sized only once SimConfig has checked the width
    config = SimConfig(scenario=scenario, n=n, **spec.sim)
    delta_y = np.zeros(config.feature_dim)
    delta_y[0] = level
    return dataclasses.replace(config, delta_y=delta_y)


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


def _method_set(spec, scenario, level, seed, method, draw):
    """One method's checked (features, labels), built from a seed's
    training draw."""
    data = draw
    if method is MethodId.CB:
        table = cb_weights(draw.weight_columns(), scenario)
        key = derive_key(seed, "resample", scenario.value, repr(level))
        data = cb_resample(draw, table, ResampleConfig(seed=key))
    elif method is MethodId.DA:
        key = derive_key(seed, "balance", scenario.value, repr(level))
        data = da_resample(draw, key)
    return training_set(select_features(data, method, scenario), data.y)


class _Stacks:
    """Training sets waiting to train, trained in one pass whenever the
    next set would take them past ``_STACK_BYTES`` of features; a set
    that fills a stack on its own trains at once."""

    def __init__(self):
        self.models: dict = {}
        self._waiting: list = []
        self._bytes = 0

    def add(self, key, x, y, config) -> None:
        if self._waiting and self._bytes + x.nbytes > _STACK_BYTES:
            self.flush()
        self._waiting.append((key, (x, y), config))
        self._bytes += x.nbytes
        if self._bytes >= _STACK_BYTES:
            self.flush()

    def flush(self) -> None:
        if not self._waiting:
            return
        keys, sets, configs = zip(*self._waiting)
        self._waiting.clear()
        self._bytes = 0
        self.models.update(zip(keys, _train_sets(sets, configs)))


def _stage_seed(spec, scenario, level, seed, stacks) -> dict:
    """Builds every method's training set for one seed from one training
    draw, handing each to ``stacks`` as soon as it is built, so that no
    more than the draw, one new set and the waiting stack are held.
    Returns the status of each cell that cannot train."""
    failed: dict = {}
    runnable = []
    for method in spec.methods:
        if method is MethodId.DA and "u" not in OBSERVED_COLUMNS[scenario]:
            failed[method] = "na"
        else:
            runnable.append(method)
    if not runnable:
        return failed
    try:
        data_seed = derive_key(seed, "data", "train", scenario.value, repr(level))
        draw = simulate(
            _sim_config(spec, scenario, level, spec.n_train),
            TestRegime.CONF,
            data_seed,
        )
    except CausalBootError as exc:
        return {**failed, **{method: _error(exc) for method in runnable}}
    for method in runnable:
        try:
            x, y = _method_set(spec, scenario, level, seed, method, draw)
        except CausalBootError as exc:
            failed[method] = _error(exc)
            continue
        train_seed = derive_key(
            seed, "train", method.value, scenario.value, repr(level)
        )
        config = dataclasses.replace(spec.train, seed=train_seed)
        stacks.add((seed, method), x, y, config)
        del x, y  # a set that trained at once is not kept for the next
    return failed


def _run_level(spec: ExperimentSpec, scenario, level) -> list[ResultRow]:
    """Every (method, seed) cell of one scenario and level.

    Each seed's training draw is simulated once and feeds every method's
    training set.  The sets are trained together, in stacks of at most
    ``_STACK_BYTES`` of features, and each (seed, regime) test draw is
    simulated once and scored by every model trained on that seed.  A
    cell that fails gets its own "error: ..." rows and leaves the rest
    of its stack alone.
    """
    rows: list[ResultRow] = []

    def report(method, seed, regime, auc=None, status="ok"):
        rows.append(
            _row(scenario, method, level, regime, seed, spec.n_train, auc, status)
        )

    stacks = _Stacks()
    for seed in spec.seeds:
        failed = _stage_seed(spec, scenario, level, seed, stacks)
        for method, status in failed.items():
            for regime in TestRegime:
                report(method, seed, regime, status=status)
    stacks.flush()
    models = stacks.models

    for seed in spec.seeds:
        for regime in TestRegime:
            scored = []
            for method in spec.methods:
                if (seed, method) not in models:
                    continue
                if method is MethodId.IF and regime is TestRegime.UNSEEN:
                    report(method, seed, regime, status="na")
                else:
                    scored.append(method)
            if not scored:
                continue
            try:
                test_seed = derive_key(
                    seed, "data", "test", scenario.value, repr(level), regime.value
                )
                test_data = simulate(
                    _sim_config(spec, scenario, level, spec.n_test), regime, test_seed
                )
            except CausalBootError as exc:
                for method in scored:
                    report(method, seed, regime, status=_error(exc))
                continue
            for method in scored:
                try:
                    features = select_features(test_data, method, scenario)
                    scores = predict_proba(models[seed, method], features)
                    value = auc(scores, test_data.y)
                except CausalBootError as exc:
                    report(method, seed, regime, status=_error(exc))
                else:
                    report(method, seed, regime, value)
    return rows


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """All grid cells, run one (scenario, level) after another and
    canonically sorted, so the rows are deterministic for a given spec."""
    rows = []
    for scenario in spec.scenarios:
        for level in spec.levels:
            rows += _run_level(spec, scenario, level)
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

def _text(value) -> str:
    """A results.csv cell or a spec.resolved.txt value: floats by repr, so
    reruns are byte-identical, enums by value, and None as empty."""
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_results(rows, path) -> None:
    """Fixed-header CSV, one ResultRow field per column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(map(_text, dataclasses.astuple(row)))
    with open(path, "w", newline="") as fh:
        fh.write(buffer.getvalue())


def read_results(path) -> list[ResultRow]:
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
        key: (pop_list if listed else pop_value)(key, kind)
        for key, kind, listed in _SPEC_KEYS
        if key in values
    }
    if "scenarios" not in kwargs:
        raise HarnessError("spec needs a scenarios= line")

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
    lines = []
    for key, _, listed in _SPEC_KEYS:
        value = getattr(spec, key)
        if value is not None:  # complexity_sweep is None outside sweep mode
            lines.append(f"{key}=" + ",".join(map(_text, value if listed else [value])))
    for name in _SIM_KEYS:
        if name in ("q_c", "qp_c") and name not in spec.sim:
            continue  # q_c is grid-controlled, and qp_c follows it
        value = spec.sim.get(name, getattr(SimConfig, name))
        lines.append(f"sim.{name}={_text(value)}")
    for name in _TRAIN_KEYS:
        lines.append(f"train.{name}={_text(getattr(spec.train, name))}")
    return "\n".join(lines) + "\n"
