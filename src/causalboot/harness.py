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
* cb     - weight formula read off the pruned estimand (once per
           scenario, inside ``cb_weights``), importance weights,
           weighted resampling, then features only

Cells that cannot run are rows, not crashes: "na" where a method does
not apply (balancing without an observed confounder, extra-column
models under the unseen regime), "error: ..." where a pipeline raised.

Every random draw is keyed by (seed, purpose, cell coordinates), so
data seeds are method-independent and enlarging the grid never changes
existing cells.  That also lets ``run_experiment`` hand the second half
of its (scenario, level) pairs to a forked child (``rng._forked``) and
still return the rows a serial run gives.

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
from .rng import _forked, derive_key
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
del _TRAIN_KEYS["seed"]  # every cell trains under a seed of its own


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
    qc_grid: tuple[float, ...] | None = None
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
        if self.train.seed != TrainConfig.seed:
            raise HarnessError("train.seed has no effect; each cell trains under its own")
        if self.complexity_sweep is None:
            qc_grid = (0.65, 0.75, 0.85, 0.95) if self.qc_grid is None else self.qc_grid
            object.__setattr__(self, "qc_grid", tuple(float(q) for q in qc_grid))
        elif self.qc_grid is not None:
            raise HarnessError("qc_grid has no effect with complexity_sweep; set sim.q_c")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for name in ("scenarios", "qc_grid", "methods", "seeds"):
            values = getattr(self, name)
            if values is None:  # a sweep has no qc_grid
                continue
            if not values:
                raise HarnessError(f"{name} must be nonempty")
            _reject_repeats(name, values)
        for q in self.qc_grid or ():
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
        if self.complexity_sweep is None and "q_c" in self.sim:
            raise HarnessError("sim.q_c is set by each qc_grid level; list it there")
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
    status: str = "ok"

    def __post_init__(self):
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise HarnessError(f"auc {self.auc!r} outside [0,1]")


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))

def _sim_config(spec: ExperimentSpec, scenario, level, n) -> SimConfig:
    if spec.complexity_sweep is None:
        return SimConfig(scenario=scenario, n=n, **{**spec.sim, "q_c": level})
    # the label offset is sized only once SimConfig has checked the width
    config = SimConfig(scenario=scenario, n=n, **spec.sim)
    delta_y = np.zeros(config.feature_dim)
    delta_y[0] = level
    return dataclasses.replace(config, delta_y=delta_y)


def _error(exc) -> str:
    return "error: " + " ".join(str(exc).split())


def _method_set(scenario, level, seed, method, draw):
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


def _run_level(spec: ExperimentSpec, scenario, level) -> list[ResultRow]:
    """Every (method, seed) cell of one scenario and level.

    Each seed's training draw is simulated once, feeds every method's
    training set and is released before the next seed's draw.  The sets
    wait to train and train together in one pass before a new set would
    take them past ``_STACK_BYTES`` of features, as soon as they reach
    it, and at the end of the level.  So a level holds one draw, one new
    set, at most ``_STACK_BYTES`` of waiting features and its models.
    Each (seed, regime) test draw is then simulated once and scored by
    every model trained on that seed.  A cell that fails gets its own
    "error: ..." rows and leaves the rest of its stack alone.
    """
    rows: list[ResultRow] = []

    def report(method, seed, regime, auc=None, status="ok"):
        rows.append(
            ResultRow(
                scenario.value, method.value, level, regime.value, seed, auc,
                spec.n_train, status=status,
            )
        )

    def fail(method, seed, status):
        for regime in TestRegime:
            report(method, seed, regime, status=status)

    runnable = list(spec.methods)
    if MethodId.DA in runnable and "u" not in OBSERVED_COLUMNS[scenario]:
        runnable.remove(MethodId.DA)  # no observed confounder to balance
        for seed in spec.seeds:
            fail(MethodId.DA, seed, "na")
    if not runnable:
        return rows

    models, waiting, waiting_bytes = {}, [], 0

    def train_waiting():
        nonlocal waiting_bytes
        if waiting:
            keys, sets, configs = zip(*waiting)
            waiting.clear()
            waiting_bytes = 0
            models.update(zip(keys, _train_sets(sets, configs)))

    for seed in spec.seeds:
        try:
            draw = simulate(
                _sim_config(spec, scenario, level, spec.n_train),
                TestRegime.CONF,
                derive_key(seed, "data", "train", scenario.value, repr(level)),
            )
        except CausalBootError as exc:
            for method in runnable:
                fail(method, seed, _error(exc))
            continue
        for method in runnable:
            try:
                x, y = _method_set(scenario, level, seed, method, draw)
            except CausalBootError as exc:
                fail(method, seed, _error(exc))
                continue
            if waiting and waiting_bytes + x.nbytes > _STACK_BYTES:
                train_waiting()
            key = derive_key(seed, "train", method.value, scenario.value, repr(level))
            config = dataclasses.replace(spec.train, seed=key)
            waiting.append(((seed, method), (x, y), config))
            waiting_bytes += x.nbytes
            del x, y  # a set that trains at once is not kept for the next
            if waiting_bytes >= _STACK_BYTES:
                train_waiting()
        del draw
    train_waiting()

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
    """All grid cells, canonically sorted, so the rows are deterministic
    for a given spec.

    The (scenario, level) pairs are split in their grid order by
    ``rng._forked``: this process runs the first half, rounded up, while
    a forked child runs the rest, or this process runs them all where
    there is no child.  Either way each row is written as one JSON list
    a line and read back; JSON writes floats by repr, so each reads back
    as the same float.  Every cell's draws are keyed by its own
    coordinates, so the rows are the same either way.
    """
    import json  # here, so importing the package does not pay for it

    pairs = [(scenario, level) for scenario in spec.scenarios for level in spec.levels]

    def spill_rows(out, lo: int, hi: int) -> None:
        for pair in pairs[lo:hi]:
            for row in _run_level(spec, *pair):
                out.write(json.dumps(dataclasses.astuple(row)) + "\n")

    lines = io.StringIO()
    _forked(spill_rows, len(pairs), lines)
    lines.seek(0)
    rows = [ResultRow(*json.loads(line)) for line in lines]
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
    sweep = spec.complexity_sweep is not None
    lines = []
    for key, _, listed in _SPEC_KEYS:
        if key == ("qc_grid" if sweep else "complexity_sweep"):
            continue  # the level axis is one or the other
        value = getattr(spec, key)
        lines.append(f"{key}=" + ",".join(map(_text, value if listed else [value])))
    for name in _SIM_KEYS:
        if name not in spec.sim and (name == "qp_c" or (name == "q_c" and not sweep)):
            continue  # each qc_grid level sets q_c, and an unset qp_c follows it
        value = spec.sim.get(name, getattr(SimConfig, name))
        lines.append(f"sim.{name}={_text(value)}")
    for name in _TRAIN_KEYS:
        lines.append(f"train.{name}={_text(getattr(spec.train, name))}")
    return "\n".join(lines) + "\n"
