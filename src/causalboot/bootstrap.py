"""Weighted resampling that emulates drawing features under a forced label.

Each scenario admits per-sample weights w_n(c) such that resampling row n
with probability proportional to w_n(c), then relabeling it to c, draws
from the interventional feature law for class c.  Every scenario's weight
has one shape,

    w_n(c) = P(t_n | y=c) / (N P(t_n | G_n)),

where t is the label or the mediator and G is the set of columns the
formula conditions on:

    scenario                             t    G
    a  observed confounder               y    u
    b  observed confounder + mediator    z    u
    c  partially observed confounder     z    y, u
    d  unobserved confounder             z    y
    e  biased care level                 y    u

With t = y the numerator is the indicator 1[y_n = c].  In scenario e the
care factors P(d | y, u) of numerator and denominator agree on every row
that carries weight, so they cancel and the care column is never read.

The weights are licensed only where P(x | do(y)) is identifiable in
the scenario's graph: ``cb_weights`` checks that once per scenario per
process and raises ``NotIdentifiedError`` (exit code 2) otherwise.

All conditionals are plug-in frequency tables (optionally smoothed); the
indicator numerator is exact and never smoothed.  Class weight columns
sum to 1 exactly when every cell the formula touches has samples; missing
cells leave mass unclaimed and clear the normalized flag.

Also here: stratified upsampling to balance an observed confounder
within each label (the classical alternative), and the feature
selectors that decide which observed columns a model may see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Mapping

import numpy as np

from .errors import CausalBootError
from .estimate import (
    EstimateError,
    KernelSpec,
    ZeroSupportError,
    fit_conditional,
    silverman_bandwidth,
)
from .graph import X_ANCESTOR_COLUMNS, ScenarioId, scenario_graph
from .identify import EstimandError, Unidentifiable, identify
from .rng import stream
from .simulate import Dataset


class BootstrapError(CausalBootError):
    """Invalid resampling request."""


class NotIdentifiedError(EstimandError):
    """P(x | do(y)) is not identifiable in the scenario's graph; the
    message is the hedge witness."""

    exit_code = 2


class MethodId(Enum):
    CB = "cb"
    DA = "da"
    SIMPLE = "simple"
    IF = "if"

    @classmethod
    def coerce(cls, value) -> "MethodId":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            low = value.lower()
            for member in cls:
                if low in (member.value, member.name.lower()):
                    return member
        raise BootstrapError(f"unknown method {value!r}")


# (t, G) of each scenario's weight formula; see the module docstring.
_WEIGHT_FORMS = {
    ScenarioId.OBSERVED_CONF: ("y", ("u",)),
    ScenarioId.OBSERVED_CONF_MEDIATOR: ("z", ("u",)),
    ScenarioId.PARTIAL_CONF_MEDIATOR: ("z", ("y", "u")),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: ("z", ("y",)),
    ScenarioId.BIASED_CARE: ("y", ("u",)),
}


@cache
def _x_under_do_y(scenario: ScenarioId):
    """The outcome of identifying X under do(Y) in the scenario's
    graph, computed once per scenario per process."""
    return identify(scenario_graph(scenario), ("X",), ("Y",))


@dataclass(frozen=True)
class WeightTable:
    """Per-sample resampling weights, one column per target class."""

    weights: np.ndarray
    classes: tuple[int, ...]
    normalized: bool

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != len(self.classes):
            raise BootstrapError(
                f"weights must be (n, {len(self.classes)}), got {w.shape}"
            )
        if len(set(self.classes)) != len(self.classes):
            raise BootstrapError("classes must be distinct")
        if np.any(w < 0):
            raise BootstrapError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    def column(self, c: int) -> np.ndarray:
        try:
            k = self.classes.index(c)
        except ValueError:
            raise BootstrapError(f"no weight column for class {c!r}") from None
        return self.weights[:, k]


def cb_weights(
    columns: Mapping[str, np.ndarray],
    scenario,
    alpha: float = 0.0,
) -> WeightTable:
    """Importance weights for every class, from observed columns only.
    Raises ``NotIdentifiedError`` where the scenario's graph does not
    license them."""
    scenario = ScenarioId.coerce(scenario)
    outcome = _x_under_do_y(scenario)
    if isinstance(outcome, Unidentifiable):
        raise NotIdentifiedError(outcome.witness)
    target, given = _WEIGHT_FORMS[scenario]
    needed = tuple(dict.fromkeys(("y", *given, target)))
    missing = [name for name in needed if name not in columns]
    if missing:
        raise EstimateError(
            f"scenario {scenario.value!r} needs columns "
            f"{', '.join(needed)}; missing {', '.join(missing)}"
        )
    cols = {name: np.asarray(columns[name]) for name in needed}
    y, t = cols["y"], cols[target]
    n = len(y)
    classes = tuple(int(c) for c in np.unique(y))

    # P(t | y) for the numerator, none when t is the label itself; where
    # G is the label alone the denominator reads the same table
    t_num = None
    if target != "y":
        t_num = fit_conditional(cols, target, ("y",), alpha=alpha)
    t_den = t_num
    if given != ("y",):
        t_den = fit_conditional(cols, target, given, alpha=alpha)
    den = n * t_den.prob_rows(t, [cols[name] for name in given])
    out = np.zeros((n, len(classes)))
    for k, c in enumerate(classes):
        num = y == c if t_num is None else t_num.prob_rows(t, (np.full(n, c),))
        out[:, k] = num / den

    sums = out.sum(axis=0)
    normalized = bool(np.allclose(sums, 1.0, atol=1e-9))
    return WeightTable(weights=out, classes=classes, normalized=normalized)


@dataclass(frozen=True)
class ResampleConfig:
    seed: int
    kernel: KernelSpec = field(default_factory=KernelSpec.delta)


def cb_resample(
    data: Dataset, table: WeightTable, config: ResampleConfig
) -> Dataset:
    """Draw the debiased training set.

    For each class c, as many rows as are labelled c are drawn with
    replacement with probability proportional to that class's weight
    column, then relabeled to c.  Features are copied as-is (delta
    kernel) or get Gaussian jitter (smoothing kernel).  Every input
    column, observed or hidden, is carried into the output as a shadow
    column: the resampled set exposes only features and labels for
    training.
    """
    n = data.n
    if len(table.weights) != n:
        raise BootstrapError("weight table and dataset sizes differ")

    jitter = None
    if config.kernel.kind == "gaussian":
        if np.issubdtype(data.x.dtype, np.integer):
            raise BootstrapError("gaussian kernel needs real-valued features")
        jitter = config.kernel.bandwidth
        if jitter is None:
            jitter = silverman_bandwidth(data.x)

    carried = {**data.columns, **data.shadow}
    x_parts, y_parts, carry_parts = [], [], {name: [] for name in carried}
    for c in table.classes:
        w = table.column(c)
        total = w.sum()
        if total <= 0.0:
            raise ZeroSupportError(
                f"no samples carry weight for class {c}; cannot resample"
            )
        count = int((data.y == c).sum())
        rng = stream(config.seed, "resample", c)
        idx = rng.choice(n, size=count, replace=True, p=w / total)
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


def da_resample(data: Dataset, seed: int) -> Dataset:
    """Balance the observed confounder within each label by upsampling
    every (y, u) stratum to its label's largest stratum."""
    if "u" not in data.columns:
        raise EstimateError("balancing needs an observed confounder column 'u'")
    if data.n == 0:
        raise EstimateError("empty dataset")
    y, u = data.y, data.columns["u"]
    y_values = [int(v) for v in np.unique(y)]
    u_values = [int(v) for v in np.unique(u)]
    carried = {**data.columns, **data.shadow}

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


def select_features(data: Dataset, method, scenario) -> np.ndarray:
    """Feature matrix a model may train on.

    Resampling methods and the plain baseline see features only; the
    conditioning baseline additionally sees the scenario's observed
    confounder and mediator columns.  Hidden columns are never exposed.
    """
    method = MethodId.coerce(method)
    scenario = ScenarioId.coerce(scenario)
    x = np.asarray(data.x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if method is not MethodId.IF:
        return x
    extras = []
    for name in X_ANCESTOR_COLUMNS[scenario]:
        if name not in data.columns:
            raise EstimateError(
                f"conditioning features need observed column {name!r}"
            )
        extras.append(np.asarray(data.columns[name], dtype=float))
    return np.column_stack([x, *extras])
