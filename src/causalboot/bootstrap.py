"""Weighted resampling that emulates drawing features under a forced label.

Each scenario admits per-sample weights w_n(c) such that resampling row n
with probability proportional to w_n(c), then relabeling it to c, draws
from the interventional feature law for class c:

* observed confounder:            1[y_n = c] / (N P(y=c | u_n))
* observed confounder + mediator: P(z_n | y=c) / (N P(z_n | u_n))
* partially observed confounder:  P(z_n | y=c) / (N P(z_n | y_n, u_n))
* unobserved confounder:          P(z_n | y=c) / (N P(z_n | y_n))
* biased care level:              the care factors cancel exactly, so the
  weights reduce to the observed-confounder case; the reduction is
  asserted numerically at estimation time.

All conditionals are plug-in frequency tables (optionally smoothed).
Class weight columns sum to 1 exactly when every cell the formula
touches has samples; missing cells leave mass unclaimed and clear the
normalized flag.

Also here: stratified upsampling to balance an observed confounder
within each label (the classical alternative), and the feature
selectors that decide which observed columns a model may see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .estimate import (
    EstimateError,
    KernelSpec,
    ZeroSupportError,
    fit_conditional,
    silverman_bandwidth,
)
from .graph import ScenarioId
from .rng import stream
from .simulate import Dataset


class BootstrapError(ValueError):
    """Invalid resampling request."""


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


_REQUIRED_COLS = {
    ScenarioId.OBSERVED_CONF: ("y", "u"),
    ScenarioId.OBSERVED_CONF_MEDIATOR: ("y", "u", "z"),
    ScenarioId.PARTIAL_CONF_MEDIATOR: ("y", "u", "z"),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: ("y", "z"),
    ScenarioId.BIASED_CARE: ("y", "u", "d"),
}

# Observed columns a model may use alongside X when told to condition on
# everything in sight.
_IF_COLS = {
    ScenarioId.OBSERVED_CONF: ("u",),
    ScenarioId.OBSERVED_CONF_MEDIATOR: ("u", "z"),
    ScenarioId.PARTIAL_CONF_MEDIATOR: ("u", "z"),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: ("z",),
    ScenarioId.BIASED_CARE: ("u",),
}


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


def _pull(columns: Mapping[str, np.ndarray], scenario: ScenarioId) -> dict:
    missing = [c for c in _REQUIRED_COLS[scenario] if c not in columns]
    if missing:
        raise EstimateError(
            f"scenario {scenario.value!r} needs columns "
            f"{', '.join(_REQUIRED_COLS[scenario])}; missing {', '.join(missing)}"
        )
    return {name: np.asarray(columns[name]) for name in _REQUIRED_COLS[scenario]}


def cb_weights(
    columns: Mapping[str, np.ndarray],
    scenario,
    alpha: float = 0.0,
) -> WeightTable:
    """Importance weights for every class, from observed columns only."""
    scenario = ScenarioId.coerce(scenario)
    cols = _pull(columns, scenario)
    y = cols["y"]
    n = len(y)
    classes = tuple(int(c) for c in np.unique(y))
    out = np.zeros((n, len(classes)))

    if scenario in (ScenarioId.OBSERVED_CONF, ScenarioId.BIASED_CARE):
        u = cols["u"]
        t_y = fit_conditional({"y": y, "u": u}, "y", ("u",), alpha=alpha)
        for k, c in enumerate(classes):
            mask = y == c
            den = t_y.prob_rows(np.full(mask.sum(), c), (u[mask],))
            out[mask, k] = 1.0 / (n * den)
        if scenario is ScenarioId.BIASED_CARE:
            d = cols["d"]
            t_d = fit_conditional(
                {"d": d, "y": y, "u": u}, "d", ("y", "u"), alpha=alpha
            )
            for k, c in enumerate(classes):
                mask = y == c
                num = t_d.prob_rows(d[mask], (np.full(mask.sum(), c), u[mask]))
                den = t_d.prob_rows(d[mask], (y[mask], u[mask]))
                # forced and observed labels agree on these rows, so the
                # care factors cancel and the weights match the plain
                # observed-confounder case
                assert np.allclose(num, den, atol=1e-12)
    else:
        z = cols["z"]
        t_zy = fit_conditional({"z": z, "y": y}, "z", ("y",), alpha=alpha)
        if scenario is ScenarioId.OBSERVED_CONF_MEDIATOR:
            u = cols["u"]
            t_den = fit_conditional({"z": z, "u": u}, "z", ("u",), alpha=alpha)
            den = t_den.prob_rows(z, (u,))
        elif scenario is ScenarioId.PARTIAL_CONF_MEDIATOR:
            u = cols["u"]
            t_den = fit_conditional(
                {"z": z, "y": y, "u": u}, "z", ("y", "u"), alpha=alpha
            )
            den = t_den.prob_rows(z, (y, u))
        else:
            den = t_zy.prob_rows(z, (y,))
        for k, c in enumerate(classes):
            num = t_zy.prob_rows(z, (np.full(n, c),))
            out[:, k] = num / (n * den)

    sums = out.sum(axis=0)
    normalized = bool(np.allclose(sums, 1.0, atol=1e-9))
    return WeightTable(weights=out, classes=classes, normalized=normalized)


@dataclass(frozen=True)
class ResampleConfig:
    seed: int
    kernel: KernelSpec = field(default_factory=KernelSpec.delta)
    class_prior: Mapping[int, float] | None = None

    def __post_init__(self):
        if self.class_prior is not None:
            total = sum(self.class_prior.values())
            if any(p < 0 for p in self.class_prior.values()):
                raise BootstrapError("class prior must be nonnegative")
            if abs(total - 1.0) > 1e-9:
                raise BootstrapError(f"class prior sums to {total!r}, not 1")


def _class_sizes(config: ResampleConfig, y: np.ndarray, classes) -> dict[int, int]:
    """Rows to draw per class: the number labelled c, or floor(N p_c)
    under an explicit class prior."""
    if config.class_prior is None:
        return {c: int((y == c).sum()) for c in classes}
    missing = [c for c in classes if c not in config.class_prior]
    if missing:
        raise BootstrapError(f"class prior lacks classes {missing}")
    return {c: int(len(y) * float(config.class_prior[c])) for c in classes}


def cb_resample(
    data: Dataset, table: WeightTable, config: ResampleConfig
) -> Dataset:
    """Draw the debiased training set.

    For each class c, as many rows as are labelled c (floor(N p_c)
    under an explicit class prior p) are drawn with replacement with
    probability proportional to that class's weight column, then
    relabeled to c.  Features are copied as-is (delta kernel) or get
    Gaussian jitter (smoothing kernel).  Every input column, observed or
    hidden, is carried into the output as a shadow column: the resampled
    set exposes only features and labels for training.
    """
    n = data.n
    if len(table.weights) != n:
        raise BootstrapError("weight table and dataset sizes differ")
    sizes = _class_sizes(config, data.y, table.classes)

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
        count = sizes[c]
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
        regime=data.regime,
        seed=config.seed,
    )


def da_resample(data: Dataset, seed: int) -> Dataset:
    """Balance the observed confounder within each label by upsampling
    every (y, u) stratum to its label's largest stratum."""
    if "u" not in data.columns:
        raise EstimateError("balancing needs an observed confounder column 'u'")
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
        regime=data.regime,
        seed=seed,
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
    for name in _IF_COLS[scenario]:
        if name not in data.columns:
            raise EstimateError(
                f"conditioning features need observed column {name!r}"
            )
        extras.append(np.asarray(data.columns[name], dtype=float))
    return np.column_stack([x, *extras])
