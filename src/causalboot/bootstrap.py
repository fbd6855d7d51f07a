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
indicator numerator is exact and never smoothed.  Each column the formula
reads is coded once per call, as its sorted domain and each row's index
into it; each table is counted over its own columns with one bincount of
the codes, the weight is evaluated once per table cell, and every row
gathers its cell's value.  Class weight columns sum to 1 exactly when
every cell the formula touches has samples; missing cells leave mass
unclaimed and clear the normalized flag.

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
    _code_columns,
    _count_cells,
    _smoothed,
    _smoothing,
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
        if not np.isfinite(w).all():
            raise BootstrapError("weights must be finite")
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
    alpha = _smoothing(alpha)
    coded = _code_columns(columns, target, [name for name in needed if name != target])
    n, classes = len(coded[target][1]), tuple(int(c) for c in coded["y"][0])

    # P(t | G) over its own columns, and the cell each row reads
    cell, counts = _count_cells(coded, (*given, target))
    p_den = _smoothed(counts, alpha)
    # P(t | y) by class for the numerator: the indicator 1[t = c] when t
    # is the label itself, the same table where G is the label alone
    if target == "y":
        p_num = np.eye(len(classes))
    elif given == ("y",):
        p_num = p_den
    else:
        p_num = _smoothed(_count_cells(coded, ("y", target))[1], alpha)
    den = n * p_den
    out = np.zeros((n, len(classes)))
    # cells no row falls in may hold 0/0 or x/0; none is gathered
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(classes)):
            out[:, k] = (p_num[k] / den).take(cell)

    sums = out.sum(axis=0)
    normalized = bool(np.allclose(sums, 1.0, atol=1e-9))
    return WeightTable(weights=out, classes=classes, normalized=normalized)


@dataclass(frozen=True)
class ResampleConfig:
    seed: int
    kernel: KernelSpec = field(default_factory=KernelSpec.delta)


def _draw(rng: np.random.Generator, p: np.ndarray, count: int) -> np.ndarray:
    """``rng.choice(len(p), size=count, replace=True, p=p)``: the same
    indices, dtype and generator state, by the same steps: the
    cumulative sum divided by its last element, ``count`` uniforms, and a
    right-sided search.

    The uniforms are searched in sorted order and the results scattered
    back, so the search reads the cdf front to back instead of missing
    the cache on each draw once the cdf outgrows it.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(count)
    order = np.argsort(u)
    idx = np.empty(count, dtype=np.int64)
    idx[order] = cdf.searchsorted(u[order], side="right")
    return idx


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

    Each output array is allocated once at its full size, and each
    class's draw is gathered straight into its own slice of rows.
    """
    n = data.n
    if len(table.weights) != n:
        raise BootstrapError("weight table and dataset sizes differ")

    source, jitter = data.x, None
    if config.kernel.kind == "gaussian":
        if np.issubdtype(source.dtype, np.integer):
            raise BootstrapError("gaussian kernel needs real-valued features")
        jitter = config.kernel.bandwidth or silverman_bandwidth(source)
        # jittered rows take the dtype that adding float noise gives
        source = source.astype(np.result_type(source.dtype, np.float64), copy=False)

    bounds = np.cumsum([0, *((data.y == c).sum() for c in table.classes)])
    carried = {**data.columns, **data.shadow}
    sources = [source, *carried.values()]
    outs = [np.empty((bounds[-1], *col.shape[1:]), col.dtype) for col in sources]
    y = np.empty(bounds[-1], dtype=data.y.dtype)
    for c, lo, hi in zip(table.classes, bounds, bounds[1:]):
        w = table.column(c)
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = w.sum()
        if total <= 0.0:
            raise ZeroSupportError(
                f"no samples carry weight for class {c}; cannot resample"
            )
        if not np.isfinite(total):
            raise BootstrapError(
                f"weights for class {c} sum to {total}; cannot resample"
            )
        rng = stream(config.seed, "resample", c)
        idx = _draw(rng, w / total, hi - lo)
        y[lo:hi] = c
        # every index _draw returns lies in [0, n) (cdf[-1] is exactly 1.0
        # and u < 1), so "clip" changes none; it spares take's out= buffer
        for col, out in zip(sources, outs):
            np.take(col, idx, axis=0, out=out[lo:hi], mode="clip")
        if jitter is not None:
            outs[0][lo:hi] += jitter * rng.standard_normal(outs[0][lo:hi].shape)

    return Dataset(x=outs[0], y=y, columns={}, shadow=dict(zip(carried, outs[1:])))


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
