"""Weighted resampling that emulates drawing features under a forced label.

Resampling row n with probability proportional to its weight w_n(c),
then relabeling it to c, draws from the interventional feature law for
class c.  Following Little and Badawy, the weights are read off the
estimand of P(x | do(y)) in the scenario's graph, pruned by its
d-separations (``identify.prune``): the one factor P(x | S) becomes the
point mass 1[S = S_n] / (N P(S_n)), which collapses every sum onto row
n, and the factors without y, a chain-rule prefix P(G) of P(S), cancel
against it.  What is left is

    w_n(c) = P(t_n | y=c) / (N P(t_n | G_n)),

t being the one variable of S besides G, with the indicator 1[y_n = c]
as numerator when t is y.  An unidentifiable query raises
``NotIdentifiedError`` (exit code 2).

All conditionals are plug-in frequency tables (optionally smoothed),
counted in coded cells (``estimate._count_cells``); the indicator
numerator is exact and never smoothed.  The weight is evaluated once per
table cell and every row gathers its cell's value.  Class weight columns
sum to 1 exactly when every cell the formula touches has samples;
missing cells leave mass unclaimed and clear the normalized flag.

Also here: stratified upsampling to balance an observed confounder
within each label (the classical alternative, counted in the same coded
cells), and the selectors of the observed columns a model may see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from typing import Mapping

import numpy as np

from .errors import CausalBootError, _member
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
from .identify import (
    Cond,
    EstimandError,
    Ref,
    Unidentifiable,
    _terms,
    estimand_to_text,
    identify,
    prune,
)
from .rng import _BLOCK, _together, stream
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
        return _member(cls, value, BootstrapError, "method")


@cache
def _weight_form(scenario: ScenarioId) -> tuple[str, tuple[str, ...]]:
    """(t, G) of the scenario's weight, read off the pruned estimand of
    P(x | do(y)) in its graph once per scenario per process."""
    g = scenario_graph(scenario)
    outcome = identify(g, ("X",), ("Y",))
    if isinstance(outcome, Unidentifiable):
        raise NotIdentifiedError(outcome.witness)
    estimand = replace(outcome.estimand, root=prune(outcome.estimand.root, g))
    x, y = (Ref(v, estimand.alias_of(v)) for v in ("X", "Y"))
    terms = _terms(estimand.root)
    own = [f for f in terms if x in f.targets + f.given]
    s = set(own[0].given) if len(own) == 1 and own[0].targets == (x,) else set()
    # the factors without x or y in chain-rule order; G is their targets
    bare = [f for f in terms if not {x, y} & {*f.targets, *f.given}]
    prefix = sorted(bare, key=lambda f: len(f.given))
    seen = tuple(f.targets[0] for f in prefix)
    left = s - set(seen)
    t = left.pop() if len(left) == 1 else None
    if (
        t is None
        or not set(seen) <= s
        or any(f.targets != seen[i : i + 1] for i, f in enumerate(prefix))
        or any(set(f.given) != set(seen[:i]) for i, f in enumerate(prefix))
        or [f for f in terms if f not in own + prefix]
        != ([] if t == y else [Cond((t,), (y,))])
    ):
        raise EstimandError(f"no weight formula for {estimand_to_text(estimand)}")
    return t.var.lower(), tuple(ref.var.lower() for ref in seen)


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
    """Importance weights for every class from observed columns only, by
    the formula read off the scenario's pruned estimand; raises
    ``NotIdentifiedError`` where its graph does not license them."""
    scenario = ScenarioId.coerce(scenario)
    target, given = _weight_form(scenario)
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
    den = n * _smoothed(counts, alpha)
    # the numerator P(t | y) by class, or the indicator 1[t = c] if t is y
    if target == "y":
        p_num = np.eye(len(classes))
    else:
        p_num = _smoothed(_count_cells(coded, ("y", target))[1], alpha)
    # column-major, so each class's column is contiguous for its sum
    # and for the draw
    out = np.zeros((n, len(classes)), order="F")
    # cells no row falls in may hold 0/0 or x/0; none is gathered.  Every
    # cell lies in the table, so "clip" changes none; it spares take's
    # out= buffer
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(classes)):
            np.take(p_num[k] / den, cell, out=out[:, k], mode="clip")

    sums = out.sum(axis=0)
    normalized = bool(np.allclose(sums, 1.0, atol=1e-9))
    return WeightTable(weights=out, classes=classes, normalized=normalized)


@dataclass(frozen=True)
class ResampleConfig:
    seed: int
    kernel: KernelSpec = field(default_factory=KernelSpec.delta)


def _draw(rng: np.random.Generator, cdf: np.ndarray, count: int):
    """``rng.choice(len(cdf), size=count, replace=True, p=cdf)`` a block
    at a time: yields each block's first position and its int64 indices.

    The indices and the generator state after the last block are
    ``choice``'s, by the same steps: the cumulative sum divided by its
    last element, ``count`` uniforms (taken a block at a time, they are
    the values of one call) and a right-sided search.  ``cdf`` comes in
    holding p and is summed in place; the indices yielded are valid
    until the next block is drawn.  Each block's uniforms are searched
    in sorted order and the results scattered back, so the search reads
    the cdf front to back instead of missing the cache on each draw once
    the cdf outgrows it.
    """
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    idx = np.empty(min(count, _BLOCK), dtype=np.int64)
    for start in range(0, count, _BLOCK):
        block = idx[: min(_BLOCK, count - start)]
        u = rng.random(len(block))
        order = np.argsort(u)
        # the sorted uniforms borrow the indices' memory until the search
        # has read them; order is a permutation, so "clip" changes nothing
        # but spares take's out= buffer
        ordered = np.take(u, order, out=block.view(np.float64), mode="clip")
        del u  # read: its memory is free before the search allocates
        block[order] = cdf.searchsorted(ordered, side="right")
        del order  # scattered: its memory is free before the next block's
        yield start, block


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
    block of a class's draw is gathered straight into its own slice of
    rows.  Every class total is checked before any draw; then the
    classes draw in pairs, the second of each pair in a thread of its
    own.
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
    totals = []
    for c in table.classes:
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = table.column(c).sum()
        if total <= 0.0:
            raise ZeroSupportError(
                f"no samples carry weight for class {c}; cannot resample"
            )
        if not np.isfinite(total):
            raise BootstrapError(
                f"weights for class {c} sum to {total}; cannot resample"
            )
        totals.append(total)
    carried = {**data.columns, **data.shadow}
    sources = [source, *carried.values()]
    outs = [np.empty((bounds[-1], *col.shape[1:]), col.dtype) for col in sources]
    y = np.empty(bounds[-1], dtype=data.y.dtype)

    def drawer(c, lo, hi, total):
        # the calling thread allocates the cdf, the one row-length buffer
        # of a draw: what a worker thread frees stays in its own malloc
        # arena, where later allocations in this thread never reuse it
        cdf = np.divide(table.column(c), total)

        def draw():
            rng = stream(config.seed, "resample", c)
            y[lo:hi] = c
            # every index _draw yields lies in [0, n) (cdf[-1] is exactly
            # 1.0 and u < 1), so "clip" changes none; it spares take's
            # out= buffer
            for start, idx in _draw(rng, cdf, hi - lo):
                rows = slice(lo + start, lo + start + len(idx))
                for col, out in zip(sources, outs):
                    np.take(col, idx, axis=0, out=out[rows], mode="clip")
            if jitter is not None:
                # about a block of values at a time: the values of one call
                x = outs[0][lo:hi]
                step = max(1, _BLOCK // max(1, math.prod(x.shape[1:])))
                for start in range(0, len(x), step):
                    noise = rng.standard_normal(x[start : start + step].shape)
                    noise *= jitter
                    x[start : start + step] += noise

        return draw

    # a class reads only its weight column and its stream and writes only
    # its own rows, so two classes draw at once and give the same bytes
    jobs = list(zip(table.classes, bounds, bounds[1:], totals))
    for pair in (jobs[i:i + 2] for i in range(0, len(jobs), 2)):
        _together(*(drawer(*job) for job in pair))

    return Dataset(x=outs[0], y=y, columns={}, shadow=dict(zip(carried, outs[1:])))


def da_resample(data: Dataset, seed: int) -> Dataset:
    """Balance the observed confounder within each label by upsampling
    every (y, u) stratum to its label's largest stratum.  The strata are
    the cells of the coded (y, u) table, y-major, each keeping its rows
    in ascending order; the first empty one raises ``ZeroSupportError``."""
    if "u" not in data.columns:
        raise EstimateError("balancing needs an observed confounder column 'u'")
    coded = _code_columns(data.weight_columns(), "y", ["u"])
    cell, counts = _count_cells(coded, ("y", "u"))
    y_values, u_values = coded["y"][0].tolist(), coded["u"][0].tolist()
    empty = np.flatnonzero(counts.ravel() == 0)
    if empty.size:
        i, j = divmod(int(empty[0]), len(u_values))
        raise ZeroSupportError(
            f"empty stratum y={y_values[i]}, u={u_values[j]}; cannot balance"
        )

    bounds = np.cumsum(counts.ravel(), dtype=np.int64)[:-1]
    strata = np.split(np.argsort(cell, kind="stable"), bounds)
    keep = []
    for (i, j), rows in zip(np.ndindex(counts.shape), strata):
        keep.append(rows)
        extra = int(counts[i].max()) - len(rows)
        if extra > 0:
            rng = stream(seed, "balance", y_values[i], u_values[j])
            keep.append(rng.choice(rows, size=extra, replace=True))
    idx = np.concatenate(keep)
    return Dataset(
        x=data.x[idx],
        y=data.y[idx],
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
