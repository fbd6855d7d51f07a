"""Plug-in probability estimation from finite samples.

Count tables over coded columns supply every discrete P(.|.) term the
resampling weight formula needs, and :class:`CategoricalTable` answers
queries by value from one such table; the resampling kernel and its
normal-reference bandwidth cover continuous features.  Tables are
immutable after fitting and safe to share across threads.

Smoothing follows the pseudo-count convention: with smoothing ``alpha``,
a cell's probability is (count + alpha) / (group + alpha * |domain|).
With alpha = 0 the table reproduces exact empirical frequencies, and
querying an empty conditioning group is an error (:class:`ZeroSupportError`)
rather than a silent clamp, because these probabilities sit in weight
denominators where an invented value would bias everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CausalBootError


class EstimateError(CausalBootError):
    """Bad inputs to fitting or querying."""


class ZeroSupportError(EstimateError):
    """A conditioning assignment with zero unsmoothed mass was queried."""

    exit_code = 3


@dataclass(frozen=True)
class KernelSpec:
    """Resampling kernel: exact copies (delta) or Gaussian jitter.

    ``bandwidth`` is None for delta kernels, and for Gaussian kernels may
    be None to request the normal-reference (Silverman) bandwidth at the
    point of use.
    """

    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "gaussian"):
            raise EstimateError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "delta" and self.bandwidth is not None:
            raise EstimateError("delta kernel takes no bandwidth")
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise EstimateError(
                f"bandwidth must be finite and positive, got {self.bandwidth!r}"
            )

    @classmethod
    def delta(cls) -> "KernelSpec":
        return cls("delta")

    @classmethod
    def gaussian(cls, bandwidth: float | None = None) -> "KernelSpec":
        return cls("gaussian", bandwidth)

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse the CLI form ``delta`` or ``gaussian[:h]``."""
        if text == "delta":
            return cls.delta()
        if text == "gaussian":
            return cls.gaussian()
        if text.startswith("gaussian:"):
            try:
                bandwidth = float(text.split(":", 1)[1])
            except ValueError as err:
                raise EstimateError(f"bad kernel spec {text!r}") from err
            return cls.gaussian(bandwidth)
        raise EstimateError(f"bad kernel spec {text!r}")


def _discrete_column(columns: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    try:
        raw = np.asarray(columns[name])
    except KeyError:
        raise EstimateError(f"no column named {name!r}") from None
    if raw.ndim != 1:
        raise EstimateError(f"column {name!r} is not one-dimensional")
    if raw.size == 0:
        raise EstimateError("empty dataset")
    if np.issubdtype(raw.dtype, np.integer):
        values = raw
    else:
        values = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values != np.round(values)):
            raise EstimateError(f"column {name!r} is not discrete")
    with np.errstate(invalid="ignore"):
        coded = values.astype(np.int64)
    if values.dtype != np.int64 and np.any(coded != values):
        raise EstimateError(f"column {name!r} has a value beyond the int64 range")
    return coded


@dataclass(frozen=True)
class CategoricalTable:
    """Smoothed empirical conditional P(target | given)."""

    target: str
    target_domain: tuple[int, ...]
    given: tuple[str, ...]
    given_domains: tuple[tuple[int, ...], ...]
    counts: np.ndarray  # shape: given domain sizes + (target domain size,)
    alpha: float

    def _axis_index(self, domain: tuple[int, ...], name: str, value) -> int:
        try:
            return domain.index(int(value))
        except (ValueError, TypeError):
            raise EstimateError(
                f"value {value!r} outside the domain of {name!r}"
            ) from None

    def prob(self, target_value, given_values: Sequence = ()) -> float:
        """Smoothed plug-in probability of one cell."""
        given_values = tuple(given_values)
        if len(given_values) != len(self.given):
            raise EstimateError(
                f"expected {len(self.given)} conditioning values, got {len(given_values)}"
            )
        cell = tuple(
            self._axis_index(dom, name, v)
            for dom, name, v in zip(self.given_domains, self.given, given_values)
        )
        t = self._axis_index(self.target_domain, self.target, target_value)
        group = float(self.counts[cell].sum())
        if group == 0.0 and self.alpha == 0.0:
            assignment = ",".join(
                f"{n}={v}" for n, v in zip(self.given, given_values)
            )
            raise ZeroSupportError(
                f"no samples with {assignment}; cannot estimate "
                f"P({self.target}|{assignment}) without smoothing"
            )
        k = len(self.target_domain)
        return (float(self.counts[cell + (t,)]) + self.alpha) / (
            group + self.alpha * k
        )

    def prob_rows(
        self, target_values: np.ndarray, given_rows: Sequence[np.ndarray] = ()
    ) -> np.ndarray:
        """Vectorized :meth:`prob` over aligned value arrays."""
        given_rows = tuple(given_rows)
        if len(given_rows) != len(self.given):
            raise EstimateError(
                f"expected {len(self.given)} conditioning columns, got {len(given_rows)}"
            )
        idx = [self._axis_indices(d, n, np.asarray(v))
               for d, n, v in zip(self.given_domains, self.given, given_rows)]
        t = self._axis_indices(self.target_domain, self.target, np.asarray(target_values))
        groups = self.counts.sum(axis=-1)[tuple(idx)] if idx else np.full(
            t.shape, self.counts.sum()
        )
        if self.alpha == 0.0 and np.any(groups == 0):
            n = int(np.argmax(groups == 0))
            bad = ",".join(
                f"{name}={np.asarray(v)[n]}" for name, v in zip(self.given, given_rows)
            )
            raise ZeroSupportError(
                f"no samples with {bad}; cannot estimate "
                f"P({self.target}|{bad}) without smoothing"
            )
        cells = self.counts[tuple(idx) + (t,)]
        k = len(self.target_domain)
        return (cells + self.alpha) / (groups + self.alpha * k)

    def _axis_indices(
        self, domain: tuple[int, ...], name: str, values: np.ndarray
    ) -> np.ndarray:
        dom = np.asarray(domain)
        pos = np.searchsorted(dom, values)
        pos_clipped = np.clip(pos, 0, len(dom) - 1)
        bad = dom[pos_clipped] != values
        if np.any(bad):
            v = np.asarray(values)[np.argmax(bad)]
            raise EstimateError(f"value {v!r} outside the domain of {name!r}")
        return pos_clipped


def _smoothing(alpha) -> float:
    if not 0.0 <= alpha < math.inf:
        raise EstimateError(
            f"smoothing must be finite and nonnegative, got {alpha!r}"
        )
    return float(alpha)


def _code(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.unique's inverse costs an argsort whose time varies tenfold with
    # the order of the rows; a sort and a search into the domain does not
    ordered = np.sort(values)
    domain = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return domain, domain.searchsorted(values)


def _code_columns(
    columns: Mapping[str, np.ndarray], target: str, given: Sequence[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each named column's sorted domain and each row's index into it;
    every given column must have the target's length."""
    coded = {name: _code(_discrete_column(columns, name)) for name in (target, *given)}
    for name in given:
        if coded[name][1].shape != coded[target][1].shape:
            raise EstimateError(f"column {name!r} length differs from {target!r}")
    return coded


def _count_cells(
    coded: Mapping[str, tuple[np.ndarray, np.ndarray]], names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's flat cell in the table over the coded columns
    ``names``, and the float count of rows in every cell."""
    shape = tuple(len(coded[name][0]) for name in names)
    cell = np.ravel_multi_index([coded[name][1] for name in names], shape)
    counts = np.bincount(cell, minlength=math.prod(shape)).astype(float)
    return cell, counts.reshape(shape)


def _smoothed(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Every cell's (count + alpha) / (group + alpha * |domain|), the
    target on the last axis; a group without samples reads nan at
    alpha = 0."""
    groups = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return (counts + alpha) / (groups + alpha * counts.shape[-1])


def fit_conditional(
    columns: Mapping[str, np.ndarray],
    target: str,
    given: Iterable[str] = (),
    alpha: float = 0.0,
) -> CategoricalTable:
    """Fit the empirical conditional P(target | given) with pseudo-count
    smoothing ``alpha``; domains are the sorted values observed per column."""
    alpha = _smoothing(alpha)
    given = tuple(given)
    coded = _code_columns(columns, target, given)
    _, counts = _count_cells(coded, (*given, target))
    domains = {name: tuple(int(v) for v in values) for name, (values, _) in coded.items()}
    return CategoricalTable(
        target=target,
        target_domain=domains[target],
        given=given,
        given_domains=tuple(domains[name] for name in given),
        counts=counts,
        alpha=alpha,
    )


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth h = sigma * (4 / ((d+2) N))^(1/(d+4)),
    with sigma the root mean per-dimension sample variance."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 2:
        raise EstimateError("bandwidth selection needs at least two samples")
    sigma = math.sqrt(float(np.mean(np.var(x, axis=0, ddof=1))))
    if sigma == 0.0:
        raise EstimateError("degenerate samples: zero variance in every dimension")
    return sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))
