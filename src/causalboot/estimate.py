"""Plug-in probability estimation from finite samples.

Discrete columns are validated and coded here, once per call, as each
column's sorted observed domain (int64) and each row's index into it;
one bincount over the codes counts every cell of a table.  An integer
column is coded as it comes, with no int64 copy: the codes keep a
narrow column's dtype where its domain is a run from 0, and a one-byte
column's domain is read off a table of the 256 byte values, not a sort.
The resampling weights (``bootstrap.cb_weights``) and the stratified
upsampler (``bootstrap.da_resample``) both count through these coded
cells.  The resampling kernel and its normal-reference bandwidth cover
continuous features.

Smoothing follows the pseudo-count convention: with smoothing ``alpha``,
a cell's probability is (count + alpha) / (group + alpha * |domain|).
With alpha = 0 the table reproduces exact empirical frequencies, and a
conditioning group without samples reads nan rather than a clamped
value, because these probabilities sit in weight denominators where an
invented value would bias everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CausalBootError


class EstimateError(CausalBootError):
    """Bad input data, smoothing or kernel."""


class ZeroSupportError(EstimateError):
    """Nothing to resample from: a class whose weights are all zero
    (``cb_resample``) or an empty (y, u) stratum (``da_resample``)."""

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
    raw = np.asarray(columns[name])
    if raw.ndim != 1:
        raise EstimateError(f"column {name!r} is not one-dimensional")
    if raw.size == 0:
        raise EstimateError("empty dataset")
    if np.issubdtype(raw.dtype, np.integer):
        if np.can_cast(raw.dtype, np.int64):
            return raw
        values = raw
    else:
        values = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values != np.round(values)):
            raise EstimateError(f"column {name!r} is not discrete")
    # only uint64 and floats reach here: an int64 cast may change them
    with np.errstate(invalid="ignore"):
        coded = values.astype(np.int64)
    if np.any(coded != values):
        raise EstimateError(f"column {name!r} has a value beyond the int64 range")
    return coded


def _smoothing(alpha) -> float:
    if not 0.0 <= alpha < math.inf:
        raise EstimateError(
            f"smoothing must be finite and nonnegative, got {alpha!r}"
        )
    return float(alpha)


def _code(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted int64 domain of an integer column and each row's index
    into it.  The codes keep a narrow column's dtype where they can: a
    domain that is a run from 0 codes each row as its own value, with
    no copy."""
    if values.itemsize == 1:
        # np.sort is ten times slower on one-byte values than on int64:
        # a table of the 256 byte values marks the ones present instead
        present = np.zeros(256, dtype=bool)
        present[values.view(np.uint8)] = True
        if values.dtype.kind == "i":  # negative bytes sort first
            present = np.roll(present, 128)
        domain = np.flatnonzero(present) + np.int64(np.iinfo(values.dtype).min)
    else:
        # np.unique's inverse costs an argsort whose time varies tenfold
        # with the order of the rows; a sort and a search does not
        ordered = np.sort(values)
        domain = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        domain = domain.astype(np.int64, copy=False)
    # a run of consecutive integers needs no search: each value's index
    # is its offset from the first (written so that nothing overflows,
    # in int64 whatever the column's width)
    if domain[-1] - (len(domain) - 1) == domain[0]:
        if domain[0] == 0:
            return domain, values
        return domain, np.subtract(values, domain[0], dtype=np.int64)
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
