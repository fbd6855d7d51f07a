"""The data-CSV reader as it was before the strict loadtxt pass: every
cell converted with Python's int()/float(), a chunk of records at a time;
and the writer as it was before the numpy kernel: every cell's repr,
joined a chunk of rows at a time.

Kept as references for tests/test_cli.py.  On any text the reader and
cli._read_dataset either return the same Dataset bytes or raise the same
EstimateError, except on cells Python's conversions accept and the
strict reader refuses (REFUSED).  On any dataset the writer and
cli._write_dataset write the same bytes.
"""

from __future__ import annotations

import csv
import itertools
from operator import itemgetter

import numpy as np

from causalboot.cli import _DISCRETE_COLS
from causalboot.estimate import EstimateError
from causalboot.simulate import Dataset

_CHUNK = 1024
_INT64 = np.iinfo(np.int64)


def refused(cell: str) -> bool:
    """A cell int() or float() reads that the strict reader refuses:
    '_' digit separators and non-ASCII digits."""
    return "_" in cell or not cell.strip().isascii()


def _first_bad_record(chunk, first_row: int, width: int, fields) -> None:
    for k, record in enumerate(chunk):
        row = first_row + k
        if len(record) != width:
            raise EstimateError(f"row {row} has {len(record)} fields")
        for name, i, kind in fields:
            try:
                value = kind(record[i])
            except ValueError as exc:
                raise EstimateError(f"row {row}: {exc}") from None
            if kind is int and not _INT64.min <= value <= _INT64.max:
                raise EstimateError(
                    f"row {row}: {name} value {record[i]} does not fit in int64"
                )


def read_dataset(path: str) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EstimateError(f"{path} is empty") from None

        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise EstimateError(f"column {repeated[0]!r} appears more than once")
        x_names = [h for h in header if h.startswith("x")]
        if x_names != [f"x{j}" for j in range(len(x_names))] or not x_names:
            raise EstimateError(
                "feature columns must be named x0..x{d-1}, in order"
            )
        known = set(x_names) | set(_DISCRETE_COLS)
        unknown = [h for h in header if h not in known and not h.startswith("_")]
        if unknown:
            raise EstimateError(f"unknown columns {unknown}")
        if "y" not in header:
            raise EstimateError("dataset needs a y column")

        fields = [(name, header.index(name), float) for name in x_names]
        fields += [
            (name, header.index(name), int)
            for name in _DISCRETE_COLS
            if name in header
        ]
        dtypes = {float: np.float64, int: np.int64}
        parts = {name: [np.empty(0, dtypes[kind])] for name, _, kind in fields}
        first_row = 2
        while chunk := list(itertools.islice(reader, _CHUNK)):
            if any(len(record) != len(header) for record in chunk):
                _first_bad_record(chunk, first_row, len(header), fields)
            try:
                for name, i, kind in fields:
                    parts[name].append(
                        np.fromiter(
                            map(kind, map(itemgetter(i), chunk)),
                            dtypes[kind],
                            len(chunk),
                        )
                    )
            except (ValueError, OverflowError):
                _first_bad_record(chunk, first_row, len(header), fields)
                raise
            first_row += len(chunk)

    x = np.column_stack([np.concatenate(parts.pop(name)) for name in x_names])
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise EstimateError(f"row {bad[0] + 2}: features must be finite")

    cols = {name: np.concatenate(part) for name, part in parts.items()}
    y = cols.pop("y")
    return Dataset(x=x, y=y, columns=cols, shadow={})


def _text(rows) -> list[str]:
    """Comma-joined repr of each row of a list of lists: repr of a Python
    float is the shortest text that reads back to the same float."""
    return [",".join(map(repr, row)) for row in rows]


def write_dataset(path, data, with_extras, x=None, rows=None) -> None:
    """cli._write_dataset, serially: feature columns, label, observed
    discrete columns, then hidden ones prefixed with '_'; row i's
    features x[rows[i]], each distinct row of x formatted once."""
    x = data.x if x is None else x
    x = x if x.ndim == 2 else x[:, None]
    header = [f"x{j}" for j in range(x.shape[1])] + ["y"]
    tail = [data.y]
    if with_extras:
        extras = [c for c in _DISCRETE_COLS[1:] if c in data.columns]
        shadows = sorted(data.shadow)
        header += extras + [f"_{name}" for name in shadows]
        tail += [data.columns[c] for c in extras]
        tail += [data.shadow[c] for c in shadows]
    tail = np.column_stack(tail).astype(np.int64)

    starts = range(0, data.n, _CHUNK)
    if rows is None:
        features = (_text(x[s : s + _CHUNK].tolist()) for s in starts)
    else:
        used, inv = np.unique(rows, return_inverse=True)
        table = np.empty(len(used), dtype=object)
        for s in range(0, len(used), _CHUNK):
            table[s : s + _CHUNK] = _text(x[used[s : s + _CHUNK]].tolist())
        features = (table[inv[s : s + _CHUNK]] for s in starts)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for s, heads in zip(starts, features):
            fh.writelines(
                f"{head},{cells}\n"
                for head, cells in zip(heads, _text(tail[s : s + _CHUNK].tolist()))
            )
