"""Command-line front end.

Subcommands: dsep (separation queries on a graph file), identify (print
the canonical estimand), bootstrap (debias a CSV dataset), simulate
(draw a synthetic CSV dataset), run (full experiment grid).

Exit codes: 0 success; 1 bad input or I/O; 2 unidentifiable query (or
unusable spec/arguments); 3 zero-support estimation failure; 4 at least
one grid cell failed.  The package's errors carry their code as
``CausalBootError.exit_code``.

Every number in a data CSV is written as Python writes it, a float as
repr (the shortest text that reads back to it) and an int as str, so
identical invocations produce byte-identical files.  The text comes from
a numpy kernel (``_csvtext``) a block of rows at a time; the few floats
its digit proof does not cover (zeros, magnitudes below 1e-4 or from
1e16 on, powers of two, exact decimal ties) go through repr itself.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapError,
    MethodId,
    ResampleConfig,
    cb_resample,
    cb_weights,
    da_resample,
)
from .errors import CausalBootError
from .estimate import EstimateError, KernelSpec
from .graph import OBSERVED_COLUMNS, ScenarioId, d_separated, parse_graph
from .identify import Identified, estimand_to_text, identify
from .harness import (
    _SPEC_KEYS,
    _TRAIN_KEYS,
    parse_spec_text,
    resolved_spec_text,
    run_experiment,
    write_results,
)
from .rng import _forked
from .simulate import (
    _SIM_KEYS,
    X_MODES,
    Dataset,
    SimConfig,
    SimulateError,
    simulate,
)

# The label, then every scenario's observed columns in first-seen order.
_DISCRETE_COLS = (
    "y",
    *dict.fromkeys(c for cols in OBSERVED_COLUMNS.values() for c in cols),
)

# SimConfig's offset vectors, each a --delta-* flag of comma-separated floats.
_DELTA_KEYS = tuple(
    f.name for f in dataclasses.fields(SimConfig) if f.name.startswith("delta_")
)


def _names(raw: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in raw.split(",") if n.strip())


def _load_graph(path: str):
    return parse_graph(Path(path).read_text())


# --- csv schema ---------------------------------------------------------------

# Records checked per step when a read fails, so the check never holds
# the whole file's text at once.
_CHUNK = 1024

# Fewest rows a write splits between two processes.  A fork costs a few
# milliseconds; on a 2-CPU machine 1,024 rows of scenario c (ten
# features, four ints) write in about 4 ms serially and 8 ms split,
# 4,096 rows in 16 ms and 14 ms.
_SPLIT_ROWS = 1 << 12

# Shadow column the reader gives every dataset: each row's index in the
# file.  The resamplers carry shadow columns through, so a resampled row
# still names the input row its features came from.
_SOURCE = "source_row"

_INT64 = np.iinfo(np.int64)

# The largest csv.field_size_limit() a C long holds on every platform.
_FIELD_LIMIT = (1 << 31) - 1


def _write_dataset(
    path: str,
    data: Dataset,
    with_extras: bool,
    x: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> None:
    """Feature columns, label, then any observed discrete columns in the
    fixed y/u/z/d order; hidden columns last, prefixed with '_'.

    Row i's features are x[rows[i]], by default data's own x row by row.
    ``_csvtext`` formats the rows a block at a time: every float as repr
    writes it, every int as str.  With an index, each distinct row of x
    a range of output rows uses is formatted once, into one byte buffer,
    so a resample that copies input rows formats its input's features,
    not its output's.  From ``_SPLIT_ROWS`` rows on, ``rng._forked`` has
    a forked process format the second half of the rows while this one
    formats the first, or formats them all here where it cannot fork;
    the bytes are the same either way."""
    # imported on the first write, so the subcommands that write no data
    # CSV do not compile it
    from . import _csvtext

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

    def write(fh, lo: int, hi: int) -> None:
        """Rows lo to hi - 1."""
        if rows is None:
            fh.writelines(_csvtext.lines([x[lo:hi], tail[lo:hi]]))
        else:
            fh.writelines(_csvtext.indexed_lines(x, rows[lo:hi], tail[lo:hi]))

    n = data.n
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if n < _SPLIT_ROWS:
            write(fh, 0, n)
        else:
            _forked(write, n, fh)


def _beyond_strict(cell: str) -> bool:
    """Whether int() or float() reads ``cell`` only beyond the strict
    number syntax: with a `_` digit separator or non-ASCII digits."""
    return "_" in cell or not cell.strip().isascii()


def _first_bad_record(chunk, first_row: int, width: int, fields) -> None:
    """Raise the error of a chunk's first bad record, checked row by row
    and cell by cell in file order."""
    for k, record in enumerate(chunk):
        row = first_row + k
        if len(record) != width:
            raise EstimateError(f"row {row} has {len(record)} fields")
        for name, i, kind in fields:
            cell = record[i]
            try:
                value = kind(cell)
            except ValueError as exc:
                raise EstimateError(f"row {row}: {exc}") from None
            if kind is int and not _INT64.min <= value <= _INT64.max:
                raise EstimateError(
                    f"row {row}: {name} value {cell} does not fit in int64"
                )
            if _beyond_strict(cell):
                raise EstimateError(
                    f"row {row}: {name} value {cell!r} is not a plain ASCII number"
                )


def _noting_suspects(fh, suspects: list):
    """fh's lines, read about 64k characters at a time, noting in
    suspects what np.loadtxt may read otherwise than csv.reader with
    int()/float(): each line that is only a line end, which loadtxt
    skips where csv.reader reads an empty record, and each batch holding
    U+001C-U+001F, which loadtxt strips around a number as blanks where
    int() and float() refuse them."""
    while batch := fh.readlines(1 << 16):
        text = "".join(batch)
        suspects.extend(c for c in "\x1c\x1d\x1e\x1f" if c in text)
        suspects.extend(line for line in batch if line in ("\n", "\r\n", "\r"))
        yield from batch


@contextlib.contextmanager
def _any_field_size():
    """csv.reader refuses a cell over csv.field_size_limit() characters,
    where np.loadtxt reads a cell of any size: lift the limit while a
    file is read, so both read the same cells."""
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def _read_dataset(path: str) -> Dataset:
    """One np.loadtxt pass over the records, every number in the strict
    syntax.  On any fault the records are read again with csv.reader,
    a chunk at a time, to name the first bad record's row."""
    with open(path, newline="", errors="surrogateescape") as fh, _any_field_size():
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

        # every column is read, so loadtxt itself refuses a ragged row;
        # a shadow column's cells are kept as text
        dtype = [
            (h, object if h.startswith("_") else float if h in x_names else np.int64)
            for h in header
        ]
        suspects: list = []
        lines = _noting_suspects(fh, suspects)
        first = next(lines, None)
        failure = None
        if first is None:
            table = np.empty(0, dtype)  # a header-only file reads as empty
        else:
            try:
                with warnings.catch_warnings():
                    # a warning (older numpy reads 1.0 as an int with one)
                    # refuses the file too, so every numpy takes one syntax
                    warnings.simplefilter("error")
                    table = np.loadtxt(
                        itertools.chain([first], lines),
                        dtype=dtype,
                        delimiter=",",
                        comments=None,
                        quotechar='"',
                        ndmin=1,
                    )
            except (ValueError, Warning) as exc:
                failure = exc

        if failure is not None or suspects:
            # csv.reader tells an empty record, a fault, from a line end
            # inside a quoted cell, and a separator in a number cell, a
            # fault, from one in a shadow cell
            fields = [(name, header.index(name), float) for name in x_names]
            fields += [
                (name, header.index(name), int)
                for name in _DISCRETE_COLS
                if name in header
            ]
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            first_row = 2
            while chunk := list(itertools.islice(reader, _CHUNK)):
                _first_bad_record(chunk, first_row, len(header), fields)
                first_row += len(chunk)
            if failure is not None:  # a refusal no record check places
                raise EstimateError(f"{path}: {failure}")

    x = np.column_stack([table[name] for name in x_names])
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise EstimateError(f"row {bad[0] + 2}: features must be finite")

    cols = {name: table[name].copy() for name in _DISCRETE_COLS if name in header}
    y = cols.pop("y")
    return Dataset(x=x, y=y, columns=cols, shadow={_SOURCE: np.arange(len(y))})


# --- subcommands ---------------------------------------------------------------

def _cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    result = d_separated(g, _names(args.a), _names(args.b), _names(args.given))
    print("true" if result else "false")
    return 0


def _cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    outcome = identify(g, _names(args.outcome), _names(args.do))
    if isinstance(outcome, Identified):
        print(estimand_to_text(outcome.estimand))
        return 0
    print(f"UNIDENTIFIABLE: {outcome.witness}")
    return 2


def _cmd_bootstrap(args) -> int:
    scenario = ScenarioId.coerce(args.scenario)
    method = MethodId.coerce(args.method)
    if method not in (MethodId.CB, MethodId.DA):
        raise BootstrapError("bootstrap method must be cb or da")
    if method is MethodId.DA and (args.kernel, args.smoothing) != (None, None):
        raise BootstrapError("--kernel and --smoothing apply to --method cb only")
    source, target = Path(getattr(args, "in")), Path(args.out)
    # a hard link shares the input's file under another name
    if target.resolve() == source.resolve() or (
        target.exists() and source.exists() and os.path.samefile(target, source)
    ):
        raise BootstrapError("--out must not name the --in file")
    data = _read_dataset(getattr(args, "in"))
    if method is MethodId.CB:
        alpha = 0.0 if args.smoothing is None else args.smoothing
        table = cb_weights(data.weight_columns(), scenario, alpha=alpha)
        kernel = KernelSpec.parse("delta" if args.kernel is None else args.kernel)
        out = cb_resample(data, table, ResampleConfig(args.seed, kernel))
    else:
        kernel = KernelSpec.delta()
        out = da_resample(data, args.seed)
    if kernel.kind == "delta":
        # every output row copies the features of the input row it names
        _write_dataset(args.out, out, False, data.x, out.shadow[_SOURCE])
    else:
        _write_dataset(args.out, out, False)
    return 0


def _cmd_simulate(args) -> int:
    kw = {
        name: getattr(args, name)
        for name in _SIM_KEYS
        if getattr(args, name) is not None
    }
    for name in _DELTA_KEYS:
        raw = getattr(args, name)
        if raw is not None:
            cells = raw.split(",")
            try:
                if any(map(_beyond_strict, cells)):
                    raise ValueError(raw)
                kw[name] = np.array([float(v) for v in cells])
            except ValueError:
                raise SimulateError(
                    f"--{name.replace('_', '-')} needs comma-separated floats, "
                    f"got {raw!r}"
                ) from None
    cfg = SimConfig(scenario=args.scenario, n=args.n, **kw)
    data = simulate(cfg, args.regime, args.seed)
    _write_dataset(args.out, data, with_extras=True)
    return 0


def _cmd_run(args) -> int:
    spec = parse_spec_text(Path(args.spec).read_text())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(spec)
    write_results(rows, out_dir / "results.csv")
    (out_dir / "spec.resolved.txt").write_text(resolved_spec_text(spec))
    failed = sum(1 for row in rows if row.status.startswith("error"))
    if failed:
        print(f"{failed} of {len(rows)} cells failed", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-boot",
        description="Causal bootstrapping: identification, debiasing, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="query separation between node sets")
    p.add_argument("--graph", required=True, help="graph DSL file")
    p.add_argument("--a", required=True, help="comma-separated node names")
    p.add_argument("--b", required=True, help="comma-separated node names")
    p.add_argument("--given", default="", help="comma-separated node names")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("identify", help="print the interventional estimand")
    p.add_argument("--graph", required=True, help="graph DSL file")
    p.add_argument("--outcome", required=True, help="comma-separated outcomes")
    p.add_argument("--do", required=True, help="comma-separated interventions")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("bootstrap", help="debias a CSV dataset by resampling")
    p.add_argument("--scenario", required=True, choices=[s.value for s in ScenarioId])
    p.add_argument("--method", required=True, help="cb or da")
    p.add_argument("--in", required=True, help="input CSV (x0..,y[,u][,z][,d])")
    p.add_argument("--out", required=True, help="output CSV (x0..,y)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoothing", type=float, help="pseudo-count (cb only, default 0)")
    p.add_argument(
        "--kernel", help="delta | gaussian | gaussian:<h> (cb only, default delta)"
    )
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("simulate", help="draw a synthetic dataset to CSV")
    p.add_argument("--scenario", required=True, choices=[s.value for s in ScenarioId])
    p.add_argument("--regime", default="conf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    for name, kind in _SIM_KEYS.items():
        flag = "--qc" if name == "q_c" else "--" + name.replace("_", "-")
        choices = X_MODES if name == "x_mode" else None
        p.add_argument(flag, dest=name, type=kind, default=None, choices=choices)
    for name in _DELTA_KEYS:
        p.add_argument(
            "--" + name.replace("_", "-"), dest=name, help="comma-separated floats"
        )
    p.set_defaults(func=_cmd_simulate)

    # the keys parse_spec_text reads, from the tables it reads them by
    keys = [key for key, _, _ in _SPEC_KEYS] + [f"sim.{name}" for name in _SIM_KEYS]
    p = sub.add_parser(
        "run",
        help="run an experiment grid from a spec file",
        epilog="spec keys: " + ", ".join(keys + [f"train.{k}" for k in _TRAIN_KEYS]),
    )
    p.add_argument("--spec", required=True, help="flat key=value spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CausalBootError, OSError, UnicodeDecodeError) as exc:
        # bad input, a file that cannot be opened, or one that is not
        # text; anything else is a fault and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
