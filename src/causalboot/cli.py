"""Command-line front end.

Subcommands: dsep (separation queries on a graph file), identify (print
the canonical estimand), bootstrap (debias a CSV dataset), simulate
(draw a synthetic CSV dataset), run (full experiment grid).

Exit codes: 0 success; 1 bad input or I/O; 2 unidentifiable query (or
unusable spec/arguments); 3 zero-support estimation failure; 4 at least
one grid cell failed.  The package's errors carry their code as
``CausalBootError.exit_code``.

All numeric output goes through repr of Python floats, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import sys
from operator import itemgetter
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
    parse_spec_text,
    resolved_spec_text,
    run_experiment,
    write_results,
)
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

# Rows parsed or formatted per step: a read holds the text of one chunk
# of records at a time, never the whole file's.
_CHUNK = 1024

# Shadow column the reader gives every dataset: each row's index in the
# file.  The resamplers carry shadow columns through, so a resampled row
# still names the input row its features came from.
_SOURCE = "source_row"

_INT64 = np.iinfo(np.int64)


def _text(rows) -> list[str]:
    """Comma-joined repr of each row of a list of lists: repr of a Python
    float is the shortest text that reads back to the same float."""
    return [",".join(map(repr, row)) for row in rows]


def _write_dataset(
    path: str,
    data: Dataset,
    with_extras: bool,
    x: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> None:
    """Feature columns, label, then any observed discrete columns in the
    fixed y/u/z/d order; hidden columns last, prefixed with '_'.

    Row i's features are x[rows[i]], by default data's own x row by row,
    formatted and written one chunk at a time.  With an index, each
    distinct row of x is formatted once, so a resample that copies input
    rows formats its input's features, not its output's."""
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
                f"{head},{rest}\n"
                for head, rest in zip(heads, _text(tail[s : s + _CHUNK].tolist()))
            )


def _first_bad_record(chunk, first_row: int, width: int, fields) -> None:
    """Raise the error of a chunk's first bad record, checked row by row
    and cell by cell in file order."""
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


def _read_dataset(path: str) -> Dataset:
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

        # (name, position, conversion): features, then the discrete columns
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
    return Dataset(x=x, y=y, columns=cols, shadow={_SOURCE: np.arange(len(y))})


# --- subcommands ---------------------------------------------------------------

def _cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    given = _names(args.given) if args.given else ()
    result = d_separated(g, _names(args.a), _names(args.b), given)
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
    if Path(args.out).resolve() == Path(getattr(args, "in")).resolve():
        raise BootstrapError("--out must not name the --in file")
    data = _read_dataset(getattr(args, "in"))
    if method is MethodId.CB:
        table = cb_weights(data.weight_columns(), scenario, alpha=args.smoothing)
        kernel = KernelSpec.parse(args.kernel)
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
            try:
                kw[name] = np.array([float(v) for v in raw.split(",")])
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
    p.add_argument("--smoothing", type=float, default=0.0, help="pseudo-count")
    p.add_argument(
        "--kernel", default="delta", help="delta | gaussian | gaussian:<h>"
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

    p = sub.add_parser("run", help="run an experiment grid from a spec file")
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
