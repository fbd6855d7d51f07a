"""The three benchmark workloads and the helpers they share.

Each workload runs whole rounds of the same operations until the run
length is used up (and at least ``min_rounds`` of them), checks the
outputs with ``checks``, and reports the median of its per-round
timings.  Every workload reports the end-to-end metrics all of them
share, ``setup_s``, ``round_s`` and ``peak_rss_mb``, and besides them
the figures of its own operations.  With tracing on, every round is a pair: the same operations
in-process without wrappers, then with them; per-layer figures come
from the traced half, the tracing overhead from the pair.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

CSV_ROWS = 50_000
CSV_SCENARIO = "c"
NONFINITE_ROWS = 400
# seed 0 at 313 rows gives label counts 162/151, one of which the
# resampler's rounding fault cuts short (see checks.rounding_shortfall)
ROUNDING_ROWS = 313
GRID_LEVELS = (0.5, 1.0, 1.5, 2.2, 3.0)
GRID_CELLS = 2 * len(GRID_LEVELS) * 5
RESAMPLE_ROWS = 1_000_000
# The grid runs serially.  Under the package's default pool (2 threads
# on the 2-CPU reference machine) the spread of its round time between
# runs reached 0.24, against 0.14 serially; see README.md, "Worker count".
GRID_WORKERS = 1
SETUP_REPEATS = 5
# Fewest timed rounds per run: every workload needs two for its repeat
# check.  Beyond these, --seconds decides how many run.
CSV_ROUNDS = 2
GRID_ROUNDS = 2
RESAMPLE_ROUNDS = 2


class BenchError(RuntimeError):
    """An operation that must succeed did not; the run has no result."""


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def median(values) -> float:
    return float(statistics.median(values))


# --- processes and set-up ----------------------------------------------------------

def child_env(workers: int | None) -> dict:
    """Environment of every child: src/ on the import path, and the grid
    worker count, if given, pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("CAUSAL_BOOT_WORKERS", None)
    if workers is not None:
        env["CAUSAL_BOOT_WORKERS"] = str(workers)
    return env


@dataclass
class Call:
    code: int
    seconds: float
    peak_rss_mb: float | None = None


def run_cli(argv: list[str], env: dict, log: Path) -> Call:
    """`python -m causalboot.cli argv` in a child started by spawn.py;
    the child's wall time and its peak RSS from os.wait4."""
    with open(log, "wb") as err:
        out = subprocess.run(
            [sys.executable, str(BENCH / "spawn.py"), *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
            text=True,
        )
    seconds, rss_kib = out.stdout.split()
    return Call(out.returncode, float(seconds), int(rss_kib) / 1024.0)


def call_main(argv: list[str]) -> Call:
    """The same argv through `causalboot.cli.main` in this process."""
    cli = importlib.import_module("causalboot.cli")
    start = time.perf_counter()
    code = cli.main(argv)
    return Call(code, time.perf_counter() - start)


def import_seconds(env: dict) -> float:
    """Time a fresh interpreter spends importing causalboot.cli."""
    code = (
        "import time; t = time.perf_counter(); import causalboot.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import causalboot: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(result: Result, env: dict, prepare) -> float:
    """Set up SETUP_REPEATS times: a fresh interpreter importing the
    package (what every CLI call pays before work starts), then the
    workload's own inputs.  Reports the median; returns the median
    import time the children measured themselves."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        imports.append(import_seconds(env))
        prepare()
        walls.append(time.perf_counter() - start)
    result.put("setup_s", median(walls), "s")
    return median(imports)


def rounds(seconds: float, min_rounds: int, body) -> int:
    """Run whole rounds: at least min_rounds, then more while one more
    round of the mean length so far still ends within `seconds`."""
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= min_rounds and elapsed * (k + 1) / k > seconds:
            return k
        body(k)
        k += 1


def digest(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def require_ok(call: Call, what: str, log: Path | None = None) -> None:
    if call.code != 0:
        detail = log.read_text().strip() if log is not None and log.exists() else ""
        raise BenchError(f"{what} exited {call.code}: {detail}")


# --- tracing ----------------------------------------------------------------

def _rows(args, result):
    return {"rows": result.n}


def _written(args, result):
    return {"rows": args[1].n, "bytes": os.path.getsize(args[0])}


def _ess(args, result):
    return {"ess": sum(checks.kish_ess(result.column(c)) for c in result.classes)}


def _draws(args, result):
    x = result.x if result.x.ndim == 2 else result.x[:, None]
    distinct = sum(len(np.unique(x[result.y == c, 0])) for c in np.unique(result.y))
    return {"rows": result.n, "distinct": distinct}


def _auc_rows(args, result):
    return {"rows": len(args[0])}


def _workers(args, result):
    return {"workers": result}


# (module, attribute, layer, counter); a module-level name is wrapped in
# every module that looks it up, since each import binds its own name.
_LAYERS = (
    ("cli", "_read_dataset", "cli.read", _rows),
    ("cli", "_write_dataset", "cli.write", _written),
    ("cli", "simulate", "simulate.simulate", _rows),
    ("harness", "simulate", "simulate.simulate", _rows),
    ("simulate", "simulate", "simulate.simulate", _rows),
    ("cli", "identify", "identify.identify", None),
    ("harness", "identify", "identify.identify", None),
    ("identify", "identify", "identify.identify", None),
    ("bootstrap", "fit_conditional", "estimate.fit_conditional", None),
    ("estimate.CategoricalTable", "prob_rows", "estimate.prob_rows", None),
    ("cli", "cb_weights", "bootstrap.cb_weights", _ess),
    ("harness", "cb_weights", "bootstrap.cb_weights", _ess),
    ("bootstrap", "cb_weights", "bootstrap.cb_weights", _ess),
    ("cli", "cb_resample", "bootstrap.cb_resample", _draws),
    ("harness", "cb_resample", "bootstrap.cb_resample", _draws),
    ("bootstrap", "cb_resample", "bootstrap.cb_resample", _draws),
    ("cli", "da_resample", "bootstrap.da_resample", _rows),
    ("harness", "da_resample", "bootstrap.da_resample", _rows),
    ("bootstrap", "da_resample", "bootstrap.da_resample", _rows),
    ("harness", "train", "model.train", None),
    ("model", "loss_and_grad", "model.loss_and_grad", None),
    ("harness", "predict_proba", "model.predict_proba", None),
    ("model", "predict_proba", "model.predict_proba", None),
    ("harness", "auc", "model.auc", _auc_rows),
    ("model", "auc", "model.auc", _auc_rows),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("harness", "_run_cell", "harness.cell", None),
    ("harness", "_worker_count", "harness.worker_count", _workers),
)


def install(tracer: Tracer) -> None:
    for module, attr, layer, counter in _LAYERS:
        name, _, cls = module.partition(".")
        owner = importlib.import_module(f"causalboot.{name}")
        if cls:
            owner = getattr(owner, cls, None)
            if owner is None:
                tracer.missing.append(f"{module}.{attr}")
                continue
        tracer.install(owner, attr, layer, counter)


def _rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(result: Result, t: Tracer, traced: int, import_s: float) -> None:
    """Per-layer figures per traced round; a layer the workload does not
    reach reads 0."""
    per = 1.0 / traced
    put = result.put
    put("cli.import_s", import_s, "s")
    read, write = t.total("cli.read"), t.total("cli.write")
    put("cli.read_s", read * per, "s")
    put("cli.read_rows_per_s", _rate(t.count("cli.read", "rows"), read), "rows/s")
    put("cli.write_s", write * per, "s")
    put("cli.write_rows_per_s", _rate(t.count("cli.write", "rows"), write), "rows/s")
    put("cli.write_bytes", t.count("cli.write", "bytes") * per, "bytes")
    sim = t.total("simulate.simulate")
    put("simulate.simulate_s", sim * per, "s")
    put("simulate.calls", len(t.of("simulate.simulate")) * per, "count")
    put("simulate.rows_per_s", _rate(t.count("simulate.simulate", "rows"), sim), "rows/s")
    put("identify.identify_s", t.total("identify.identify") * per, "s")
    put("identify.calls", len(t.of("identify.identify")) * per, "count")
    put("estimate.fit_conditional_s", t.total("estimate.fit_conditional") * per, "s")
    put("estimate.fit_conditional_calls", len(t.of("estimate.fit_conditional")) * per, "count")
    put("estimate.prob_rows_s", t.total("estimate.prob_rows") * per, "s")
    put("estimate.prob_rows_calls", len(t.of("estimate.prob_rows")) * per, "count")
    put("bootstrap.cb_weights_s", t.self_time("bootstrap.cb_weights") * per, "s")
    put("bootstrap.cb_resample_s", t.total("bootstrap.cb_resample") * per, "s")
    put("bootstrap.da_resample_s", t.total("bootstrap.da_resample") * per, "s")
    drawn = t.count("bootstrap.cb_resample", "rows")
    put("bootstrap.rows_drawn", (drawn + t.count("bootstrap.da_resample", "rows")) * per, "count")
    put("bootstrap.distinct_draw_share", _rate(t.count("bootstrap.cb_resample", "distinct"), drawn), "share")
    put("bootstrap.kish_ess_share", _rate(t.count("bootstrap.cb_weights", "ess"), drawn), "share")
    put("model.train_s", t.total("model.train") * per, "s")
    put("model.train_calls", len(t.of("model.train")) * per, "count")
    put("model.steps", len(t.of("model.loss_and_grad")) * per, "count")
    put("model.loss_and_grad_s", t.total("model.loss_and_grad") * per, "s")
    put("model.predict_s", t.total("model.predict_proba") * per, "s")
    auc = t.total("model.auc")
    put("model.auc_s", auc * per, "s")
    put("model.auc_rows_per_s", _rate(t.count("model.auc", "rows"), auc), "rows/s")
    put("harness.run_experiment_s", t.total("harness.run_experiment") * per, "s")
    put("harness.cells", len(t.of("harness.cell")) * per, "count")
    put("harness.cell_s_p50", t.p50("harness.cell"), "s")
    put("harness.cell_busy_s", t.total("harness.cell") * per, "s")
    workers = [s.counts["workers"] for s in t.of("harness.worker_count")]
    put("harness.workers", max(workers, default=0), "count")


def traced_rounds(result: Result, seconds: float, body, name: str, import_s: float) -> None:
    """Pairs of (untraced, traced) in-process rounds.  body(k, tracer)
    returns the round's wall time, the one with k == 0 being checked."""
    tracer = Tracer()
    plain, traced = [], []

    def pair(k):
        plain.append(body(2 * k, None))
        install(tracer)
        try:
            traced.append(body(2 * k + 1, tracer))
        finally:
            tracer.uninstall()

    n = rounds(seconds, 1, pair)
    layer_metrics(result, tracer, n, import_s)
    result.put("trace.overhead_share", median(traced) / median(plain) - 1.0, "share")
    for missing in tracer.missing:
        result.notes.append(f"span missing: {missing} no longer exists")
    tracer.dump(WORK / f"trace-{name}.jsonl")


# --- csv_debias ----------------------------------------------------------------

def _probe_inputs(nonfinite: Path, rounding: Path) -> None:
    """Small scenario-c CSVs from the fixed seed 0, whatever --seed is:
    one with a feature set to inf, which bootstrap must reject with exit
    1, and one whose label counts the resampler's rounding fault cuts
    short, which cb must still turn into as many rows as it reads."""
    for path, rows in ((nonfinite, NONFINITE_ROWS), (rounding, ROUNDING_ROWS)):
        call = call_main(
            ["simulate", "--scenario", CSV_SCENARIO, "--n", str(rows),
             "--seed", "0", "--out", str(path)]
        )
        require_ok(call, f"simulate ({path.name})")
    lines = nonfinite.read_text().split("\n")
    fields = lines[10].split(",")
    fields[3] = "inf"
    lines[10] = ",".join(fields)
    nonfinite.write_text("\n".join(lines))


def _data_rows(path: Path) -> int:
    return path.read_text().count("\n") - 1 if path.exists() else -1


def _check_csv(sim: Path, cb: Path, da: Path, result: Result) -> None:
    header, rows = checks.parse_csv(sim.read_text())
    d = sum(1 for h in header if h.startswith("x"))
    col = {h: i for i, h in enumerate(header)}
    keys = {",".join(r[:d]): i for i, r in enumerate(rows)}
    checks.require(len(keys) == len(rows), "input has repeated feature rows")
    y, u, z, v = (np.array([int(r[col[c]]) for r in rows]) for c in ("y", "u", "z", "_v"))
    n = len(y)

    ess = checks.plugin_ess(CSV_SCENARIO, {"y": y, "u": u, "z": z})

    _, out = checks.parse_csv(cb.read_text())
    y_out = np.array([int(r[d]) for r in out])
    dropped = checks.debias_row_count(y_out, y)
    idx = checks.map_rows(keys, out, d)
    gap_u = checks.confounder_balance(y_out, u[idx], float(u.mean()), ess, n, "u")
    gap_v = checks.confounder_balance(y_out, v[idx], float(v.mean()), ess, n, "_v")
    result.notes.append(
        f"cb: {len(out)} rows ({dropped} dropped by the rounding fault), "
        f"ESS {ess[0]:.0f}/{ess[1]:.0f}, "
        f"label-confounder gap u {gap_u:.4f}, _v {gap_v:.4f}"
    )

    _, out = checks.parse_csv(da.read_text())
    idx = checks.map_rows(keys, out, d)
    checks.da_strata(y, u, np.array([int(r[d]) for r in out]), u[idx])
    result.notes.append(f"da: {len(out)} rows ({len(out) / n:.2f}x the input)")


def csv_debias(seed: int, seconds: float, trace: bool, result: Result) -> None:
    """The CLI on a scenario-c CSV: simulate, then bootstrap cb and da.
    Every round also runs three untimed probes of known faults on fixed
    inputs: both bootstrap methods on a non-finite feature, which they
    must reject, and cb on label counts that its rounding cuts short."""
    env = child_env(None)
    work = Path(tempfile.mkdtemp(prefix="csv-", dir=WORK))
    nonfinite, rounding = work / "nonfinite.csv", work / "rounding.csv"
    try:
        import_s = timed_setup(result, env, lambda: _probe_inputs(nonfinite, rounding))
        timed = ("simulate", "cb", "da")
        times = {op: [] for op in (*timed, "round")}
        rss = {op: [] for op in (*timed, "round")}
        first: dict[str, bytes] = {}

        def body(k: int, tracer: Tracer | None) -> float:
            sim, cb, da = (work / f"{name}{k}.csv" for name in ("sim", "cb", "da"))
            boot = ["bootstrap", "--scenario", CSV_SCENARIO, "--seed", str(seed)]
            fixed = ["bootstrap", "--scenario", CSV_SCENARIO, "--seed", "0"]
            rounded = work / "rounding_cb.csv"
            ops = {
                "simulate": ["simulate", "--scenario", CSV_SCENARIO, "--n", str(CSV_ROWS),
                             "--seed", str(seed), "--out", str(sim)],
                "cb": boot + ["--method", "cb", "--in", str(sim), "--out", str(cb)],
                "da": boot + ["--method", "da", "--in", str(sim), "--out", str(da)],
                "cb_nonfinite": fixed + ["--method", "cb", "--in", str(nonfinite),
                                         "--out", str(work / "nf_cb.csv")],
                "da_nonfinite": fixed + ["--method", "da", "--in", str(nonfinite),
                                         "--out", str(work / "nf_da.csv")],
                "cb_rounding": fixed + ["--method", "cb", "--in", str(rounding),
                                        "--out", str(rounded)],
            }
            # each probe's failure, from its call: the known faults
            probes = {
                "cb_nonfinite": lambda call: call.code != 1,
                "da_nonfinite": lambda call: call.code != 1,
                "cb_rounding": lambda call: call.code != 0 or _data_rows(rounded) != ROUNDING_ROWS,
            }
            wall = 0.0
            for op, argv in ops.items():
                log = work / f"{op}.log"
                if trace:
                    call = tracer.operation(op, call_main, argv) if tracer else call_main(argv)
                else:
                    call = run_cli(argv, env, log)
                wall += call.seconds
                result.attempted += 1
                if op in probes:
                    result.failed += int(probes[op](call))
                    rounded.unlink(missing_ok=True)
                    continue
                require_ok(call, op, log)
                if not trace:
                    times[op].append(call.seconds)
                    rss[op].append(call.peak_rss_mb)
            if not trace:
                times["round"].append(sum(times[op][-1] for op in timed))
                rss["round"].append(max(rss[op][-1] for op in timed))
            blobs = {"simulate": digest(sim), "cb": digest(cb), "da": digest(da)}
            if k == 0:
                _check_csv(sim, cb, da, result)
                first.update(blobs)
            for op, blob in blobs.items():
                checks.identical(first[op], blob, f"{op} output, call {k + 1},")
            if k > 0:
                for path in (sim, cb, da):
                    path.unlink()
            return wall

        if trace:
            traced_rounds(result, seconds, body, "csv_debias", import_s)
        else:
            n = rounds(seconds, CSV_ROUNDS, lambda k: body(k, None))
            result.put("round_s", median(times["round"]), "s")
            result.put("peak_rss_mb", median(rss["round"]), "MB")
            result.put("simulate_csv_s", median(times["simulate"]), "s")
            result.put("debias_s", median(times["cb"]), "s")
            result.put("balance_s", median(times["da"]), "s")
            result.put("debias_peak_rss_mb", median(rss["cb"]), "MB")
            result.notes.append(f"{n} rounds of {CSV_ROWS} rows")
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- grid_sweep ------------------------------------------------------------------

def grid_spec() -> str:
    """The A8 signal sweep, on the A8 grid seeds 0-4 whatever --seed is:
    the A8 tolerance of 0.05 on the cb gap holds for these, but other
    seed sets miss it by sampling noise alone (1505-1509: 0.0512)."""
    levels = ",".join(repr(v) for v in GRID_LEVELS)
    return (
        "scenarios=a\nmethods=simple,cb\n"
        f"complexity_sweep={levels}\nseeds=0,1,2,3,4\n"
        "n_train=2000\nn_test=2000\ntrain.kind=linear\ntrain.epochs=60\n"
    )


def grid_sweep(seed: int, seconds: float, trace: bool, result: Result) -> None:
    """`causal-boot run` on the A8 grid, GRID_WORKERS cells at a time."""
    env = child_env(GRID_WORKERS)
    work = Path(tempfile.mkdtemp(prefix="grid-", dir=WORK))
    spec = work / "spec.txt"
    saved = os.environ.get("CAUSAL_BOOT_WORKERS")
    try:
        import_s = timed_setup(result, env, lambda: spec.write_text(grid_spec()))
        result.notes.append(f"grid workers: {GRID_WORKERS} (CAUSAL_BOOT_WORKERS)")
        if trace:  # in-process runs read the worker count from this process
            os.environ["CAUSAL_BOOT_WORKERS"] = str(GRID_WORKERS)
        walls: list[float] = []
        rss: list[float] = []
        first: list[bytes] = []

        def body(k: int, tracer: Tracer | None) -> float:
            out = work / f"run{k}"
            argv = ["run", "--spec", str(spec), "--out", str(out)]
            log = work / "run.log"
            if trace:
                call = tracer.operation("run", call_main, argv) if tracer else call_main(argv)
            else:
                call = run_cli(argv, env, log)
            if call.code not in (0, 4):  # 4: some cells failed, still a result
                require_ok(call, "run", log)
            text = (out / "results.csv").read_text()
            result.attempted += GRID_CELLS
            result.failed += checks.failed_cells(text)
            if k == 0:
                records = checks.grid_rows(text, 4 * GRID_CELLS)
                checks.a8_properties(records, GRID_LEVELS)
                first.append(text.encode())
            checks.identical(first[0], text.encode(), f"results.csv, run {k + 1},")
            walls.append(call.seconds)
            rss.append(call.peak_rss_mb)
            return call.seconds

        if trace:
            traced_rounds(result, seconds, body, "grid_sweep", import_s)
        else:
            n = rounds(seconds, GRID_ROUNDS, lambda k: body(k, None))
            result.put("round_s", median(walls), "s")
            result.put("peak_rss_mb", median(rss), "MB")
            result.put("grid_cells_per_s", median([GRID_CELLS / w for w in walls]), "cells/s")
            result.notes.append(f"{n} grids of {GRID_CELLS} cells")
    finally:
        if saved is None:
            os.environ.pop("CAUSAL_BOOT_WORKERS", None)
        else:
            os.environ["CAUSAL_BOOT_WORKERS"] = saved
        shutil.rmtree(work, ignore_errors=True)


# --- resample_1e6 ------------------------------------------------------------------

def _do_mean(cfg, c: int) -> np.ndarray:
    """E[x | do(y=c)] in closed form: the sum of each X parent's offset
    times that parent's mean under the intervention.  Confounders keep
    their training marginals; the mediator follows the forced label."""
    p_u = cfg.p * cfg.q_c + (1 - cfg.p) * (1 - cfg.q_c)
    p_v = cfg.p * cfg.qp + (1 - cfg.p) * (1 - cfg.qp)
    r_c = cfg.r1 if c == 1 else cfg.r0
    means = {"y": c, "u": p_u, "v": p_v, "z": r_c}
    parents = {"a": "yu", "b": "uz", "c": "uzv", "d": "zu", "e": "yu"}[cfg.scenario.value]
    return sum(means[p] * getattr(cfg, f"delta_{p}") for p in parents)


def resample_1e6(seed: int, seconds: float, trace: bool, result: Result) -> None:
    """In-process: for scenarios a-e, simulate 1e6 rows, identify,
    weigh, resample, then score the resample with a fixed linear scorer
    and auc."""
    env = child_env(None)
    mods = {}
    configs = {}

    def prepare():
        for name in ("simulate", "identify", "bootstrap", "model", "graph"):
            mods[name] = importlib.import_module(f"causalboot.{name}")
        for s in "abcde":
            configs[s] = mods["simulate"].SimConfig(scenario=s, n=RESAMPLE_ROWS)

    import_s = timed_setup(result, env, prepare)
    sim, ident, boot, model, graph = (mods[m] for m in ("simulate", "identify", "bootstrap", "model", "graph"))
    pipeline, scoring, walls, rss = [], [], [], []
    worst = {"u": 0.0, "mean": 0.0}
    ess_of: dict[str, dict[int, float]] = {}  # the inputs repeat each round
    aucs: dict[str, float] = {}

    def body(k: int, tracer: Tracer | None) -> float:
        t_pipe = t_score = 0.0
        rows_in = rows_scored = 0
        for s, cfg in configs.items():
            def pipe():
                data = sim.simulate(cfg, "conf", seed)
                outcome = ident.identify(graph.scenario_graph(s), ("X",), ("Y",))
                checks.require(isinstance(outcome, ident.Identified), f"{s}: not identified")
                table = boot.cb_weights(data.weight_columns(), s)
                out = boot.cb_resample(data, table, boot.ResampleConfig(seed=seed))
                return data, table, out

            def score(out):
                offset = cfg.delta_y if s in "ae" else cfg.delta_z
                scorer = model.LinearModel(weights=offset, bias=0.0)
                scores = model.predict_proba(scorer, out.x)
                return scores, model.auc(scores, out.y)

            result.attempted += 1
            start = time.perf_counter()
            data, table, out = tracer.operation(f"pipeline.{s}", pipe) if tracer else pipe()
            mid = time.perf_counter()
            scores, value = tracer.operation(f"score.{s}", score, out) if tracer else score(out)
            t_pipe += mid - start
            t_score += time.perf_counter() - mid
            rows_in += data.n
            rows_scored += out.n

            checks.weight_sums(table.weights, table.classes)
            if s not in ess_of:
                ess_of[s] = checks.plugin_ess(s, data.weight_columns())
            ess = ess_of[s]
            u_in = {**data.columns, **data.shadow}["u"]
            gap = checks.confounder_balance(out.y, out.shadow["u"], float(u_in.mean()), ess, data.n, "u")
            means = {c: _do_mean(cfg, c) for c in table.classes}
            fit = checks.feature_means(out.x, out.y, means, ess)
            checks.auc_matches(value, scores, out.y)
            checks.require(aucs.setdefault(s, value) == value, f"{s}: auc changed between rounds")
            worst["u"] = max(worst["u"], gap)
            worst["mean"] = max(worst["mean"], fit)
            del data, table, out, scores
        pipeline.append(rows_in / t_pipe)
        scoring.append(rows_scored / t_score)
        walls.append(t_pipe + t_score)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return t_pipe + t_score

    if trace:
        traced_rounds(result, seconds, body, "resample_1e6", import_s)
    else:
        n = rounds(seconds, RESAMPLE_ROUNDS, lambda k: body(k, None))
        result.put("round_s", median(walls), "s")
        result.put("peak_rss_mb", median(rss), "MB")
        result.put("pipeline_rows_per_s", median(pipeline), "rows/s")
        result.put("score_rows_per_s", median(scoring), "rows/s")
        result.notes.append(f"{n} rounds of 5 x {RESAMPLE_ROWS} rows")
    result.notes.append(
        f"largest label-confounder gap {worst['u']:.5f}; "
        f"largest mean gap {worst['mean']:.2f} of its bound"
    )


WORKLOADS = {
    "csv_debias": csv_debias,
    "grid_sweep": grid_sweep,
    "resample_1e6": resample_1e6,
}
