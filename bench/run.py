"""Benchmark of the causal-boot debiasing pipeline.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs made from BENCHMARK.json name one workload and pass all four
options.  Without ``--workload`` every workload runs in turn;
``--seconds``, how long each workload measures, defaults to
``run_seconds`` in BENCHMARK.json, the one place it is set.

Runs from a plain source checkout: src/ goes on this process's import
path and on every child's PYTHONPATH, nothing is installed.  Each
workload prints its notes and every figure it took, one per line, then
one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the metrics BENCHMARK.json names: its end-to-end metrics
(``--trace 0``) or its per-layer metrics (``--trace 1``).  Those are
the figures every workload has; the figures of a layer or operation
only some workloads reach are printed on the lines above it.
Scratch files go to a temporary directory under bench/.work, which is
removed at exit; traced runs leave their spans there as
trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = MANIFEST["run_seconds"]


def _run(name: str, seed: int, seconds: float, trace: bool):
    import checks
    import workloads

    result = workloads.Result()
    try:
        workloads.WORKLOADS[name](seed, seconds, trace, result)
    except checks.CheckFailed as exc:
        result.correct = False
        print(f"{name}: check failed: {exc}", file=sys.stderr)
    for note in result.notes:
        print(f"{name}: {note}")
    for metric, (value, unit) in result.metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    print(f"{name}: attempted {result.attempted}, failed {result.failed}")
    return result


def _line(name: str, result, trace: bool) -> str:
    """The result line: every metric BENCHMARK.json names for this mode,
    in the unit it names."""
    import workloads

    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result.metrics:
            raise workloads.BenchError(f"{name} took no figure for {m['name']}")
        value, unit = result.metrics[m["name"]]
        if unit != m["unit"]:
            raise workloads.BenchError(f"{name}: {m['name']} is in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "causalboot" / "cli.py").is_file():
        print(f"error: no causal-boot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; pick from {sorted(workloads.WORKLOADS)} or all")
    workloads.WORK.mkdir(exist_ok=True)

    correct = True
    for name in names:
        try:
            result = _run(name, args.seed, args.seconds, bool(args.trace))
            line = _line(name, result, bool(args.trace))
        except workloads.BenchError as exc:
            traceback.print_exc()
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(line)
        correct = correct and result.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
