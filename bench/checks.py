"""Output checks for the benchmark workloads.

Every check recomputes what it compares against from the inputs, or
tests a property the method must have; none compares against a stored
copy of earlier output.  A failed check raises :class:`CheckFailed`.

Statistical checks use bounds derived from the Kish effective sample
size of the resampling weights (see README.md, "Bounds"):

    bound = Z * s * sqrt(1/M_c + 1/ESS_c [+ 1/N])

with s the per-row standard deviation of the checked quantity, M_c the
rows drawn for class c, ESS_c = (sum w)^2 / sum w^2 for class c's
weights from the benchmark's own plug-in formula (``plugin_ess``), and
N the input rows when the reference is itself an estimate from the
input.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

Z = 5.0  # standard errors allowed before a statistical check fails


class CheckFailed(AssertionError):
    """A workload output broke a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- shared ------------------------------------------------------------------

def identical(first: bytes, again: bytes, what: str) -> None:
    """A repeated call with the same arguments gives the same bytes."""
    require(again == first, f"{what} differs from the first call's")


def kish_ess(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    return float(w.sum() ** 2 / (w * w).sum())


def ess_bound(sd: float, drawn: int, ess: float, n_ref: int | None = None) -> float:
    var = 1.0 / drawn + 1.0 / ess + (1.0 / n_ref if n_ref else 0.0)
    return Z * sd * math.sqrt(var)


def _cond(target, *given) -> np.ndarray:
    """P(target = the row's value | given = the row's values) at every
    row, counted from small non-negative integer columns."""
    key = np.zeros(len(target), dtype=np.int64)
    for g in given:
        g = np.asarray(g, dtype=np.int64)
        key = key * (int(g.max()) + 1) + g
    target = np.asarray(target, dtype=np.int64)
    joint = key * (int(target.max()) + 1) + target
    return np.bincount(joint)[joint] / np.bincount(key)[key]


def plugin_ess(scenario: str, cols) -> dict[int, float]:
    """Kish ESS of every class's weight column, the weights taken from
    the benchmark's own plug-in formula for the scenario, from observed
    columns only (ESS does not depend on their scale):

        a, e:  1[y=c] / P(y=c | u)
        b:     P(z | y=c) / P(z | u)
        c:     P(z | y=c) / P(z | y, u)
        d:     P(z | y=c) / P(z | y)
    """
    y = np.asarray(cols["y"], dtype=np.int64)
    classes = [int(c) for c in np.unique(y)]
    if scenario in ("a", "e"):
        p = _cond(y, cols["u"])
        return {c: kish_ess(np.where(y == c, 1.0 / p, 0.0)) for c in classes}
    z = np.asarray(cols["z"], dtype=np.int64)
    given = {"b": ("u",), "c": ("y", "u"), "d": ("y",)}[scenario]
    den = _cond(z, *(cols[g] for g in given))
    ess = {}
    for c in classes:
        p_z_c = np.bincount(z[y == c], minlength=int(z.max()) + 1) / (y == c).sum()
        ess[c] = kish_ess(p_z_c[z] / den)
    return ess


def confounder_balance(
    y_out: np.ndarray,
    conf_out: np.ndarray,
    p_ref: float,
    ess: dict[int, float],
    n_ref: int | None,
    name: str,
) -> float:
    """max_c |P(conf=1 | y=c) - P(conf=1)| on a resample, checked against
    the ESS-derived bound for each class.  Returns the largest gap."""
    sd = math.sqrt(p_ref * (1.0 - p_ref))
    worst = 0.0
    for c, e in ess.items():
        mask = y_out == c
        drawn = int(mask.sum())
        require(drawn > 0, f"{name}: no resampled rows for class {c}")
        gap = abs(float(conf_out[mask].mean()) - p_ref)
        bound = ess_bound(sd, drawn, e, n_ref)
        require(
            gap <= bound,
            f"{name}: |P({name}=1|y={c}) - P({name}=1)| = {gap:.5f} > {bound:.5f}",
        )
        worst = max(worst, gap)
    return worst


# --- csv_debias ----------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    require(lines[-1] == "", "CSV does not end with a newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def map_rows(in_keys: dict[str, int], out_rows: list[list[str]], d: int) -> np.ndarray:
    """Input row index of every output row, matching the d feature fields
    byte for byte (a delta kernel copies features unchanged)."""
    idx = np.empty(len(out_rows), dtype=np.int64)
    for i, row in enumerate(out_rows):
        key = ",".join(row[:d])
        j = in_keys.get(key)
        require(j is not None, f"output row {i + 2} is not an input row")
        idx[i] = j
    return idx


def rounding_shortfall(n: int, count: int) -> int:
    """Rows the known rounding fault drops from a class of `count` in `n`
    input rows: cb_resample draws int(n * p) with p = count / n held as a
    double, which falls one below count for some counts."""
    return count - int(n * (count / n))


def debias_row_count(y_out: np.ndarray, y_in: np.ndarray) -> int:
    """cb draws N * p_c = count_c rows of every class c, p_c the input
    label share.  The one shortfall allowed is the known rounding fault,
    which the rounding probe of csv_debias counts as a failed operation
    on a fixed input; returns the rows it dropped here."""
    n, dropped = len(y_in), 0
    for c in np.unique(y_in):
        want = int((y_in == c).sum())
        got = int((y_out == c).sum())
        short = rounding_shortfall(n, want)
        require(
            got == want or (short > 0 and got == want - short),
            f"cb output has {got} rows of class {c}, expected {want}",
        )
        dropped += want - got
    return dropped


def da_strata(y_in, u_in, y_out, u_out) -> None:
    """Every (y, u) stratum of the balanced output has the size of its
    label's largest input stratum."""
    for yv in np.unique(y_in):
        sizes = {int(uv): int(((y_in == yv) & (u_in == uv)).sum()) for uv in np.unique(u_in)}
        target = max(sizes.values())
        for uv in sizes:
            got = int(((y_out == yv) & (u_out == uv)).sum())
            require(
                got == target,
                f"da stratum y={yv}, u={uv} has {got} rows, expected {target}",
            )


# --- grid_sweep ------------------------------------------------------------------

def spearman(xs, ys) -> float:
    rx = np.argsort(np.argsort(np.asarray(xs, dtype=float))).astype(float)
    ry = np.argsort(np.argsort(np.asarray(ys, dtype=float))).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def grid_rows(text: str, expected_rows: int) -> list[dict]:
    """All rows ok, each AUC in [0, 1]."""
    records = list(csv.DictReader(io.StringIO(text)))
    require(len(records) == expected_rows, f"{len(records)} result rows, expected {expected_rows}")
    for r in records:
        require(r["status"] == "ok", f"row {r} is not ok")
        value = float(r["auc"])
        require(0.0 <= value <= 1.0, f"auc {value!r} outside [0, 1]")
    return records


def failed_cells(text: str) -> int:
    """Grid cells (method, level, seed) with at least one error row."""
    rows = csv.DictReader(io.StringIO(text))
    return len({(r["method"], r["qc"], r["seed"]) for r in rows if r["status"].startswith("error")})


def _mean_auc(records, method, regime, level) -> float:
    picked = [
        float(r["auc"])
        for r in records
        if r["method"] == method and r["regime"] == regime and float(r["qc"]) == level
    ]
    require(bool(picked), f"no {method}/{regime} rows at level {level}")
    return float(np.mean(picked))


def a8_properties(records: list[dict], levels) -> None:
    """The plain model's unconf-revconf gap falls as the label signal
    grows; the cb model has no gap at any level."""
    simple = [
        _mean_auc(records, "simple", "unconf", v) - _mean_auc(records, "simple", "revconf", v)
        for v in levels
    ]
    rho = spearman(levels, simple)
    require(rho <= -0.8, f"Spearman(levels, simple gap) = {rho:.3f} > -0.8")
    for v in levels:
        gap = _mean_auc(records, "cb", "unconf", v) - _mean_auc(records, "cb", "revconf", v)
        require(abs(gap) <= 0.05, f"cb |unconf - revconf| = {abs(gap):.4f} > 0.05 at {v}")


# --- resample_1e6 ------------------------------------------------------------------

def weight_sums(weights: np.ndarray, classes) -> None:
    for k, c in enumerate(classes):
        total = float(weights[:, k].sum())
        require(abs(total - 1.0) <= 1e-9, f"class {c} weights sum to {total!r}")


def feature_means(x_out, y_out, expected: dict[int, np.ndarray], ess: dict[int, float]) -> float:
    """Per-class feature means of the resample against E[x | do(y=c)],
    coordinate by coordinate.  Returns the largest gap in bound units."""
    worst = 0.0
    for c, mu in expected.items():
        rows = x_out[y_out == c]
        sd = rows.std(axis=0)
        gap = np.abs(rows.mean(axis=0) - mu)
        bound = np.array([ess_bound(s, len(rows), ess[c]) for s in sd])
        j = int(np.argmax(gap / bound))
        require(
            bool(np.all(gap <= bound)),
            f"class {c}: mean of x{j} is {gap[j]:.5f} from E[x|do(y)], bound {bound[j]:.5f}",
        )
        worst = max(worst, float(gap[j] / bound[j]))
    return worst


def concordance_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(positive outranks negative), ties half, by sorted search."""
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    lo = np.searchsorted(neg, pos, side="left")
    hi = np.searchsorted(neg, pos, side="right")
    twice_wins = 2 * int(lo.sum()) + int((hi - lo).sum())
    return twice_wins / (2 * len(pos) * len(neg))


def auc_matches(value: float, scores, labels) -> None:
    want = concordance_auc(np.asarray(scores), np.asarray(labels))
    require(abs(value - want) <= 1e-12, f"auc {value!r} differs from concordance {want!r}")
