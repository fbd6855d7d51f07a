"""Structural-equation data generation for the five scenarios.

Sampling is ancestral: Y first, then the confounders, the mediator, the
care level, and finally the features.  Four test regimes change only the
confounder laws P(U|Y) (and P(V|Y) where a hidden confounder exists):

* conf     - the training law: P(U=1|Y=1) = q_c, P(U=1|Y=0) = 1 - q_c
* unconf   - confounders independent of the label (both rates 0.5)
* revconf  - the training law with the label roles swapped
* unseen   - U pinned to the third value 2, with its own feature offset

Structural mechanisms (the mediator law, the care-level table, and
P(X|parents)) never vary across regimes.  X's parents and the shadow
columns come from the scenario graphs (``graph.X_PARENTS`` and
``graph.SHADOW_COLUMNS``): the shadow columns are X's latent parents (V
in scenario c, U in scenario d), carried for diagnostics only.

Features are Gaussian around a sum of per-parent offset vectors.  The
discrete feature mode replaces that draw with a small categorical whose
per-parent-configuration table comes from binning the Gaussian law on
its first coordinate; it exists so exact interventional and
observational distributions can be computed by finite summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import product
from typing import Mapping

import numpy as np

from .errors import CausalBootError
from .graph import (
    OBSERVED_COLUMNS,
    SHADOW_COLUMNS,
    X_PARENTS,
    ScenarioId,
    descendants,
    scenario_graph,
)
from .rng import stream


class SimulateError(CausalBootError):
    """Invalid simulation configuration or request."""


class TestRegime(Enum):
    __test__ = False  # not a test case despite the name

    CONF = "conf"
    UNCONF = "unconf"
    REVCONF = "revconf"
    UNSEEN = "unseen"

    @classmethod
    def coerce(cls, value) -> "TestRegime":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            low = value.lower().replace("-", "").replace("_", "")
            for member in cls:
                if low in (member.value, member.name.lower()):
                    return member
        raise SimulateError(f"unknown test regime {value!r}")


# Offset scale frozen by a one-off sweep so that a logistic model trained
# and tested without confounding sits near 0.85 AUC at the defaults.
DELTA_SCALE = 1.4657

# The feature draws: Gaussian, or its binning into a small categorical.
X_MODES = ("gaussian", "discrete")

# Largest n a draw may have: it is held in memory, 80 MB of float64
# features per million rows at the default ten feature dimensions.
MAX_ROWS = 10_000_000

# Largest support of the discrete feature: its tables are built value
# by value for every parent configuration, about 0.1 s at this size.
MAX_X_SUPPORT = 10_000

# Rows whose feature means are gathered and added at once.
_BLOCK_ROWS = 1 << 14


def _unit_offset(dim: int, axis: int, scale: float = DELTA_SCALE) -> np.ndarray:
    if axis >= dim:
        raise SimulateError(f"feature_dim {dim} too small for default offsets")
    v = np.zeros(dim)
    v[axis] = scale
    return v


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise SimulateError(f"{name} must lie in [0,1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SimConfig:
    """All knobs of the generator; None offsets fall back to the frozen
    defaults (orthogonal unit directions scaled by DELTA_SCALE)."""

    scenario: ScenarioId
    n: int
    p: float = 0.5
    q_c: float = 0.95
    qp_c: float | None = None  # hidden-confounder strength; defaults to q_c
    r0: float = 0.05
    r1: float = 0.95
    f10: float = 0.8  # P(D=1 | Y=1, U=0); f(0,u) = 1 - f(1,u); f(y,2) = 0.5
    f11: float = 0.95  # P(D=1 | Y=1, U=1)
    feature_dim: int = 10
    sigma: float = 1.0
    delta_y: np.ndarray | None = None
    delta_u: np.ndarray | None = None
    delta_z: np.ndarray | None = None
    delta_v: np.ndarray | None = None
    delta_u2: np.ndarray | None = None
    x_mode: str = "gaussian"
    x_support: int = 8

    def __post_init__(self):
        object.__setattr__(self, "scenario", ScenarioId.coerce(self.scenario))
        if not 1 <= self.n <= MAX_ROWS:
            raise SimulateError(
                f"n must be positive and at most {MAX_ROWS}, got {self.n!r}"
            )
        for name in ("p", "q_c", "r0", "r1", "f10", "f11"):
            _check_prob(name, getattr(self, name))
        if self.qp_c is not None:
            _check_prob("qp_c", self.qp_c)
        if not 0 < self.sigma < math.inf:
            raise SimulateError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.feature_dim < 1:
            raise SimulateError("feature_dim must be at least 1")
        if self.x_mode not in X_MODES:
            raise SimulateError(f"unknown x_mode {self.x_mode!r}")
        if self.x_mode == "discrete" and self.x_support < 2:
            raise SimulateError("discrete features need support of at least 2")
        # a draw holds at most as many values as MAX_ROWS rows of the default width
        cap = MAX_ROWS * SimConfig.feature_dim
        widths = {"feature_dim": self.feature_dim}
        if self.x_mode == "discrete":
            widths["x_support"] = self.x_support
        for name, width in widths.items():
            if self.n * width > cap:
                raise SimulateError(
                    f"n * {name} must be at most {cap}, got {self.n} * {width}"
                )
        if self.x_mode == "discrete" and self.x_support > MAX_X_SUPPORT:
            raise SimulateError(
                f"x_support must be at most {MAX_X_SUPPORT}, got {self.x_support}"
            )
        parents = X_PARENTS[self.scenario]
        for var, axis in (("y", 0), ("u", 1), ("z", 0), ("v", 2), ("u2", 3)):
            name = f"delta_{var}"
            value = getattr(self, name)
            if value is None:
                # the unseen-domain offset is optional: set only where it fits
                if var not in parents and (var != "u2" or self.feature_dim <= axis):
                    continue
                value = _unit_offset(self.feature_dim, axis)
            else:
                value = np.asarray(value, dtype=float)
                if value.shape != (self.feature_dim,):
                    raise SimulateError(
                        f"{name} must have shape ({self.feature_dim},), got {value.shape}"
                    )
                if not np.isfinite(value).all():
                    raise SimulateError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def qp(self) -> float:
        return self.q_c if self.qp_c is None else self.qp_c


# The scalar knobs of SimConfig, each typed by its default (qp_c, which
# defaults to None, is a float): what a spec file's sim.* keys and the
# simulate command's flags may set.
_SIM_KEYS = {
    f.name: float if f.default is None else type(f.default)
    for f in fields(SimConfig)
    if f.name not in ("scenario", "n") and not f.name.startswith("delta_")
}


@dataclass(frozen=True)
class Dataset:
    """Simulated sample: features, labels, scenario columns, diagnostics."""

    x: np.ndarray
    y: np.ndarray
    columns: Mapping[str, np.ndarray]
    shadow: Mapping[str, np.ndarray]

    def __post_init__(self):
        n = len(self.y)
        if len(self.x) != n:
            raise SimulateError("x and y lengths differ")
        for name, col in list(self.columns.items()) + list(self.shadow.items()):
            if len(col) != n:
                raise SimulateError(f"column {name!r} length differs from y")

    @property
    def n(self) -> int:
        return len(self.y)

    def weight_columns(self) -> dict[str, np.ndarray]:
        """Label plus observed discrete columns, as estimation input."""
        return {"y": self.y, **self.columns}


def _rates(cfg: SimConfig, regime: TestRegime) -> dict[str, tuple[float, float] | None]:
    """(P(.=1|Y=1), P(.=1|Y=0)) of u, v and z under one regime.  The
    confounders' rates follow the regime and the mediator's never vary;
    u's is None where the regime pins it to the unseen domain, and v is
    then independent of the label."""

    def coupled(q: float) -> tuple[float, float] | None:
        return {
            TestRegime.CONF: (q, 1.0 - q),
            TestRegime.UNCONF: (0.5, 0.5),
            TestRegime.REVCONF: (1.0 - q, q),
        }.get(regime)

    return {
        "u": coupled(cfg.q_c),
        "v": coupled(cfg.qp) or (0.5, 0.5),
        "z": (cfg.r1, cfg.r0),
    }


def _offsets(cfg: SimConfig, parent: str) -> np.ndarray:
    """Mean contribution of each value of one parent to X, one row per
    value: zero, then the parent's offset, then the unseen-domain offset
    of U where the config has one."""
    rows = [np.zeros(cfg.feature_dim), getattr(cfg, f"delta_{parent}")]
    if parent == "u" and cfg.delta_u2 is not None:
        rows.append(cfg.delta_u2)
    return np.stack(rows)


def _phi(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def _projection(dim: int) -> np.ndarray:
    """Fixed unit direction with distinct per-axis weights, so every
    parent offset moves the projected score by its own amount."""
    w = 1.0 / np.arange(1, dim + 1)
    return w / np.linalg.norm(w)


def _discrete_tables(cfg: SimConfig):
    """Per parent-configuration categorical law for the discrete feature.

    The discrete feature is an exact binning of the Gaussian law
    projected onto a fixed unit direction: bin mass between evenly
    spaced cuts spanning [min score - sigma, max score + sigma].
    """
    parents = X_PARENTS[cfg.scenario]
    w = _projection(cfg.feature_dim)
    projected = [[row @ w for row in _offsets(cfg, parent)] for parent in parents]
    scores = {
        config: float(sum(score[value] for score, value in zip(projected, config)))
        for config in product(*(range(len(score)) for score in projected))
    }
    lo = min(scores.values()) - cfg.sigma
    hi = max(scores.values()) + cfg.sigma
    cuts = np.linspace(lo, hi, cfg.x_support - 1)
    tables = {}
    for config, s in scores.items():
        edges = [-math.inf, *((c - s) / cfg.sigma for c in cuts), math.inf]
        probs = np.array(
            [_phi(edges[k + 1]) - _phi(edges[k]) for k in range(cfg.x_support)]
        )
        tables[config] = probs / probs.sum()
    return parents, tables


def simulate(cfg: SimConfig, regime, seed: int) -> Dataset:
    """Draw one dataset; identical inputs give identical bytes.

    Draw order is fixed: y, u, v (scenario c), z, d (scenario e), x.
    """
    regime = TestRegime.coerce(regime)
    rng = stream(seed, "simulate", cfg.scenario.value, regime.value)
    n = cfg.n
    parents = X_PARENTS[cfg.scenario]
    observed = OBSERVED_COLUMNS[cfg.scenario]
    rates = _rates(cfg, regime)

    def draw(rate_1, rate_0) -> np.ndarray:
        """0/1 column with P(.=1) = rate_1 where y = 1, else rate_0."""
        threshold = np.where(y == 1, rate_1, rate_0)
        return (rng.random(n) < threshold).astype(np.int64)

    y = (rng.random(n) < cfg.p).astype(np.int64)
    if rates["u"] is None:
        if cfg.delta_u2 is None:
            raise SimulateError("config lacks an offset for the unseen domain")
        u = np.full(n, 2, dtype=np.int64)
    else:
        u = draw(*rates["u"])
    drawn = {"y": y, "u": u}
    for name in ("v", "z"):
        if name in parents:
            drawn[name] = draw(*rates[name])
    if "d" in observed:
        base = np.where(u == 1, cfg.f11, cfg.f10)
        base = np.where(u == 2, 0.5, base)
        drawn["d"] = draw(base, 1.0 - base)

    # each row's parent configuration as one flat cell, in the row-major
    # order of the tables below
    sizes = [len(_offsets(cfg, parent)) for parent in parents]
    cell = np.ravel_multi_index([drawn[parent] for parent in parents], sizes)
    if cfg.x_mode == "gaussian":
        # X's mean for every parent configuration, summed in parent order
        # from zeros, then gathered by cell and added a block of rows at a
        # time, so no n-row copy of the means is built
        table = np.zeros(cfg.feature_dim)
        for parent in parents:
            table = table[..., None, :] + _offsets(cfg, parent)
        means = table.reshape(-1, cfg.feature_dim)
        x = rng.standard_normal((n, cfg.feature_dim))
        x *= cfg.sigma
        for lo in range(0, n, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            x[rows] += means.take(cell[rows], axis=0)
    else:
        probs = np.stack(list(_discrete_tables(cfg)[1].values()))
        cum = np.cumsum(probs.take(cell, axis=0), axis=1)
        x = (rng.random((n, 1)) < cum).argmax(axis=1).astype(np.int64)

    columns = {name: drawn[name] for name in observed}
    shadow = {name: drawn[name] for name in SHADOW_COLUMNS[cfg.scenario]}
    return Dataset(x=x, y=y, columns=columns, shadow=shadow)


# ---------------------------------------------------------------------------
# exact finite oracles (discrete feature mode)


def _exact_table(cfg: SimConfig, observational: bool) -> np.ndarray:
    """Sum the feature law over every X-parent configuration, weighted by
    the configuration's training probability given y (observational) or
    under do(y).  Under do(y) the label's graph descendants follow the
    forced label, and X's other parents keep their joint training law,
    sum over y' of P(y') times their factors given y'."""
    if cfg.x_mode != "discrete":
        raise SimulateError("exact tables need x_mode='discrete'")
    parents, tables = _discrete_tables(cfg)
    rates = _rates(cfg, TestRegime.CONF)
    prior = (1.0 - cfg.p, cfg.p)
    forced = set(parents)
    if not observational:
        graph = scenario_graph(cfg.scenario)
        forced &= {v.lower() for v in descendants(graph, ("Y",))}

    def given(values, y: int) -> float:
        """Product of each (parent, value) factor given Y=y: the label's
        is an indicator, and U's unseen value never occurs in training."""
        w = 1.0
        for name, value in values:
            if name == "y":
                w *= float(value == y)
            else:
                rate = rates[name][1 - y]
                w *= (1.0 - rate, rate, 0.0)[value]
        return w

    out = np.zeros((2, cfg.x_support))
    for y in (0, 1):
        for config, probs in tables.items():
            values = list(zip(parents, config))
            w = given([item for item in values if item[0] in forced], y)
            free = [item for item in values if item[0] not in forced]
            if free:
                w *= sum(prior[yp] * given(free, yp) for yp in (0, 1))
            out[y] += w * probs
        total = out[y].sum()
        if abs(total - 1.0) > 1e-12:
            raise SimulateError(f"exact table sums to {total!r}")
    return out


def exact_interventional(cfg: SimConfig) -> np.ndarray:
    """P(x | do(y)) for the training distribution, rows indexed by y.

    Forces y in the structural equations: the label's descendants (the
    mediator) follow the forced label, the confounders keep their joint
    training law, and the feature law is summed exactly over every
    parent configuration.
    """
    return _exact_table(cfg, observational=False)


def exact_observational(cfg: SimConfig) -> np.ndarray:
    """P(x | y) for the training distribution, rows indexed by y."""
    return _exact_table(cfg, observational=True)
