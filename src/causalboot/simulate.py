"""Structural-equation data generation for the five scenarios.

Sampling is ancestral: Y first, then the confounders, the mediator, the
care level, and finally the features.  Four test regimes change only the
confounder laws P(U|Y) (and P(V|Y) where a hidden confounder exists):

* conf     - the training law: P(U=1|Y=1) = q_c, P(U=1|Y=0) = 1 - q_c
* unconf   - confounders independent of the label (both rates 0.5)
* revconf  - the training law with the label roles swapped
* unseen   - U pinned to the third value 2, with its own feature offset

Structural mechanisms (the mediator law, the care-level table, and
P(X|parents)) never vary across regimes.  Hidden parents (V in scenario
c, U in scenario d) are carried as shadow columns for diagnostics only.

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

from .graph import OBSERVED_COLUMNS, ScenarioId
from .rng import stream


class SimulateError(ValueError):
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

# Which variables feed X; the exposed ones come from the scenario graphs,
# and the hidden ones are carried as shadow columns.
_X_PARENTS = {
    ScenarioId.OBSERVED_CONF: ("y", "u"),
    ScenarioId.OBSERVED_CONF_MEDIATOR: ("u", "z"),
    ScenarioId.PARTIAL_CONF_MEDIATOR: ("u", "z", "v"),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: ("z", "u"),
    ScenarioId.BIASED_CARE: ("y", "u"),
}


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
        if self.n < 1:
            raise SimulateError(f"n must be positive, got {self.n!r}")
        for name in ("p", "q_c", "r0", "r1", "f10", "f11"):
            _check_prob(name, getattr(self, name))
        if self.qp_c is not None:
            _check_prob("qp_c", self.qp_c)
        if not 0 < self.sigma < math.inf:
            raise SimulateError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.feature_dim < 1:
            raise SimulateError("feature_dim must be at least 1")
        if self.x_mode not in ("gaussian", "discrete"):
            raise SimulateError(f"unknown x_mode {self.x_mode!r}")
        if self.x_mode == "discrete" and self.x_support < 2:
            raise SimulateError("discrete features need support of at least 2")
        parents = _X_PARENTS[self.scenario]
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


def _label_rates(regime: TestRegime, strength: float) -> tuple[float, float] | None:
    """(P(.=1|Y=1), P(.=1|Y=0)) for a confounder, or None when pinned."""
    if regime is TestRegime.CONF:
        return strength, 1.0 - strength
    if regime is TestRegime.UNCONF:
        return 0.5, 0.5
    if regime is TestRegime.REVCONF:
        return 1.0 - strength, strength
    return None


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
    parents = _X_PARENTS[cfg.scenario]
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
    parents = _X_PARENTS[cfg.scenario]
    observed = OBSERVED_COLUMNS[cfg.scenario]

    def draw(rate_1, rate_0) -> np.ndarray:
        """0/1 column with P(.=1) = rate_1 where y = 1, else rate_0."""
        threshold = np.where(y == 1, rate_1, rate_0)
        return (rng.random(n) < threshold).astype(np.int64)

    y = (rng.random(n) < cfg.p).astype(np.int64)
    u_rates = _label_rates(regime, cfg.q_c)
    if u_rates is None:
        if cfg.delta_u2 is None:
            raise SimulateError("config lacks an offset for the unseen domain")
        u = np.full(n, 2, dtype=np.int64)
    else:
        u = draw(*u_rates)
    drawn = {"y": y, "u": u}
    if "v" in parents:
        drawn["v"] = draw(*(_label_rates(regime, cfg.qp) or (0.5, 0.5)))
    if "z" in parents:
        drawn["z"] = draw(cfg.r1, cfg.r0)
    if "d" in observed:
        base = np.where(u == 1, cfg.f11, cfg.f10)
        base = np.where(u == 2, 0.5, base)
        drawn["d"] = draw(base, 1.0 - base)

    if cfg.x_mode == "gaussian":
        mu = np.zeros((n, cfg.feature_dim))
        for parent in parents:
            mu += _offsets(cfg, parent)[drawn[parent]]
        x = mu + cfg.sigma * rng.standard_normal((n, cfg.feature_dim))
    else:
        names, tables = _discrete_tables(cfg)
        prob_rows = np.empty((n, cfg.x_support))
        key_cols = tuple(drawn[parent] for parent in names)
        for config, probs in tables.items():
            mask = np.ones(n, dtype=bool)
            for col, value in zip(key_cols, config):
                mask &= col == value
            prob_rows[mask] = probs
        cum = np.cumsum(prob_rows, axis=1)
        x = (rng.random((n, 1)) < cum).argmax(axis=1).astype(np.int64)

    columns = {name: drawn[name] for name in observed}
    shadow = {p: drawn[p] for p in parents if p != "y" and p not in observed}
    return Dataset(x=x, y=y, columns=columns, shadow=shadow)


# ---------------------------------------------------------------------------
# exact finite oracles (discrete feature mode)


def _require_discrete(cfg: SimConfig):
    if cfg.x_mode != "discrete":
        raise SimulateError("exact tables need x_mode='discrete'")


def _training_confounder_marginal(cfg: SimConfig) -> dict[int, float]:
    """P(U=u) under the training (conf) law."""
    p1 = cfg.p * cfg.q_c + (1.0 - cfg.p) * (1.0 - cfg.q_c)
    out = {0: 1.0 - p1, 1: p1}
    if cfg.delta_u2 is not None:
        out[2] = 0.0
    return out


def _z_given_y(cfg: SimConfig, z: int, y: int) -> float:
    rate = cfg.r1 if y == 1 else cfg.r0
    return rate if z == 1 else 1.0 - rate


def _u_given_y(cfg: SimConfig, u: int, y: int) -> float:
    rate = cfg.q_c if y == 1 else 1.0 - cfg.q_c
    if u == 2:
        return 0.0
    return rate if u == 1 else 1.0 - rate


def _v_given_y(cfg: SimConfig, v: int, y: int) -> float:
    rate = cfg.qp if y == 1 else 1.0 - cfg.qp
    return rate if v == 1 else 1.0 - rate


def _config_weight(cfg: SimConfig, parents, config, y_value: int, observational: bool) -> float:
    """Probability of one X-parent configuration, either under do(y) or
    conditioned on seeing y, in the training distribution."""
    values = dict(zip(parents, config))
    w = 1.0
    if "y" in values:
        if values["y"] != y_value:
            return 0.0
    if "z" in values:
        w *= _z_given_y(cfg, values["z"], y_value)
    if observational:
        if "u" in values:
            w *= _u_given_y(cfg, values["u"], y_value)
        if "v" in values:
            w *= _v_given_y(cfg, values["v"], y_value)
        return w
    if "u" in values and "v" in values:
        joint = sum(
            (cfg.p if yp == 1 else 1.0 - cfg.p)
            * _u_given_y(cfg, values["u"], yp)
            * _v_given_y(cfg, values["v"], yp)
            for yp in (0, 1)
        )
        return w * joint
    if "u" in values:
        w *= _training_confounder_marginal(cfg)[values["u"]]
    return w


def _exact_table(cfg: SimConfig, observational: bool) -> np.ndarray:
    _require_discrete(cfg)
    parents, tables = _discrete_tables(cfg)
    out = np.zeros((2, cfg.x_support))
    for y_value in (0, 1):
        for config, probs in tables.items():
            w = _config_weight(cfg, parents, config, y_value, observational)
            out[y_value] += w * probs
        total = out[y_value].sum()
        if abs(total - 1.0) > 1e-12:
            raise SimulateError(f"exact table sums to {total!r}")
    return out


def exact_interventional(cfg: SimConfig) -> np.ndarray:
    """P(x | do(y)) for the training distribution, rows indexed by y.

    Forces y in the structural equations: confounders keep their
    training marginals, the mediator follows the forced label, and the
    feature law is summed exactly over every parent configuration.
    """
    return _exact_table(cfg, observational=False)


def exact_observational(cfg: SimConfig) -> np.ndarray:
    """P(x | y) for the training distribution, rows indexed by y."""
    return _exact_table(cfg, observational=True)
