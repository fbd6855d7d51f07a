"""Exact evaluation of an estimand against a discrete joint table.

The tests check identification by evaluating each estimand against the
joint distribution of a small structural causal model and comparing it
with the interventional distribution computed by brute force.  Also here:
the generator's exact observational table, which only the tests read.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from causalboot.identify import (
    Cond,
    Estimand,
    EstimandError,
    Expr,
    Product,
    Quotient,
    Ref,
    Sum,
)
from causalboot.simulate import SimConfig, _exact_table


@dataclass(frozen=True)
class JointTable:
    """An exact discrete joint distribution over named variables."""

    variables: tuple[str, ...]
    domains: dict[str, tuple]
    probs: np.ndarray

    def __post_init__(self):
        shape = tuple(len(self.domains[v]) for v in self.variables)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != shape:
            raise EstimandError(f"probs shape {probs.shape} does not match {shape}")
        if (probs < 0).any():
            raise EstimandError("negative probability in joint table")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise EstimandError(f"joint sums to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def index_of(self, var: str, value) -> int:
        try:
            return self.domains[var].index(value)
        except (KeyError, ValueError):
            raise EstimandError(f"value {value!r} not in the domain of {var!r}") from None


class _Evaluator:
    def __init__(self, joint: JointTable):
        self.joint = joint
        self._marginals: dict[tuple[str, ...], np.ndarray] = {}

    def marginal(self, variables: tuple[str, ...]) -> np.ndarray:
        if variables not in self._marginals:
            drop = tuple(
                i for i, v in enumerate(self.joint.variables) if v not in variables
            )
            self._marginals[variables] = self.joint.probs.sum(axis=drop)
        return self._marginals[variables]

    def prob(self, refs: tuple[Ref, ...], env: dict[str, object]) -> float:
        wanted = {r.var for r in refs}
        if len(wanted) != len(refs):
            raise EstimandError("a factor references the same variable twice")
        variables = tuple(v for v in self.joint.variables if v in wanted)
        if len(variables) != len(refs):
            missing = wanted - set(self.joint.variables)
            raise EstimandError(f"joint table lacks variables {sorted(missing)}")
        table = self.marginal(variables)
        by_var = {r.var: r for r in refs}
        idx = tuple(
            self.joint.index_of(v, self._lookup(by_var[v], env)) for v in variables
        )
        return float(table[idx])

    @staticmethod
    def _lookup(ref: Ref, env: dict[str, object]):
        try:
            return env[ref.alias]
        except KeyError:
            raise EstimandError(f"unbound variable {ref.alias!r}") from None

    def walk(self, expr: Expr, env: dict[str, object]) -> float:
        if isinstance(expr, Cond):
            if not expr.given:
                return self.prob(expr.targets, env)
            denom = self.prob(expr.given, env)
            if denom == 0.0:
                binding = ",".join(f"{r.alias}={self._lookup(r, env)!r}" for r in expr.given)
                raise EstimandError(f"conditioning on zero-mass event ({binding})")
            return self.prob(expr.targets + expr.given, env) / denom
        if isinstance(expr, Product):
            out = 1.0
            for f in expr.factors:
                out *= self.walk(f, env)
            return out
        if isinstance(expr, Sum):
            total = 0.0
            names = [alias for alias, _ in expr.over]
            domains = [self.joint.domains[var] for _, var in expr.over]
            for values in product(*domains):
                inner = dict(env)
                inner.update(zip(names, values))
                total += self.walk(expr.body, inner)
            return total
        if isinstance(expr, Quotient):
            denom = self.walk(expr.den, env)
            if denom == 0.0:
                raise EstimandError("zero denominator in estimand quotient")
            return self.walk(expr.num, env) / denom
        raise TypeError(f"not an estimand node: {expr!r}")


def evaluate_estimand(
    estimand: Estimand, joint: JointTable, intervention_value
) -> np.ndarray:
    """Evaluate ``estimand`` exactly against ``joint``.

    ``intervention_value`` is a single value (one intervention variable)
    or a dict mapping intervention variables to values.  The result is a
    flat vector over the outcome variables' joint assignments, row-major
    in the estimand's outcome order; it must be a proper distribution or
    :class:`EstimandError` is raised.
    """
    if not isinstance(intervention_value, dict):
        if len(estimand.intervention) != 1:
            raise EstimandError("a dict of values is required for multi-node do()")
        intervention_value = {estimand.intervention[0]: intervention_value}
    missing = set(estimand.intervention) - set(intervention_value)
    if missing:
        raise EstimandError(f"no value given for do({sorted(missing)})")

    ev = _Evaluator(joint)
    env = {estimand.alias_of(v): intervention_value[v] for v in estimand.intervention}
    for var in estimand.intervention:
        joint.index_of(var, intervention_value[var])
    for var in estimand.context:
        env[estimand.alias_of(var)] = joint.domains[var][0]

    out_domains = [joint.domains[v] for v in estimand.outcome]
    values = []
    for assignment in product(*out_domains):
        full = dict(env)
        full.update(
            {estimand.alias_of(v): val for v, val in zip(estimand.outcome, assignment)}
        )
        values.append(ev.walk(estimand.root, full))
    result = np.array(values)
    if (result < -1e-12).any() or abs(result.sum() - 1.0) > 1e-9:
        raise EstimandError(
            f"estimand evaluated to a non-distribution (sum {result.sum()!r})"
        )
    return result


def exact_observational(cfg: SimConfig) -> np.ndarray:
    """P(x | y) for the training distribution, rows indexed by y."""
    return _exact_table(cfg, observational=True)
