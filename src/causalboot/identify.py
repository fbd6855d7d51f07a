"""Identification of interventional distributions on mixed graphs.

:func:`identify` decides whether P(outcome | do(intervention)) can be
written purely in terms of the observational joint, and if so returns a
symbolic estimand: an expression tree of sums, products, probability
terms P(targets | given) (a marginal when nothing is given) and (rarely)
quotients of partial sums.
The recursion factorises the graph into districts (components connected
by bidirected edges) and reduces each district's contribution to
conditionals of the observational distribution; it fails exactly on
hedge structures, reported through :class:`Unidentifiable`.

Estimands carry two kinds of free variables: the outcome variables and
the intervention variables.  Everything else is bound by a sum.  Bound
variables are displayed as the lower-cased node name, primed when that
name is already taken (``Σ_{y'} P(x|u,y',z) P(y'|u)``).

:func:`prune` simplifies an estimand by d-separation.  It and the
recursion sum variables out by one rule, :func:`_collapse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .errors import CausalBootError
from .graph import (
    CausalGraph,
    GraphError,
    NodeSet,
    ancestors,
    d_separated,
    mutilate,
    topological_order,
)


class EstimandError(CausalBootError):
    """An estimand that cannot be built, read or evaluated as asked: an
    unknown variable, an empty product, zero conditioning mass, or a
    result that is not a probability distribution."""


@dataclass(frozen=True)
class Ref:
    """A reference to joint variable ``var`` under display name ``alias``."""

    var: str
    alias: str

    def __str__(self):
        return self.alias


@dataclass(frozen=True)
class Cond:
    """P(targets | given), or the marginal P(targets) when ``given`` is empty."""

    targets: tuple[Ref, ...]
    given: tuple[Ref, ...] = ()


@dataclass(frozen=True)
class Product:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Sum:
    """Sum of ``body`` over the domains of the bound variables.

    ``over`` pairs each bound display name with the joint variable whose
    domain it ranges over.
    """

    over: tuple[tuple[str, str], ...]  # (alias, var)
    body: "Expr"


@dataclass(frozen=True)
class Quotient:
    """A ratio of partial sums; produced only by deeply nested districts."""

    num: "Expr"
    den: "Expr"


Expr = Union[Cond, Product, Sum, Quotient]


@dataclass(frozen=True)
class Estimand:
    """An identified expression with its free-variable bookkeeping.

    ``context`` lists variables the expression mentions but whose value
    provably does not matter (interventions on non-ancestors picked up
    during identification); evaluation binds them to an arbitrary point
    of their domain.
    """

    root: Expr
    outcome: tuple[str, ...]
    intervention: tuple[str, ...]
    free_aliases: tuple[tuple[str, str], ...] = ()
    context: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.free_aliases:
            object.__setattr__(
                self, "free_aliases", _default_aliases(self.outcome + self.intervention)
            )

    def alias_of(self, var: str) -> str:
        for v, alias in self.free_aliases:
            if v == var:
                return alias
        raise EstimandError(f"{var!r} is not a free variable of this estimand")


@dataclass(frozen=True)
class Identified:
    estimand: Estimand


@dataclass(frozen=True)
class Unidentifiable:
    witness: str


IdentifyOutcome = Union[Identified, Unidentifiable]


def _default_aliases(variables: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    taken: set[str] = set()
    out = []
    for var in sorted(variables):
        alias = var.lower()
        while alias in taken:
            alias += "'"
        taken.add(alias)
        out.append((var, alias))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# rendering


def _render(expr: Expr, inside_product: bool = False) -> str:
    if isinstance(expr, Cond):
        given = "|" + ",".join(str(r) for r in expr.given) if expr.given else ""
        return "P(%s%s)" % (",".join(str(r) for r in expr.targets), given)
    if isinstance(expr, Product):
        return " ".join(_render(f, inside_product=True) for f in expr.factors)
    if isinstance(expr, Sum):
        body = "Σ_{%s} %s" % (",".join(a for a, _ in expr.over), _render(expr.body))
        return f"({body})" if inside_product else body
    if isinstance(expr, Quotient):
        return "(%s) / (%s)" % (_render(expr.num), _render(expr.den))
    raise TypeError(f"not an estimand node: {expr!r}")


def estimand_to_text(estimand: Estimand) -> str:
    """Canonical rendering; structurally equal estimands render identically."""
    return _render(estimand.root)


# ---------------------------------------------------------------------------
# structural helpers


def _parts(expr: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of ``expr``; a probability term has none."""
    if isinstance(expr, Product):
        return expr.factors
    if isinstance(expr, Sum):
        return (expr.body,)
    if isinstance(expr, Quotient):
        return (expr.num, expr.den)
    return ()


def _rebuild(expr: Expr, fn) -> Expr:
    """The same node with ``fn`` applied to each direct subexpression."""
    parts = tuple(fn(part) for part in _parts(expr))
    if isinstance(expr, Product):
        return Product(parts)
    if isinstance(expr, Sum):
        return Sum(expr.over, *parts)
    if isinstance(expr, Quotient):
        return Quotient(*parts)
    return expr


def _refs(expr: Expr) -> frozenset[Ref]:
    if isinstance(expr, Cond):
        return frozenset(expr.targets + expr.given)
    return frozenset().union(*map(_refs, _parts(expr)))


def _terms(expr: Expr) -> list[Cond]:
    """The probability terms of a sum-product ``expr``, in order."""
    if isinstance(expr, Quotient):
        raise EstimandError("a quotient of sums has no terms of its own")
    if isinstance(expr, Cond):
        return [expr]
    return [term for part in _parts(expr) for term in _terms(part)]


def _substitute(expr: Expr, mapping: dict[Ref, str]) -> Expr:
    """Rewrite reference aliases; ``mapping`` sends old refs to new aliases."""
    if not isinstance(expr, Cond):
        return _rebuild(expr, lambda part: _substitute(part, mapping))

    def fix(refs: tuple[Ref, ...]) -> tuple[Ref, ...]:
        return tuple(Ref(r.var, mapping[r]) if r in mapping else r for r in refs)

    return Cond(fix(expr.targets), fix(expr.given))


def _sums_to_one(expr: Expr, ref: Ref) -> bool:
    """Conservatively decide whether summing ``expr`` over ``ref`` gives 1."""
    if isinstance(expr, Cond):
        return expr.targets == (ref,)
    if isinstance(expr, Sum):
        return _collapse(expr.over + ((ref.alias, ref.var),), expr.body) == ((), [])
    return False


def _collapse(
    binders: tuple[tuple[str, str], ...], body: Expr
) -> tuple[tuple[tuple[str, str], ...], list[Expr]]:
    """The binders and factors left of Σ over ``binders`` of ``body`` once
    each binder whose one touching factor sums to 1 over it is summed
    away, innermost (last) first, pass after pass: peeling an inner
    binder can leave an outer one with one touching factor."""
    remaining = list(body.factors if isinstance(body, Product) else (body,))
    kept = list(binders)
    while True:
        before = len(kept)
        for alias, var in kept[::-1]:
            bref = Ref(var, alias)
            touching = [f for f in remaining if bref in _refs(f)]
            if len(touching) == 1 and _sums_to_one(touching[0], bref):
                remaining.remove(touching[0])
                kept.remove((alias, var))
        if len(kept) == before:
            return tuple(kept), remaining


# ---------------------------------------------------------------------------
# the working representation of a distribution during identification


@dataclass(frozen=True)
class _Dist:
    """The product of ``factors`` over a π-ordered ``scope``."""

    scope: tuple[str, ...]
    factors: tuple[Expr, ...]


class _Hedge(Exception):
    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


class _State:
    """Bookkeeping shared across one identify() run."""

    def __init__(self, order: tuple[str, ...], free: dict[str, str]):
        self.order = order
        self.free = free  # var -> free display alias
        self._counter = 0

    def placeholder(self) -> str:
        self._counter += 1
        return f"%{self._counter}"

    def free_ref(self, var: str) -> Ref:
        return Ref(var, self.free[var])

    def pos(self, var: str) -> int:
        return self.order.index(var)


def _initial_dist(state: _State, variables: tuple[str, ...]) -> _Dist:
    """The observational chain product over ``variables`` in π order."""
    return _Dist(
        scope=variables,
        factors=tuple(
            Cond((state.free_ref(v),), tuple(state.free_ref(p) for p in variables[:i]))
            for i, v in enumerate(variables)
        ),
    )


def _marginalize(state: _State, dist: _Dist, sumset: frozenset[str]) -> _Dist:
    """Sum ``sumset`` out of ``dist`` by the rule :func:`prune` shares
    (:func:`_collapse`), then wrap the factors that mention a variable it
    could not peel in one explicit bound sum."""
    binders = tuple((state.free[v], v) for v in dist.scope if v in sumset)
    kept, left = _collapse(binders, Product(dist.factors))
    refs = {Ref(v, alias) for alias, v in kept}
    factors = [f for f in left if not refs & _refs(f)]
    if kept:
        touched = [f for f in left if refs & _refs(f)]
        factors.append(_wrap_sum(state, [v for _, v in kept], _product(touched)))
    return _Dist(tuple(v for v in dist.scope if v not in sumset), tuple(factors))


def _product(factors: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        raise EstimandError("empty product in estimand construction")
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


def _conditional(state: _State, dist: _Dist, v: str) -> Expr:
    """P(v | its π-predecessors in scope) as an expression over dist."""
    after = frozenset(dist.scope[dist.scope.index(v) + 1 :])
    num = _marginalize(state, dist, after)
    den = _marginalize(state, num, frozenset([v]))
    num_fs, den_fs = list(num.factors), list(den.factors)
    for f in list(den_fs):
        if f in num_fs:
            num_fs.remove(f)
            den_fs.remove(f)
    if not den_fs:
        return _product(num_fs)
    return Quotient(_product(num_fs), _product(den_fs))


def _wrap_sum(state: _State, variables: Iterable[str], body: Expr) -> Expr:
    variables = sorted(variables, key=state.pos)
    if not variables:
        return body
    binders = tuple((state.placeholder(), v) for v in variables)
    mapping = {state.free_ref(v): alias for (alias, _), v in zip(binders, variables)}
    return Sum(binders, _substitute(body, mapping))


# ---------------------------------------------------------------------------
# graph plumbing for the recursion


def _districts(g: CausalGraph) -> list[frozenset[str]]:
    """Connected components of the bidirected part, smallest name first."""
    comp: dict[str, set[str]] = {n: {n} for n in g.nodes}
    for a, b in g.bidirected:
        merged = comp[a] | comp[b]
        for n in merged:
            comp[n] = merged
    unique = {frozenset(s) for s in comp.values()}
    return sorted(unique, key=lambda s: sorted(s))


def latent_project(g: CausalGraph) -> CausalGraph:
    """Project explicit latent nodes into bidirected structure."""
    if not g.latent:
        return g
    observed = tuple(n for n in g.nodes if n not in g.latent)

    def reached(node: str) -> set[str]:
        """Observed nodes reached from ``node`` through latent nodes only."""
        out: set[str] = set()
        seen: set[str] = set()
        stack = list(g.children(node))
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            if c in g.latent:
                stack.extend(g.children(c))
            else:
                out.add(c)
        return out

    directed = {(a, c) for a in observed for c in reached(a)}
    bidirected = set(g.bidirected)
    for l in g.latent:
        bidirected.update(combinations(sorted(reached(l)), 2))
    return CausalGraph(
        nodes=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
    )


# ---------------------------------------------------------------------------
# the identification recursion


def _id(state: _State, y: NodeSet, x: NodeSet, dist: _Dist, g: CausalGraph) -> Expr:
    scope = frozenset(dist.scope)

    if not x:
        return _product(_marginalize(state, dist, scope - y).factors)

    anc = ancestors(g, y)
    if scope != anc:
        smaller = _marginalize(state, dist, scope - anc)
        return _id(state, y, x & anc, smaller, g.subgraph(anc))

    w = (scope - x) - ancestors(mutilate(g, bar=x), y)
    if w:
        return _id(state, y, x | w, dist, g)

    parts = _districts(g.subgraph(scope - x))
    if len(parts) > 1:
        pieces = [_id(state, part, scope - part, dist, g) for part in parts]
        return _wrap_sum(state, scope - (y | x), _product(pieces))

    s = parts[0]
    whole = _districts(g)
    if len(whole) == 1:
        raise _Hedge(
            "hedge: district {%s} absorbs do(%s) targeting {%s}"
            % (", ".join(sorted(scope)), ", ".join(sorted(x)), ", ".join(sorted(y)))
        )
    if s in whole:
        order = [v for v in dist.scope if v in s]
        conds = [_conditional(state, dist, v) for v in order]
        return _wrap_sum(state, s - y, _product(conds))

    sprime = next(d for d in whole if s < d)
    order = [v for v in dist.scope if v in sprime]
    narrowed = _Dist(
        scope=tuple(order),
        factors=tuple(_conditional(state, dist, v) for v in order),
    )
    return _id(state, y, x & sprime, narrowed, g.subgraph(sprime))


# ---------------------------------------------------------------------------
# finalisation: normalise shape, assign display aliases, sort canonically


def _normalize(expr: Expr) -> Expr:
    """Flatten nested products and merge directly nested sums."""
    expr = _rebuild(expr, _normalize)
    if isinstance(expr, Product):
        return _product(expr.factors)
    if isinstance(expr, Sum) and isinstance(expr.body, Sum):
        return Sum(expr.over + expr.body.over, expr.body.body)
    return expr


def _assign_display(expr: Expr, reserved: frozenset[str], enclosing: frozenset[str]) -> Expr:
    """Give each bound variable its display name: the lower-cased node
    name, primed until it clashes with no free or enclosing name."""
    if not isinstance(expr, Sum):
        return _rebuild(expr, lambda part: _assign_display(part, reserved, enclosing))
    taken = set(enclosing)
    mapping: dict[Ref, str] = {}
    binders = []
    for alias, var in expr.over:
        display = var.lower()
        while display in reserved or display in taken:
            display += "'"
        taken.add(display)
        mapping[Ref(var, alias)] = display
        binders.append((display, var))
    body = _assign_display(_substitute(expr.body, mapping), reserved, frozenset(taken))
    return Sum(tuple(binders), body)


def _sort_canonical(expr: Expr) -> Expr:
    if isinstance(expr, Cond):
        return Cond(
            tuple(sorted(expr.targets, key=lambda r: r.alias)),
            tuple(sorted(expr.given, key=lambda r: r.alias)),
        )
    expr = _rebuild(expr, _sort_canonical)
    if isinstance(expr, Product):
        return Product(tuple(sorted(expr.factors, key=_render)))
    if isinstance(expr, Sum):
        return Sum(tuple(sorted(expr.over)), expr.body)
    return expr


# ---------------------------------------------------------------------------
# public operations


def identify(
    g: CausalGraph, outcome: Iterable[str], intervention: Iterable[str]
) -> IdentifyOutcome:
    """Identify P(outcome | do(intervention)) from the observational joint.

    Returns :class:`Identified` carrying the estimand, or
    :class:`Unidentifiable` carrying a description of the hedge structure
    that blocks identification.  Explicit latent nodes are projected into
    bidirected edges first; outcome and intervention must be disjoint,
    non-empty sets of observed nodes.
    """
    outcome = frozenset(outcome)
    intervention = frozenset(intervention)
    if not outcome:
        raise GraphError("outcome must be non-empty")
    if outcome & intervention:
        raise GraphError("outcome and intervention overlap")
    for n in outcome | intervention:
        if n not in set(g.nodes):
            raise GraphError(f"unknown node {n!r}")
        if n in g.latent:
            raise GraphError(f"{n!r} is latent")

    projected = latent_project(g)
    order = topological_order(projected)
    free = dict(_default_aliases(order))
    state = _State(order, free)

    try:
        expr = _id(state, outcome, intervention, _initial_dist(state, order), projected)
    except _Hedge as hedge:
        return Unidentifiable(witness=hedge.witness)

    # Interventions absorbed on non-ancestors may survive as free context
    # references; their value cannot matter, so record and bind them later.
    free_now = {r.var for r in _refs(expr) if not r.alias.startswith("%")}
    context = tuple(sorted(free_now - outcome - intervention))
    alias_pairs = tuple(
        (v, free[v]) for v in sorted(outcome | intervention) + sorted(context)
    )
    reserved = frozenset(alias for _, alias in alias_pairs)
    expr = _normalize(expr)
    expr = _assign_display(expr, reserved, frozenset())
    expr = _sort_canonical(expr)
    return Identified(
        Estimand(
            root=expr,
            outcome=tuple(sorted(outcome)),
            intervention=tuple(sorted(intervention)),
            free_aliases=alias_pairs,
            context=context,
        )
    )


def prune(expr: Expr, g: CausalGraph) -> Expr:
    """``expr`` with each conditional's given variables that ``g`` (latent
    nodes included) d-separates from its targets dropped, in given order
    against what is left, then each bound variable whose only factor is
    a conditional on it summed away."""
    if isinstance(expr, Cond):
        targets, given = [r.var for r in expr.targets], list(expr.given)
        for ref in expr.given:
            if d_separated(g, targets, [ref.var], [r.var for r in given if r != ref]):
                given.remove(ref)
        return Cond(expr.targets, tuple(given))
    expr = _normalize(_rebuild(expr, lambda part: prune(part, g)))
    if not isinstance(expr, Sum):
        return expr
    binders, left = _collapse(expr.over, expr.body)
    if not left:  # nothing could stand in for a sum that vanishes whole
        return expr
    return _normalize(Sum(binders, _product(left))) if binders else _product(left)
