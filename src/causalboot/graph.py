"""Causal graphs: mixed directed/bidirected graphs and a small text DSL.

A graph is a set of named nodes joined by directed edges (``A -> B``) and
bidirected edges (``A <-> B``), the latter standing for an unnamed latent
common cause of its two endpoints.  Nodes may also be flagged ``latent``
explicitly.  Graphs are immutable; every operation returns a new graph.

The five scenario graphs name their hidden confounders as ``latent``
nodes (V in scenario c, U in scenario d) rather than hiding them behind
a bidirected edge, so the generator can read X's parents and its shadow
columns off the graphs (``X_PARENTS``, ``SHADOW_COLUMNS``).

The text DSL accepted by :func:`parse_graph`:

* statements are separated by semicolons or newlines,
* ``A -> B`` declares a directed edge, ``A <-> B`` a bidirected edge,
* ``latent A`` flags node ``A`` as unobserved,
* a bare identifier declares an isolated node,
* ``#`` starts a comment running to the end of the line,
* identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import CausalBootError

NodeSet = frozenset[str]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_STATEMENT_RE = re.compile(
    rf"^\s*(?:(?P<latent>latent\s+(?P<lname>{_IDENT}))"
    rf"|(?P<edge>(?P<tail>{_IDENT})\s*(?P<kind><->|->)\s*(?P<head>{_IDENT}))"
    rf"|(?P<node>{_IDENT}))\s*$"
)


class GraphError(CausalBootError):
    """Malformed graph text or an operation on nodes the graph lacks."""


class GraphParseError(GraphError):
    """Syntax error in graph text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GraphCycleError(GraphError):
    """The directed part of the graph contains a cycle."""


class ScenarioId(Enum):
    """The five data-acquisition scenarios, keyed by their letter."""

    OBSERVED_CONF = "a"
    OBSERVED_CONF_MEDIATOR = "b"
    PARTIAL_CONF_MEDIATOR = "c"
    UNOBSERVED_CONF_MEDIATOR = "d"
    BIASED_CARE = "e"

    @classmethod
    def coerce(cls, value: "ScenarioId | str") -> "ScenarioId":
        """Accept a ScenarioId, a letter ('a'..'e'), or an enum name."""
        if isinstance(value, cls):
            return value
        text = str(value).strip()
        try:
            return cls(text.lower())
        except ValueError:
            pass
        try:
            return cls[text.upper()]
        except KeyError:
            raise GraphError(f"unknown scenario {value!r}") from None


@dataclass(frozen=True)
class CausalGraph:
    """Immutable mixed graph.

    Attributes
    ----------
    nodes:
        All node names, in declaration order.
    directed:
        Directed edges as (tail, head) pairs.
    bidirected:
        Bidirected edges as sorted (a, b) pairs, a < b.  Endpoints must be
        observed: latent structure is either a bidirected edge or an
        explicit latent node, never both at once.
    latent:
        Nodes flagged unobserved.
    """

    nodes: tuple[str, ...]
    directed: frozenset[tuple[str, str]] = frozenset()
    bidirected: frozenset[tuple[str, str]] = frozenset()
    latent: NodeSet = frozenset()

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise GraphError("duplicate node names")
        for tail, head in self.directed:
            if tail not in known or head not in known:
                raise GraphError(f"edge {tail}->{head} references unknown node")
            if tail == head:
                raise GraphError(f"self loop on {tail}")
        fixed = set()
        for a, b in self.bidirected:
            if a not in known or b not in known:
                raise GraphError(f"edge {a}<->{b} references unknown node")
            if a == b:
                raise GraphError(f"self loop on {a}")
            if a in self.latent or b in self.latent:
                raise GraphError(f"bidirected edge {a}<->{b} touches a latent node")
            fixed.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "bidirected", frozenset(fixed))
        if not self.latent <= known:
            raise GraphError("latent flag on unknown node")
        topological_order(self)  # raises GraphCycleError on a directed cycle

    @property
    def observed(self) -> NodeSet:
        return frozenset(self.nodes) - self.latent

    def parents(self, node: str) -> NodeSet:
        self._check(node)
        return frozenset(t for t, h in self.directed if h == node)

    def children(self, node: str) -> NodeSet:
        self._check(node)
        return frozenset(h for t, h in self.directed if t == node)

    def subgraph(self, keep: Iterable[str]) -> "CausalGraph":
        """Induced subgraph on ``keep``, preserving node order."""
        keep = set(keep)
        unknown = keep - set(self.nodes)
        if unknown:
            raise GraphError(f"unknown nodes {sorted(unknown)}")
        return CausalGraph(
            nodes=tuple(n for n in self.nodes if n in keep),
            directed=frozenset(e for e in self.directed if e[0] in keep and e[1] in keep),
            bidirected=frozenset(e for e in self.bidirected if e[0] in keep and e[1] in keep),
            latent=self.latent & keep,
        )

    def _check(self, node: str):
        if node not in set(self.nodes):
            raise GraphError(f"unknown node {node!r}")

    def _check_set(self, nodes: Iterable[str]) -> NodeSet:
        nodes = frozenset(nodes)
        unknown = nodes - set(self.nodes)
        if unknown:
            raise GraphError(f"unknown nodes {sorted(unknown)}")
        return nodes


def parse_graph(text: str) -> CausalGraph:
    """Parse the DSL described in the module docstring into a graph."""
    nodes: list[str] = []
    seen: set[str] = set()
    directed: set[tuple[str, str]] = set()
    bidirected: set[tuple[str, str]] = set()
    latent: set[str] = set()

    def declare(name: str):
        if name not in seen:
            seen.add(name)
            nodes.append(name)

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        col = 1
        for raw in line.split(";"):
            if raw.strip():
                m = _STATEMENT_RE.match(raw)
                if m is None:
                    offset = len(raw) - len(raw.lstrip())
                    raise GraphParseError(
                        f"cannot parse statement {raw.strip()!r}", lineno, col + offset
                    )
                if m.group("latent"):
                    declare(m.group("lname"))
                    latent.add(m.group("lname"))
                elif m.group("edge"):
                    tail, head = m.group("tail"), m.group("head")
                    declare(tail)
                    declare(head)
                    if m.group("kind") == "->":
                        directed.add((tail, head))
                    else:
                        bidirected.add((tail, head))
                else:
                    declare(m.group("node"))
            col += len(raw) + 1
    return CausalGraph(
        nodes=tuple(nodes),
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        latent=frozenset(latent),
    )


def graph_to_text(g: CausalGraph) -> str:
    """Render ``g`` in the DSL so that parse(render(g)) == g."""
    lines = []
    if g.nodes:
        lines.append("; ".join(g.nodes) + ";")
    for name in sorted(g.latent):
        lines.append(f"latent {name};")
    for tail, head in sorted(g.directed):
        lines.append(f"{tail} -> {head};")
    for a, b in sorted(g.bidirected):
        lines.append(f"{a} <-> {b};")
    return "\n".join(lines) + ("\n" if lines else "")


def topological_order(g: CausalGraph) -> tuple[str, ...]:
    """Kahn's algorithm with lexicographic tie-breaking (deterministic)."""
    indeg = {n: 0 for n in g.nodes}
    for _, head in g.directed:
        indeg[head] += 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        opened = []
        for tail, head in g.directed:
            if tail == node:
                indeg[head] -= 1
                if indeg[head] == 0:
                    opened.append(head)
        if opened:
            ready = sorted(ready + opened)
    if len(order) != len(g.nodes):
        raise GraphCycleError("directed edges contain a cycle")
    return tuple(order)


def mutilate(g: CausalGraph, bar: Iterable[str] = (), underline: Iterable[str] = ()) -> CausalGraph:
    """Remove edges into ``bar`` nodes and out of ``underline`` nodes.

    Barring a node also removes bidirected edges at it (they carry an
    arrowhead into the node); underlining leaves bidirected edges alone.
    """
    bar = g._check_set(bar)
    underline = g._check_set(underline)
    return CausalGraph(
        nodes=g.nodes,
        directed=frozenset(
            (t, h) for t, h in g.directed if h not in bar and t not in underline
        ),
        bidirected=frozenset(
            (a, b) for a, b in g.bidirected if a not in bar and b not in bar
        ),
        latent=g.latent,
    )


def _reach(g: CausalGraph, nodes: Iterable[str], step) -> NodeSet:
    """``nodes`` and every node reached from them by repeated ``step``
    (``g.parents`` or ``g.children``)."""
    todo = deque(g._check_set(nodes))
    out = set(todo)
    while todo:
        for nxt in step(todo.popleft()) - out:
            out.add(nxt)
            todo.append(nxt)
    return frozenset(out)


def ancestors(g: CausalGraph, nodes: Iterable[str]) -> NodeSet:
    """All nodes with a directed path into ``nodes``, including ``nodes``."""
    return _reach(g, nodes, g.parents)


def descendants(g: CausalGraph, nodes: Iterable[str]) -> NodeSet:
    """All nodes reachable from ``nodes`` by directed paths, inclusive."""
    return _reach(g, nodes, g.children)


def _expand_bidirected(g: CausalGraph) -> CausalGraph:
    """Replace each bidirected edge with a fresh latent fork parent."""
    if not g.bidirected:
        return g
    nodes = list(g.nodes)
    directed = set(g.directed)
    latent = set(g.latent)
    taken = set(nodes)
    for a, b in sorted(g.bidirected):
        name = f"_L_{a}_{b}"
        while name in taken:
            name += "_"
        taken.add(name)
        nodes.append(name)
        latent.add(name)
        directed.add((name, a))
        directed.add((name, b))
    return CausalGraph(
        nodes=tuple(nodes),
        directed=frozenset(directed),
        bidirected=frozenset(),
        latent=frozenset(latent),
    )


def d_separated(
    g: CausalGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> bool:
    """Test whether ``given`` blocks every path between ``a`` and ``b``.

    Bidirected edges are expanded into fresh latent fork parents before
    the reachability test, so they behave as hidden common causes.  The
    three sets must be disjoint and non-empty for ``a`` and ``b``.
    """
    a = g._check_set(a)
    b = g._check_set(b)
    given = g._check_set(given)
    if not a or not b:
        raise GraphError("a and b must be non-empty")
    if a & b or a & given or b & given:
        raise GraphError("a, b, given must be disjoint")

    gx = _expand_bidirected(g)
    opened = ancestors(gx, given) if given else frozenset()

    # Bayes-ball reachability over (node, direction) states.  'up' means the
    # trail arrived from a child, 'down' means it arrived from a parent.
    visit: deque[tuple[str, str]] = deque((n, "up") for n in a)
    seen: set[tuple[str, str]] = set()
    reached: set[str] = set()
    while visit:
        state = visit.popleft()
        if state in seen:
            continue
        seen.add(state)
        node, direction = state
        if node not in given:
            reached.add(node)
            if node in b:
                return False
        if direction == "up" and node not in given:
            for parent in gx.parents(node):
                visit.append((parent, "up"))
            for child in gx.children(node):
                visit.append((child, "down"))
        elif direction == "down":
            if node not in given:
                for child in gx.children(node):
                    visit.append((child, "down"))
            if node in opened:
                for parent in gx.parents(node):
                    visit.append((parent, "up"))
    return True


_SCENARIO_TEXT = {
    ScenarioId.OBSERVED_CONF: "U -> Y; U -> X; Y -> X",
    ScenarioId.OBSERVED_CONF_MEDIATOR: "U -> Y; U -> X; Y -> Z; Z -> X",
    ScenarioId.PARTIAL_CONF_MEDIATOR: (
        "U -> Y; U -> X; Y -> Z; Z -> X; latent V; V -> Y; V -> X"
    ),
    ScenarioId.UNOBSERVED_CONF_MEDIATOR: "Y -> Z; Z -> X; latent U; U -> Y; U -> X",
    ScenarioId.BIASED_CARE: "U -> Y; U -> X; Y -> X; Y -> D; U -> D",
}


def scenario_graph(scenario: ScenarioId | str) -> CausalGraph:
    """Return the causal graph of one of the five acquisition scenarios."""
    return parse_graph(_SCENARIO_TEXT[ScenarioId.coerce(scenario)])


def _lower(g: CausalGraph, keep: Iterable[str]) -> tuple[str, ...]:
    """Nodes of ``g`` in ``keep``, lower-cased, in declaration order."""
    keep = set(keep)
    return tuple(v.lower() for v in g.nodes if v in keep)


_GRAPHS = {s: scenario_graph(s) for s in ScenarioId}

# Per scenario: the columns a dataset exposes besides the features and the
# label, and those of them that are ancestors of X; X's parents, the label
# among them; and the shadow columns, X's latent parents, which the
# generator carries for diagnostics only.
OBSERVED_COLUMNS = {s: _lower(g, g.observed - {"X", "Y"}) for s, g in _GRAPHS.items()}
X_ANCESTOR_COLUMNS = {
    s: _lower(g, (ancestors(g, ("X",)) & g.observed) - {"X", "Y"})
    for s, g in _GRAPHS.items()
}
X_PARENTS = {s: _lower(g, g.parents("X")) for s, g in _GRAPHS.items()}
SHADOW_COLUMNS = {s: _lower(g, g.parents("X") & g.latent) for s, g in _GRAPHS.items()}
