import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalboot.graph import (
    OBSERVED_COLUMNS,
    SHADOW_COLUMNS,
    X_ANCESTOR_COLUMNS,
    X_PARENTS,
    CausalGraph,
    GraphCycleError,
    GraphError,
    GraphParseError,
    ScenarioId,
    ancestors,
    d_separated,
    descendants,
    mutilate,
    parse_graph,
    scenario_graph,
    topological_order,
)

from bruteforce import dsep_by_path_enumeration, random_admg, random_disjoint_sets
from graph_text import graph_to_text


def test_parse_edges_and_flags():
    g = parse_graph("A -> B; B <-> C\nlatent H; H -> A  # comment\nD;")
    assert g.nodes == ("A", "B", "C", "H", "D")
    assert ("A", "B") in g.directed
    assert ("H", "A") in g.directed
    assert ("B", "C") in g.bidirected
    assert g.latent == {"H"}
    assert g.observed == {"A", "B", "C", "D"}


def test_parse_bidirected_normalised():
    g = parse_graph("B <-> A")
    assert g.bidirected == {("A", "B")}


def test_parse_syntax_error_position():
    with pytest.raises(GraphParseError) as err:
        parse_graph("A -> B;\nC -> -> D")
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_syntax_error_mid_line():
    with pytest.raises(GraphParseError) as err:
        parse_graph("A -> B; !bad")
    assert err.value.line == 1
    assert err.value.column == 9


def test_cycle_rejected():
    with pytest.raises(GraphCycleError):
        parse_graph("A -> B; B -> C; C -> A")


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        parse_graph("A -> A")


def test_bidirected_on_latent_rejected():
    with pytest.raises(GraphError):
        parse_graph("latent H; H <-> B")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(nodes=("A", "B", "A")), "duplicate node names"),
        (dict(nodes=("A",), directed=frozenset({("A", "B")})),
         "edge A->B references unknown node"),
        (dict(nodes=("A",), bidirected=frozenset({("A", "B")})),
         "edge A<->B references unknown node"),
        (dict(nodes=("A",), latent=frozenset({"H"})), "latent flag on unknown node"),
    ],
)
def test_graph_refuses_unknown_or_repeated_nodes(kwargs, message):
    with pytest.raises(GraphError) as got:
        CausalGraph(**kwargs)
    assert str(got.value) == message


def test_bidirected_latent_takes_a_fresh_name():
    # the latent behind A <-> B would be _L_A_B, the name of C's parent;
    # sharing it would join A and C
    g = parse_graph("A <-> B; _L_A_B -> C")
    assert d_separated(g, ["A"], ["C"], [])
    assert not d_separated(g, ["A"], ["B"], [])


def test_roundtrip_scenarios():
    for sid in ScenarioId:
        g = scenario_graph(sid)
        assert parse_graph(graph_to_text(g)) == g


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_roundtrip_random(seed, n):
    g = random_admg(np.random.default_rng(seed), n)
    assert parse_graph(graph_to_text(g)) == g


def test_scenario_edge_sets():
    a = scenario_graph("a")
    assert a.directed == {("U", "Y"), ("U", "X"), ("Y", "X")}
    assert not a.bidirected
    # the hidden confounders are named latent nodes, not bidirected edges
    c = scenario_graph("c")
    assert c.latent == {"V"}
    assert c.directed == {
        ("U", "Y"), ("U", "X"), ("Y", "Z"), ("Z", "X"), ("V", "Y"), ("V", "X"),
    }
    assert not c.bidirected
    d = scenario_graph("d")
    assert d.latent == {"U"}
    assert d.directed == {("Y", "Z"), ("Z", "X"), ("U", "Y"), ("U", "X")}
    assert not d.bidirected
    e = scenario_graph("e")
    assert ("Y", "D") in e.directed and ("U", "D") in e.directed


def test_scenario_columns_come_from_the_graphs():
    # hidden confounders are latent nodes, so they never show up here
    assert {s.value: cols for s, cols in OBSERVED_COLUMNS.items()} == {
        "a": ("u",), "b": ("u", "z"), "c": ("u", "z"), "d": ("z",), "e": ("u", "d"),
    }
    # the care level is observed but does not feed X
    assert {s.value: cols for s, cols in X_ANCESTOR_COLUMNS.items()} == {
        "a": ("u",), "b": ("u", "z"), "c": ("u", "z"), "d": ("z",), "e": ("u",),
    }
    # X's parents in declaration order, and the latent ones among them
    assert {s.value: cols for s, cols in X_PARENTS.items()} == {
        "a": ("u", "y"), "b": ("u", "z"), "c": ("u", "z", "v"), "d": ("z", "u"),
        "e": ("u", "y"),
    }
    assert {s.value: cols for s, cols in SHADOW_COLUMNS.items()} == {
        "a": (), "b": (), "c": ("v",), "d": ("u",), "e": (),
    }


def test_scenario_coerce():
    assert scenario_graph(ScenarioId.OBSERVED_CONF) == scenario_graph("a")
    assert ScenarioId.coerce("observed_conf") is ScenarioId.OBSERVED_CONF
    with pytest.raises(GraphError):
        ScenarioId.coerce("z")


def test_mutilate_bar():
    g = scenario_graph("c")
    barred = mutilate(g, bar=["Y"])
    assert ("U", "Y") not in barred.directed
    assert ("V", "Y") not in barred.directed  # the latent confounder is cut too
    assert ("V", "X") in barred.directed
    assert ("Z", "X") in barred.directed


def test_mutilate_underline():
    g = scenario_graph("c")
    under = mutilate(g, underline=["Y"])
    assert ("Y", "Z") not in under.directed
    assert ("U", "Y") in under.directed
    assert {("V", "Y"), ("V", "X")} <= under.directed  # no tail at Y
    assert under.latent == {"V"}


def test_mutilate_unknown_node():
    with pytest.raises(GraphError):
        mutilate(scenario_graph("a"), bar=["Q"])


def test_ancestors_inclusive():
    g = parse_graph("A -> B; B -> C; D -> C")
    assert ancestors(g, ["C"]) == {"A", "B", "C", "D"}
    assert ancestors(g, ["A"]) == {"A"}
    assert descendants(g, ["B"]) == {"B", "C"}


def test_topological_order_deterministic():
    g = parse_graph("B -> D; A -> D; C;")
    assert topological_order(g) == ("A", "B", "C", "D")


def test_dsep_chain_fork_collider():
    chain = parse_graph("A -> B; B -> C")
    assert not d_separated(chain, ["A"], ["C"])
    assert d_separated(chain, ["A"], ["C"], ["B"])

    fork = parse_graph("B -> A; B -> C")
    assert not d_separated(fork, ["A"], ["C"])
    assert d_separated(fork, ["A"], ["C"], ["B"])

    collider = parse_graph("A -> B; C -> B; B -> D")
    assert d_separated(collider, ["A"], ["C"])
    assert not d_separated(collider, ["A"], ["C"], ["B"])
    assert not d_separated(collider, ["A"], ["C"], ["D"])  # descendant opens it


def test_dsep_bidirected_acts_as_confounder():
    g = parse_graph("A <-> B")
    assert not d_separated(g, ["A"], ["B"])


def test_dsep_scenario_anchors():
    # After cutting the arrows into Y, U tells us nothing about Y.
    a = scenario_graph("a")
    assert d_separated(mutilate(a, bar=["Y"]), ["U"], ["Y"])
    # After cutting the arrows out of Y, Z tells us nothing about Y.
    b = scenario_graph("b")
    assert d_separated(mutilate(b, underline=["Y"]), ["Z"], ["Y"])
    # Not so between X and Y in scenario (c): the latent fork Y <- V -> X stays.
    c = scenario_graph("c")
    assert not d_separated(mutilate(c, underline=["Y"]), ["X"], ["Y"])


def test_dsep_validates_sets():
    g = scenario_graph("a")
    with pytest.raises(GraphError):
        d_separated(g, ["U"], ["U"])
    with pytest.raises(GraphError):
        d_separated(g, ["U"], ["X"], ["U"])
    with pytest.raises(GraphError):
        d_separated(g, [], ["X"])
    with pytest.raises(GraphError):
        d_separated(g, ["Q"], ["X"])


def test_dsep_agrees_with_path_enumeration():
    rng = np.random.default_rng(20_240_817)
    checked = 0
    for _ in range(200):
        g = random_admg(rng, int(rng.integers(2, 9)))
        for _ in range(3):
            a, b, given = random_disjoint_sets(rng, g)
            got = d_separated(g, a, b, given)
            want = dsep_by_path_enumeration(g, a, b, given)
            assert got == want, (graph_to_text(g), sorted(a), sorted(b), sorted(given))
            checked += 1
    assert checked >= 200


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_dsep_stable_under_edge_removal(seed):
    # Removing edges can only remove paths, so separation is preserved.
    rng = np.random.default_rng(seed)
    g = random_admg(rng, int(rng.integers(3, 7)))
    a, b, given = random_disjoint_sets(rng, g)
    if d_separated(g, a, b, given):
        cut = next(iter(sorted(g.directed)), None)
        if cut is not None:
            smaller = CausalGraph(
                nodes=g.nodes,
                directed=g.directed - {cut},
                bidirected=g.bidirected,
                latent=g.latent,
            )
            assert d_separated(smaller, a, b, given)
