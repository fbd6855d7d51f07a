"""Identification, estimand evaluation, and graph-surgery rule checks."""

import dataclasses
import hashlib
from itertools import product

import numpy as np
import pytest

from causalboot.graph import GraphError, parse_graph, scenario_graph
from causalboot.identify import (
    Cond,
    Estimand,
    EstimandError,
    Identified,
    Product,
    Quotient,
    Ref,
    Sum,
    Unidentifiable,
    estimand_to_text,
    identify,
    latent_project,
    prune,
)
from bruteforce import random_admg
from exact import JointTable, evaluate_estimand
from scm import DiscreteSCM

SCENARIOS = ["a", "b", "c", "d", "e"]


def joint_from(scm: DiscreteSCM) -> JointTable:
    variables, table = scm.observational_joint()
    domains = {v: tuple(range(scm.domains[v])) for v in variables}
    return JointTable(variables, domains, table)


def identified(g, outcome, intervention) -> Estimand:
    out = identify(g, outcome, intervention)
    assert isinstance(out, Identified)
    return out.estimand


def with_pruned(estimand: Estimand, g) -> tuple[Estimand, Estimand]:
    """The estimand and its pruned form in ``g``, which must agree."""
    return estimand, dataclasses.replace(estimand, root=prune(estimand.root, g))


# ---------------------------------------------------------------------------
# the five standard scenarios


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("cardinality", [2, 3])
def test_scenario_estimands_match_exact_intervention(scenario, cardinality):
    g = scenario_graph(scenario)
    rng = np.random.default_rng(hash(("id", scenario, cardinality)) % 2**32)
    scm = DiscreteSCM.random(rng, g, cardinality=cardinality)
    joint = joint_from(scm)
    for estimand in with_pruned(identified(g, ["X"], ["Y"]), g):
        for value in range(cardinality):
            got = evaluate_estimand(estimand, joint, value)
            want = scm.interventional({"Y": value}, ("X",))
            assert np.allclose(got, want, atol=1e-9, rtol=0)


def test_scenario_estimand_text_is_canonical():
    goldens = {
        "a": "Σ_{u} P(u) P(x|u,y)",
        "b": "Σ_{u,z} P(u) P(x|u,y,z) P(z|u,y)",
        "c": "Σ_{u,z} P(u) P(z|u,y) (Σ_{y'} P(x|u,y',z) P(y'|u))",
        "d": "Σ_{z} P(z|y) (Σ_{y'} P(x|y',z) P(y'))",
        "e": "Σ_{u} P(u) (Σ_{d} P(d|u,y) P(x|d,u,y))",
    }
    for scenario, text in goldens.items():
        first = identified(scenario_graph(scenario), ["X"], ["Y"])
        again = identified(scenario_graph(scenario), ["X"], ["Y"])
        assert estimand_to_text(first) == text
        assert first == again


def test_backdoor_adjustment_structure():
    u, x, y = Ref("U", "u"), Ref("X", "x"), Ref("Y", "y")
    hand = Sum((("u", "U"),), Product((Cond((u,)), Cond((x,), (u, y)))))
    assert identified(scenario_graph("a"), ["X"], ["Y"]).root == hand


def test_frontdoor_adjustment_structure():
    x, y, z = Ref("X", "x"), Ref("Y", "y"), Ref("Z", "z")
    y2 = Ref("Y", "y'")
    inner = Sum((("y'", "Y"),), Product((Cond((x,), (y2, z)), Cond((y2,)))))
    hand = Sum((("z", "Z"),), Product((Cond((z,), (y,)), inner)))
    assert identified(scenario_graph("d"), ["X"], ["Y"]).root == hand


def test_selection_variable_drops_out_numerically():
    # The extra recorded variable changes the expression but not its value:
    # summing it out recovers plain adjustment for the remaining structure.
    g = scenario_graph("e")
    rng = np.random.default_rng(5)
    joint = joint_from(DiscreteSCM.random(rng, g))
    with_d = identified(g, ["X"], ["Y"])
    u, x, y = Ref("U", "u"), Ref("X", "x"), Ref("Y", "y")
    plain = Estimand(
        root=Sum((("u", "U"),), Product((Cond((u,)), Cond((x,), (u, y))))),
        outcome=("X",),
        intervention=("Y",),
    )
    for value in (0, 1):
        assert np.allclose(
            evaluate_estimand(with_d, joint, value),
            evaluate_estimand(plain, joint, value),
            atol=1e-12,
        )


def test_parent_only_factorizations_agree_numerically():
    # The emitted conditionals carry full prefixes; dropping conditioning
    # variables that the graph renders irrelevant must not change values.
    u, x, y, z = Ref("U", "u"), Ref("X", "x"), Ref("Y", "y"), Ref("Z", "z")
    y2 = Ref("Y", "y'")
    hands = {
        "b": Sum(
            (("u", "U"), ("z", "Z")),
            Product((Cond((x,), (u, z)), Cond((z,), (y,)), Cond((u,)))),
        ),
        "c": Sum(
            (("u", "U"), ("z", "Z")),
            Product(
                (
                    Sum((("y'", "Y"),), Product((Cond((x,), (u, y2, z)), Cond((y2,), (u,))))),
                    Cond((z,), (y,)),
                    Cond((u,)),
                )
            ),
        ),
    }
    for scenario, root in hands.items():
        g = scenario_graph(scenario)
        rng = np.random.default_rng(11)
        joint = joint_from(DiscreteSCM.random(rng, g))
        mine = identified(g, ["X"], ["Y"])
        hand = Estimand(root=root, outcome=("X",), intervention=("Y",))
        for value in (0, 1):
            assert np.allclose(
                evaluate_estimand(mine, joint, value),
                evaluate_estimand(hand, joint, value),
                atol=1e-12,
            )


def test_bow_graph_is_unidentifiable():
    g = parse_graph("Y -> X; Y <-> X;")
    out = identify(g, ["X"], ["Y"])
    assert isinstance(out, Unidentifiable)
    assert "hedge" in out.witness
    assert "X" in out.witness and "Y" in out.witness


# ---------------------------------------------------------------------------
# latent projection


def test_latent_fork_projects_to_bidirected():
    g = latent_project(parse_graph("latent H; H -> A; H -> B; A -> B;"))
    assert g.nodes == ("A", "B")
    assert g.directed == frozenset({("A", "B")})
    assert g.bidirected == frozenset({("A", "B")})
    assert not g.latent


def test_latent_mediator_projects_to_directed_edge():
    g = latent_project(parse_graph("latent H; A -> H; H -> B;"))
    assert g.directed == frozenset({("A", "B")})
    assert not g.bidirected


def test_latent_chain_confounds_its_reachable_set():
    g = latent_project(
        parse_graph("latent H1; latent H2; H1 -> H2; H2 -> A; H1 -> B;")
    )
    assert g.directed == frozenset()
    assert g.bidirected == frozenset({("A", "B")})


def test_latent_diamond_projects_and_matches_enumeration():
    # L1 reaches L4 along two latent paths, so the walk from L1 meets it twice
    g = parse_graph(
        "latent L1; latent L2; latent L3; latent L4; L1 -> L2; L1 -> L3; "
        "L2 -> L4; L3 -> L4; L4 -> Y; L3 -> X; Y -> Z; Z -> X"
    )
    projected = latent_project(g)
    assert set(projected.nodes) == {"X", "Y", "Z"}
    assert projected.directed == frozenset({("Y", "Z"), ("Z", "X")})
    assert projected.bidirected == frozenset({("X", "Y")})
    estimand = identified(g, ["X"], ["Y"])
    scm = DiscreteSCM.random(np.random.default_rng(11), g)
    joint = joint_from(scm)
    for value in (0, 1):
        got = evaluate_estimand(estimand, joint, {"Y": value})
        assert np.allclose(got, scm.interventional({"Y": value}, ("X",)), atol=1e-12)


def test_explicit_latent_confounder_makes_a_bow():
    g = parse_graph("latent U; U -> Y; U -> X; Y -> X;")
    assert isinstance(identify(g, ["X"], ["Y"]), Unidentifiable)


def test_explicit_latent_agrees_with_bidirected_form():
    explicit = parse_graph("latent L; L -> Y; L -> X; Y -> Z; Z -> X;")
    twin = scenario_graph("d")
    a = identified(explicit, ["X"], ["Y"])
    b = identified(twin, ["X"], ["Y"])
    assert estimand_to_text(a) == estimand_to_text(b)


# ---------------------------------------------------------------------------
# input validation


def test_identify_rejects_bad_queries():
    g = scenario_graph("a")
    with pytest.raises(GraphError):
        identify(g, [], ["Y"])
    with pytest.raises(GraphError):
        identify(g, ["X"], ["X"])
    with pytest.raises(GraphError):
        identify(g, ["Q"], ["Y"])
    latent = parse_graph("latent U; U -> Y; U -> X; Y -> X;")
    with pytest.raises(GraphError):
        identify(latent, ["U"], ["Y"])


# ---------------------------------------------------------------------------
# soundness on random graphs, against exact enumeration


def test_random_graphs_match_enumeration():
    identified_count = 0
    blocked_count = 0
    for seed in range(120):
        rng = np.random.default_rng(7_000 + seed)
        g = random_admg(rng, int(rng.integers(2, 6)), p_edge=0.5, p_bi=0.3)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        intervention = nodes[:1]
        outcome = nodes[1 : 2 + int(rng.integers(0, min(2, len(nodes) - 1)))]
        if not outcome:
            continue
        out = identify(g, outcome, intervention)
        if isinstance(out, Unidentifiable):
            blocked_count += 1
            continue
        identified_count += 1
        scm = DiscreteSCM.random(rng, g)
        joint = joint_from(scm)
        for estimand in with_pruned(out.estimand, g):
            for value in (0, 1):
                got = evaluate_estimand(estimand, joint, {intervention[0]: value})
                want = scm.interventional(
                    {intervention[0]: value}, estimand.outcome
                ).ravel()
                assert np.allclose(got, want, atol=1e-9, rtol=0), (seed, g)
    assert identified_count >= 30
    assert blocked_count >= 10


def test_random_graphs_multi_node_interventions():
    checked = 0
    for seed in range(80):
        rng = np.random.default_rng(9_500 + seed)
        g = random_admg(rng, int(rng.integers(3, 6)), p_edge=0.5, p_bi=0.25)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        intervention = nodes[:2]
        outcome = nodes[2:3]
        out = identify(g, outcome, intervention)
        if isinstance(out, Unidentifiable):
            continue
        checked += 1
        scm = DiscreteSCM.random(rng, g)
        joint = joint_from(scm)
        for estimand in with_pruned(out.estimand, g):
            for v0 in (0, 1):
                for v1 in (0, 1):
                    do = {intervention[0]: v0, intervention[1]: v1}
                    got = evaluate_estimand(estimand, joint, do)
                    want = scm.interventional(do, estimand.outcome).ravel()
                    assert np.allclose(got, want, atol=1e-9, rtol=0), (seed, g)
    assert checked >= 20


@pytest.mark.parametrize(
    "text",
    [
        "x -> X; X -> Y; x -> Y",
        "X -> Y; X <-> x; x -> Y",
        "x -> X; X -> Y; x -> Y; y -> Y; y -> X",
    ],
)
def test_node_names_that_collide_when_lower_cased_match_enumeration(text):
    # X and x both lower-case to "x", so one of them is shown primed,
    # bound or free: the last two queries hold both as free variables
    g = parse_graph(text)
    queries = (("Y", ["X"]), ("X", ["Y"]), ("X", ["x"]), ("Y", ["X", "x"]))
    for outcome, intervention in queries:
        for seed in range(5):
            scm = DiscreteSCM.random(np.random.default_rng(seed), g)
            joint = joint_from(scm)
            for estimand in with_pruned(identified(g, [outcome], intervention), g):
                for values in product((0, 1), repeat=len(intervention)):
                    do = dict(zip(intervention, values))
                    got = evaluate_estimand(estimand, joint, do)
                    want = scm.interventional(do, (outcome,))
                    assert np.allclose(got, want, atol=1e-9, rtol=0), (outcome, do, seed)


# One line per query, the estimand text or the hedge witness, over the five
# scenario graphs and 500 random ADMGs (seeds 0-499); 79 of the 505 are hedges.
ENGINE_TEXT_SHA256 = "92f90b0ea312612dbe026a8383de5ea0c6d7f520f82317c7eb849f8349122d2c"


def engine_queries():
    queries = [(scenario_graph(s), ["X"], ["Y"]) for s in SCENARIOS]
    for seed in range(500):
        rng = np.random.default_rng(seed)
        g = random_admg(rng, int(rng.integers(2, 7)), p_edge=0.5, p_bi=0.3)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        outcome = nodes[1 : 2 + int(rng.integers(0, min(2, len(nodes) - 1)))]
        queries.append((g, outcome, nodes[:1]))
    return queries


def test_engine_text_on_random_graphs_matches_pinned_digest():
    assert engine_text_digest(engine_queries()) == ENGINE_TEXT_SHA256


# The same over 1,000 larger ADMGs (seeds 0-999): 5-10 nodes, p_edge drawn
# from U(0.2, 0.7) and p_bi from U(0.1, 0.5), 1-3 intervention nodes and
# 1-3 outcomes.  370 are hedges, 542 hold a sum and 119 a quotient.
WIDE_ENGINE_TEXT_SHA256 = "8a55411fedc32f11543465a9e58718b9f9d96477acb0ce9a0ff03b00e2ad041b"


def wide_queries(count=1000):
    queries = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        g = random_admg(
            rng,
            int(rng.integers(5, 11)),
            p_edge=rng.uniform(0.2, 0.7),
            p_bi=rng.uniform(0.1, 0.5),
        )
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        k = int(rng.integers(1, 4))
        queries.append((g, nodes[k : k + int(rng.integers(1, 4))], nodes[:k]))
    return queries


def test_engine_text_on_larger_random_graphs_matches_pinned_digest():
    assert engine_text_digest(wide_queries()) == WIDE_ENGINE_TEXT_SHA256


def engine_text_digest(queries) -> str:
    """sha256 of one line per query: the estimand text or the hedge witness."""
    lines = []
    for g, outcome, intervention in queries:
        out = identify(g, outcome, intervention)
        if isinstance(out, Identified):
            lines.append(estimand_to_text(out.estimand))
        else:
            lines.append(out.witness)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pruning


@pytest.mark.parametrize(
    "queries", [engine_queries, lambda: wide_queries(300)], ids=["engine", "wide"]
)
def test_prune_reaches_its_own_fixpoint(queries):
    for g, outcome, intervention in queries():
        out = identify(g, outcome, intervention)
        if isinstance(out, Identified):
            once = prune(out.estimand.root, g)
            assert prune(once, g) == once, estimand_to_text(out.estimand)


def test_prune_keeps_a_sum_that_collapses_whole():
    # Σ_u P(u) is 1, but inside a quotient or a product nothing could
    # stand in for it, so it stays; the idle y beside it is dropped
    g = parse_graph("U -> X; Y")
    u, x, y = Ref("U", "u"), Ref("X", "x"), Ref("Y", "y")
    whole = Sum((("u", "U"),), Cond((u,)))
    joint = joint_from(DiscreteSCM.random(np.random.default_rng(3), g))
    cases = [
        (Quotient(Cond((x,), (y,)), whole), "(P(x)) / (Σ_{u} P(u))"),
        (Product((Cond((x,), (y,)), whole)), "P(x) (Σ_{u} P(u))"),
    ]
    for root, text in cases:
        before, after = with_pruned(Estimand(root, ("X",), ("Y",)), g)
        assert estimand_to_text(after) == text
        for value in (0, 1):
            assert np.allclose(
                evaluate_estimand(before, joint, value),
                evaluate_estimand(after, joint, value),
                atol=1e-12,
            )
    assert prune(whole, g) == whole


# ---------------------------------------------------------------------------
# evaluation mechanics


def test_quotient_of_sums_equals_conditioning():
    a, b = Ref("A", "a"), Ref("B", "b")
    joint = JointTable(
        ("A", "B"), {"A": (0, 1), "B": (0, 1)}, np.array([[0.1, 0.2], [0.3, 0.4]])
    )
    quotient = Estimand(
        root=Quotient(Cond((a, b)), Cond((b,))),
        outcome=("A",),
        intervention=("B",),
    )
    direct = Estimand(root=Cond((a,), (b,)), outcome=("A",), intervention=("B",))
    assert estimand_to_text(quotient) == "(P(a,b)) / (P(b))"
    for value in (0, 1):
        assert np.allclose(
            evaluate_estimand(quotient, joint, value),
            evaluate_estimand(direct, joint, value),
            atol=1e-12,
        )


def test_conditioning_on_zero_mass_raises():
    a = Ref("A", "a")
    b = Ref("B", "b")
    joint = JointTable(
        ("A", "B"), {"A": (0, 1), "B": (0, 1)}, np.array([[0.5, 0.0], [0.5, 0.0]])
    )
    est = Estimand(root=Cond((a,), (b,)), outcome=("A",), intervention=("B",))
    with pytest.raises(EstimandError, match="zero-mass"):
        evaluate_estimand(est, joint, 1)


def test_non_distribution_results_are_rejected():
    x = Ref("X", "x")
    joint = JointTable(("X",), {"X": (0, 1)}, np.array([0.5, 0.5]))
    squared = Estimand(
        root=Product((Cond((x,)), Cond((x,)))), outcome=("X",), intervention=()
    )
    with pytest.raises(EstimandError, match="non-distribution"):
        evaluate_estimand(squared, joint, {})


def test_joint_table_validation():
    with pytest.raises(EstimandError):
        JointTable(("A",), {"A": (0, 1)}, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(EstimandError):
        JointTable(("A",), {"A": (0, 1)}, np.array([1.5, -0.5]))
    with pytest.raises(EstimandError):
        JointTable(("A",), {"A": (0, 1)}, np.array([0.9, 0.2]))


def test_missing_intervention_value_raises():
    est = identified(scenario_graph("a"), ["X"], ["Y"])
    joint = joint_from(DiscreteSCM.random(np.random.default_rng(0), scenario_graph("a")))
    with pytest.raises(EstimandError):
        evaluate_estimand(est, joint, {})
