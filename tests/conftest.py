"""Fixtures shared by the test modules."""

import pytest

from causalboot import bootstrap
from causalboot.graph import ScenarioId, parse_graph


@pytest.fixture
def unidentifiable_a(monkeypatch):
    """Scenario a with its graph replaced by the bow Y -> X; Y <-> X, in
    which P(x | do(y)) is not identifiable.  The cached identification
    outcomes are cleared before and after, so no other test sees it."""
    bow = parse_graph("Y -> X; Y <-> X")
    real = bootstrap.scenario_graph

    def graph(scenario):
        if ScenarioId.coerce(scenario) is ScenarioId.OBSERVED_CONF:
            return bow
        return real(scenario)

    monkeypatch.setattr(bootstrap, "scenario_graph", graph)
    bootstrap._weight_form.cache_clear()
    yield ScenarioId.OBSERVED_CONF
    bootstrap._weight_form.cache_clear()
