"""Plug-in conditional tables, resampling kernels and bandwidths."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalboot.bootstrap import ResampleConfig, cb_resample, cb_weights
from causalboot.estimate import (
    CategoricalTable,
    EstimateError,
    KernelSpec,
    ZeroSupportError,
    fit_conditional,
    silverman_bandwidth,
)
from causalboot.simulate import Dataset


def table_from(alpha=0.0, **cols):
    columns = {k: np.asarray(v) for k, v in cols.items()}
    names = list(columns)
    return fit_conditional(columns, names[0], names[1:], alpha=alpha)


# ---------------------------------------------------------------------------
# fitting and lookup


def test_hand_counted_frequencies():
    t = table_from(y=[1, 1, 1, 0], u=[1, 1, 0, 0])
    assert t.prob(1, (1,)) == 1.0
    assert t.prob(1, (0,)) == 0.5
    assert t.prob(0, (0,)) == 0.5
    assert t.prob(0, (1,)) == 0.0


def test_pseudo_counts_fill_an_empty_cell():
    # (u=1, z=1) never occurs; alpha=1 gives the symmetric 0.5 on a
    # binary target, and alpha=0 refuses with the offending assignment.
    cols = dict(y=[0, 1, 1], u=[0, 0, 1], z=[0, 1, 0])
    smoothed = table_from(alpha=1.0, **cols)
    assert smoothed.prob(0, (1, 1)) == 0.5
    assert smoothed.prob(1, (1, 1)) == 0.5
    raw = table_from(alpha=0.0, **cols)
    with pytest.raises(ZeroSupportError, match="u=1,z=1"):
        raw.prob(0, (1, 1))


def test_single_class_data_is_a_point_mass():
    t = table_from(y=[1, 1, 1])
    assert t.prob(1, ()) == 1.0


def test_out_of_domain_values_are_rejected():
    t = table_from(y=[0, 1], u=[0, 1])
    with pytest.raises(EstimateError, match="domain"):
        t.prob(2, (0,))
    with pytest.raises(EstimateError, match="domain"):
        t.prob(1, (7,))


def test_non_discrete_and_empty_columns_are_rejected():
    with pytest.raises(EstimateError, match="not discrete"):
        table_from(y=[0.5, 1.0])
    with pytest.raises(EstimateError, match="empty"):
        table_from(y=[])
    with pytest.raises(EstimateError, match="no column"):
        fit_conditional({"y": np.array([0, 1])}, "y", ["missing"])
    with pytest.raises(EstimateError, match="length"):
        fit_conditional(
            {"y": np.array([0, 1]), "u": np.array([0, 1, 0])}, "y", ["u"]
        )
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(EstimateError, match="finite and nonnegative"):
            table_from(alpha=alpha, y=[0, 1])


def test_float_coded_integers_are_accepted():
    t = table_from(y=np.array([0.0, 1.0, 1.0]))
    assert t.prob(1, ()) == pytest.approx(2 / 3)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=40),
    st.sampled_from([0.0, 0.7, 1.0]),
)
def test_rows_sum_to_one_and_match_independent_counts(pairs, alpha):
    y = np.array([a for a, _ in pairs])
    u = np.array([b for _, b in pairs])
    t = fit_conditional({"y": y, "u": u}, "y", ["u"], alpha=alpha)
    counts = Counter(pairs)
    for uv in np.unique(u):
        total = sum(p for (yv, g), p in [
            ((yv, uv), t.prob(yv, (uv,))) for yv in t.target_domain
        ])
        assert total == pytest.approx(1.0, abs=1e-12)
        if alpha == 0.0:
            group = sum(c for (_, g), c in counts.items() if g == uv)
            for yv in t.target_domain:
                assert t.prob(yv, (uv,)) == pytest.approx(
                    counts.get((yv, uv), 0) / group
                )


def test_vectorized_lookup_matches_scalar():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 3, 200)
    u = rng.integers(0, 2, 200)
    z = rng.integers(0, 2, 200)
    t = fit_conditional({"y": y, "u": u, "z": z}, "y", ["u", "z"], alpha=0.3)
    got = t.prob_rows(y, (u, z))
    want = np.array([t.prob(a, (b, c)) for a, b, c in zip(y, u, z)])
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(EstimateError, match="conditioning columns"):
        t.prob_rows(y, (u,))


def test_vectorized_zero_support_reports_the_cell():
    t = table_from(y=[0, 1, 1], u=[0, 0, 1], z=[0, 1, 0])
    with pytest.raises(ZeroSupportError, match="u=1,z=1"):
        t.prob_rows(np.array([0]), (np.array([1]), np.array([1])))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_spec_parsing_and_validation():
    assert KernelSpec.parse("delta") == KernelSpec.delta()
    assert KernelSpec.parse("gaussian:0.5") == KernelSpec.gaussian(0.5)
    assert KernelSpec.parse("gaussian") == KernelSpec.gaussian()
    for bad in ("bogus", "gaussian:", "gaussian:x", "delta:1"):
        with pytest.raises(EstimateError):
            KernelSpec.parse(bad)
    for bandwidth in (0.0, float("inf"), float("nan")):
        with pytest.raises(EstimateError, match="bandwidth"):
            KernelSpec.gaussian(bandwidth)
    with pytest.raises(EstimateError, match="bandwidth"):
        KernelSpec.parse("gaussian:inf")
    with pytest.raises(EstimateError):
        KernelSpec("delta", 1.0)


def test_silverman_bandwidth_closed_form():
    # Hand arithmetic: sigma = sqrt(5/3), h = sigma * (4/12)^(1/5).
    got = silverman_bandwidth(np.array([0.0, 1.0, 2.0, 3.0]))
    assert got == pytest.approx(1.036333, abs=1e-5)
    with pytest.raises(EstimateError):
        silverman_bandwidth(np.array([1.0]))
    with pytest.raises(EstimateError):
        silverman_bandwidth(np.array([2.0, 2.0, 2.0]))


def test_gaussian_kernel_defaults_to_silverman():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, 40)
    u = rng.integers(0, 2, 40)
    data = Dataset(x=rng.normal(size=(40, 2)), y=y, columns={"u": u}, shadow={})
    table = cb_weights(data.weight_columns(), "a")
    auto = cb_resample(data, table, ResampleConfig(3, KernelSpec.gaussian()))
    h = silverman_bandwidth(data.x)
    manual = cb_resample(data, table, ResampleConfig(3, KernelSpec.gaussian(h)))
    np.testing.assert_array_equal(auto.x, manual.x)
    wider = cb_resample(data, table, ResampleConfig(3, KernelSpec.gaussian(2 * h)))
    assert not np.array_equal(auto.x, wider.x)
