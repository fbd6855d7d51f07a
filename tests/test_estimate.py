"""Resampling kernels and bandwidths."""

import numpy as np
import pytest

from causalboot.bootstrap import ResampleConfig, cb_resample, cb_weights
from causalboot.estimate import EstimateError, KernelSpec, _code, silverman_bandwidth
from causalboot.simulate import Dataset


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
    with pytest.raises(EstimateError) as got:
        KernelSpec("box")
    assert str(got.value) == "unknown kernel kind 'box'"


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


# ---------------------------------------------------------------------------
# coding discrete columns

def domains(dtype):
    """Sorted domains that fit in ``dtype``: short runs and gaps, one
    value, the type's extremes, and every value of a one-byte type."""
    low, high = (int(v) for v in (np.iinfo(dtype).min, np.iinfo(dtype).max))
    cases = [
        [0, 1, 2, 3, 4],
        [7, 8, 9, 10],
        [0, 1, 3],
        [-3, -2, -1, 0, 1, 2],
        [-5, -1, 0, 4],
        [5],
        [0],
        [high - 2, high - 1, high],
        [low, low + 1, low + 2],
        [low, high],
        [low, 0, high],
        [high],
        [low],
    ]
    if high - low < 256:
        cases.append(list(range(low, high + 1)))
    return [sorted(set(d)) for d in cases if low <= min(d)]


@pytest.mark.parametrize(
    "dtype, domain",
    [
        (dtype, domain)
        for dtype in (np.int8, np.uint8, np.int16, np.int64)
        for domain in domains(dtype)
    ],
)
def test_code_equals_a_search_into_the_domain(dtype, domain):
    # contiguous domains are coded by offset, the rest by a search, and a
    # one-byte column's domain comes from a table of its bytes: the codes
    # are the search's by value either way, in the column's own dtype
    # where the domain is a run from 0, and the domain is int64 always
    domain = np.array(domain, dtype=np.int64)
    rng = np.random.default_rng(len(domain))
    values = np.concatenate([domain, rng.choice(domain, size=500)]).astype(dtype)
    rng.shuffle(values)
    got_domain, codes = _code(values)
    assert got_domain.dtype == np.int64
    assert got_domain.tobytes() == domain.tobytes()
    assert np.issubdtype(codes.dtype, np.integer)
    assert np.array_equal(codes, domain.searchsorted(values))
    if domain[0] == 0 and domain[-1] == len(domain) - 1:
        assert codes is values
