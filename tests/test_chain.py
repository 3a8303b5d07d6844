"""Coupling families, geometry, disorder, timing, serialisation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import (
    MODELS,
    ChainSpec,
    dipolar_couplings,
    engineered_couplings,
    homogeneous_couplings,
    implant_spacings,
    normalized_time,
    perturb_couplings,
    transfer_timing,
)
from spinwire.errors import (
    DegenerateGeometryError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    SpinwireError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)
from spinwire.propagator import propagate, spectral_decompose


def test_homogeneous_examples():
    assert homogeneous_couplings(4, 1.0).couplings == (1.0, 1.0, 1.0)
    assert homogeneous_couplings(1, 5.0).couplings == ()
    spec = homogeneous_couplings(21, 1.0)
    assert len(spec.couplings) == 20 and set(spec.couplings) == {1.0}
    assert spec.model == "xx"


def test_engineered_examples():
    assert engineered_couplings(2, 1.0).couplings == (1.0,)
    three = engineered_couplings(3, 1.0).couplings
    np.testing.assert_allclose(three, [2 * math.sqrt(2) / 3] * 2, rtol=1e-15)
    np.testing.assert_allclose(three, [0.94281] * 2, atol=5e-6)
    four = engineered_couplings(4, 1.0).couplings
    np.testing.assert_allclose(four, [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2], rtol=1e-15)


@given(st.integers(2, 60), st.floats(0.1, 10, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_engineered_mirror_symmetry_and_maximum(n, d):
    cpl = engineered_couplings(n, d).couplings
    # mirror symmetry is exact: j(n-j) is literally the same product
    for j in range(1, n):
        assert cpl[j - 1] == cpl[n - j - 1]
    peak = d * math.sqrt((n // 2) * ((n + 1) // 2)) * 2 / n
    assert max(cpl) == pytest.approx(peak, rel=1e-14)
    assert max(cpl) <= d * (1 + 1e-12)
    if n % 2 == 0:
        assert cpl[n // 2 - 1] == pytest.approx(d, rel=1e-14)


def test_invalid_dimensions_and_scales():
    with pytest.raises(InvalidDimensionError):
        homogeneous_couplings(0, 1.0)
    with pytest.raises(InvalidDimensionError):
        engineered_couplings(1, 1.0)
    with pytest.raises(InvalidParameterError):
        engineered_couplings(4, 0.0)
    with pytest.raises(InvalidParameterError):
        homogeneous_couplings(4, float("inf"))


def test_implant_spacing_examples():
    pos = implant_spacings(2, r_min=15e-9)
    np.testing.assert_allclose(np.diff(pos), [15e-9], rtol=1e-15)
    assert pos[0] == 0.0

    pos = implant_spacings(9, r_min=1.0)
    gaps = np.diff(pos)
    np.testing.assert_allclose(gaps, gaps[::-1], rtol=1e-13)  # symmetric
    assert gaps.argmin() in (3, 4)  # tightest gap at the centre
    with pytest.raises(InvalidParameterError):
        implant_spacings(5, r_min=0.0)
    with pytest.raises(InvalidDimensionError):
        implant_spacings(1, r_min=1.0)


def test_dipolar_couplings_inverse_cube():
    pos = np.arange(4, dtype=float) * 2.0
    spec = dipolar_couplings(pos, prefactor=1.0, model="xx")
    np.testing.assert_allclose(spec.couplings, [-2.0 / 8.0] * 3, rtol=1e-15)

    stretched = np.array([0.0, 2.0, 6.0, 8.0])  # middle gap doubled
    spec2 = dipolar_couplings(stretched, prefactor=1.0, model="xx")
    assert spec2.couplings[1] == pytest.approx(spec.couplings[1] / 8.0, rel=1e-14)

    with pytest.raises(DegenerateGeometryError):
        dipolar_couplings([0.0, 1.0, 1.0], prefactor=1.0)
    with pytest.raises(InvalidParameterError):
        dipolar_couplings([0.0, 1.0], prefactor=0.0)


# a gap whose cube is 0, and a coupling past the float range
@pytest.mark.parametrize("positions, prefactor", [([0.0, 1e-200, 2.0], 1.0),
                                                  ([0.0, 1e-10, 1.0], 1e300)])
@pytest.mark.parametrize("model", MODELS)
def test_dipolar_couplings_past_the_float_range_raise_without_warning(positions, prefactor, model):
    # warnings are errors (pyproject.toml), so a RuntimeWarning fails here
    with pytest.raises(InvalidParameterError):
        dipolar_couplings(positions, prefactor, model)


def test_disorder_past_the_float_range_raises_without_warning():
    with pytest.raises(InvalidParameterError):
        perturb_couplings(ChainSpec(3, "xx", (1e308, 1e308)), 10.0, seed=0)


@pytest.mark.parametrize("n", [10, 1000])
def test_implanted_chain_past_the_float_range_raises_without_warning(n):
    # n = 10 overflows in the running sum of the gaps, n = 1000 in the gaps themselves
    with pytest.raises(InvalidParameterError):
        implant_spacings(n, 1e308)


@pytest.mark.parametrize("n", [2, 5, 10, 21])
def test_implanted_geometry_reproduces_engineered_profile(n):
    pos = implant_spacings(n, r_min=2.0)
    spec = dipolar_couplings(pos, prefactor=-1.0, model="xx")
    j = np.arange(1, n)
    profile = np.sqrt(j * (n - j))
    ratio = np.asarray(spec.couplings) / profile
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_perturbation_contract():
    spec = engineered_couplings(8, 1.0)
    assert perturb_couplings(spec, 0.0, seed=3) == spec
    once = perturb_couplings(spec, 0.05, seed=42)
    again = perturb_couplings(spec, 0.05, seed=42)
    assert once.couplings == again.couplings
    other = perturb_couplings(spec, 0.05, seed=43)
    assert once.couplings != other.couplings
    with pytest.raises(InvalidParameterError):
        perturb_couplings(spec, -0.1, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_perturbation_rejects_bad_seed(seed):
    with pytest.raises(InvalidParameterError):
        perturb_couplings(engineered_couplings(8, 1.0), 0.1, seed)


def test_disorder_monte_carlo_median():
    # engineered n=15, 5% multiplicative disorder: the end-to-end transfer
    # probability at the clean mirror time stays high in the median
    n, sigma = 15, 0.05
    spec = engineered_couplings(n, 1.0)
    t_star = transfer_timing(spec).t_star
    decs = [spectral_decompose(perturb_couplings(spec, sigma, seed)) for seed in range(100)]
    probs = [abs(propagate(dec, t_star)[0, n - 1]) ** 2 for dec in decs]
    median = float(np.median(probs))
    assert median > 0.9
    # frozen regression value from the first run of this exact sweep
    assert median == pytest.approx(0.962211485095997, abs=1e-9)


def test_transfer_timing_engineered():
    timing = transfer_timing(engineered_couplings(4, 1.0))
    assert timing.t_star == pytest.approx(math.pi, rel=1e-15)
    timing21 = transfer_timing(engineered_couplings(21, 1.0))
    assert timing21.t_star == pytest.approx(21 * math.pi / 4, rel=1e-15)
    # the group velocity sweeps the whole chain exactly once by t*
    for n in (2, 7, 16):
        tm = transfer_timing(engineered_couplings(n, 2.5))
        assert tm.t_star * tm.group_velocity == pytest.approx(n, rel=1e-12)


def test_transfer_timing_family_detection():
    with pytest.raises(UnsupportedFamilyError):
        transfer_timing(homogeneous_couplings(6, 1.0))
    with pytest.raises(UnsupportedFamilyError):  # no bond at all: no profile scale
        transfer_timing(ChainSpec(6, "xx", (0.0,) * 5))
    # a global sign flip leaves transfer probabilities invariant
    flipped = ChainSpec(6, "xx", tuple(-c for c in engineered_couplings(6, 1.3).couplings))
    assert transfer_timing(flipped).t_star == pytest.approx(
        transfer_timing(engineered_couplings(6, 1.3)).t_star
    )


def test_normalized_time_mirror_phase():
    t_star = transfer_timing(engineered_couplings(21, 1.0)).t_star
    assert normalized_time(21, 1.0, [t_star]) == pytest.approx([math.pi / 2], rel=1e-15)
    grid = normalized_time(10, 2.0, np.array([0.0, 1.0]))
    np.testing.assert_allclose(grid, [0.0, 0.4])
    with pytest.raises(InvalidParameterError):
        normalized_time(21, 1.0, t_star)


def test_spec_validation():
    with pytest.raises(InvalidConfigurationError):
        ChainSpec(4, "xx", (1.0, 1.0))  # wrong length
    with pytest.raises(UnsupportedModelError):
        ChainSpec(4, "ising", (1.0,) * 3)
    with pytest.raises(InvalidParameterError):
        ChainSpec(3, "xx", (1.0, float("nan")))


def test_json_document_shape():
    spec = engineered_couplings(4, 1.0, model="dq")
    doc = json.loads(spec.to_json())
    assert set(doc) == {"n", "model", "couplings"}
    assert doc["n"] == 4 and doc["model"] == "dq"
    # floats keep full precision through the round trip
    assert ChainSpec.from_json(spec.to_json()) == spec


def test_json_error_paths():
    with pytest.raises(InvalidConfigurationError):
        ChainSpec.from_json("not json")
    with pytest.raises(InvalidConfigurationError):
        ChainSpec.from_json("[1, 2]")
    with pytest.raises(InvalidConfigurationError):
        ChainSpec.from_json('{"n": 3, "model": "xx"}')
    with pytest.raises(InvalidConfigurationError):
        ChainSpec.from_json('{"schema": "other/9", "n": 2, "model": "xx", "couplings": [1.0]}')
    # not a str or bytes, bytes that are not UTF-8, nesting past the recursion limit
    for text in (5, None, b"\x80abc", "[" * 100000):
        with pytest.raises(InvalidConfigurationError):
            ChainSpec.from_json(text)


@given(
    st.integers(2, 12),
    st.sampled_from(["xx", "dq"]),
    st.lists(st.floats(-3, 3, allow_nan=False, allow_infinity=False), min_size=1, max_size=11),
)
@settings(max_examples=60, deadline=None)
def test_json_round_trip_property(n, model, values):
    couplings = tuple(values[: n - 1]) + (1.0,) * max(0, n - 1 - len(values))
    spec = ChainSpec(n, model, couplings)
    assert ChainSpec.from_json(spec.to_json()) == spec


def test_spec_accepts_numpy_length_and_rejects_non_numeric_couplings():
    spec = ChainSpec(np.int64(3), "xx", (1.0, 1.0))
    assert spec == ChainSpec(3, "xx", (1.0, 1.0)) and type(spec.n) is int
    for bad in (("a", 1.0), (1.0, 1j), (True, 1.0), 5, "11"):
        with pytest.raises(InvalidParameterError):
            ChainSpec(3, "xx", bad)


@pytest.mark.parametrize(
    "fields",
    [
        '"n": 3.7, "model": "xx", "couplings": [1.0, 1.0]',
        '"n": true, "model": "xx", "couplings": []',
        '"n": "abc", "model": "xx", "couplings": [1.0, 1.0]',
        '"n": null, "model": "xx", "couplings": [1.0, 1.0]',
        '"n": 3, "model": "xx", "couplings": "11"',
        '"n": 3, "model": "xx", "couplings": 5',
        '"n": 3, "model": "xx", "couplings": ["a", 1.0]',
        '"n": 3, "model": "xx", "couplings": [1' + '0' * 400 + ', 1.0]',
    ],
    ids=lambda fields: fields[:48],
)
def test_json_rejects_malformed_fields(fields):
    with pytest.raises(SpinwireError):
        ChainSpec.from_json("{" + fields + "}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def chain_docs(draw):
    """A valid chain document with any of its fields dropped or replaced by arbitrary JSON."""
    n = draw(st.integers(1, 6))
    model = draw(st.sampled_from(MODELS))
    values = st.lists(st.floats(-3, 3) | st.integers(-5, 5), min_size=n - 1, max_size=n - 1)
    doc = {"n": n, "model": model, "couplings": draw(values)}
    for key in draw(st.sets(st.sampled_from(["n", "model", "couplings", "schema"]))):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(JSON_VALUES)
    return doc


@given(chain_docs() | JSON_VALUES)
@settings(max_examples=50, deadline=None)
def test_from_json_gives_valid_spec_or_spinwire_error(doc):
    try:
        spec = ChainSpec.from_json(json.dumps(doc))
    except SpinwireError:
        return
    assert type(spec.n) is int and all(math.isfinite(c) for c in spec.couplings)
    assert ChainSpec.from_json(spec.to_json()) == spec
