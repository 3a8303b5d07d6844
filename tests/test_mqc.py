"""Multiple-quantum coherence protocol: prepared states, spectra, cycling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import ChainSpec, homogeneous_couplings
from spinwire.errors import (
    AliasingError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    SpinwireError,
    UnsupportedModelError,
)
from spinwire.mqc import (
    PREPARED_KINDS,
    MqcSpectrum,
    mqc_analytic,
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_propagator_grid,
    prepare_state,
)
from support import MQC_SERIES


def test_prepared_state_z_ends():
    state = prepare_state(5, "z_ends")
    assert state.weight(((1, "Z"),)) == 1.0
    assert state.weight(((5, "Z"),)) == 1.0
    assert len(state.terms) == 2
    # no transverse factor: only coherence order 0
    assert all(letter == "Z" for _, string in state.terms for _, letter in string)


def test_prepared_state_full_z():
    state = prepare_state(5, "full_z")
    assert len(state.terms) == 5
    for j in range(1, 6):
        assert state.weight(((j, "Z"),)) == 1.0


def test_prepared_state_y_logical():
    n = 6
    state = prepare_state(n, "y_logical")
    assert len(state.terms) == 4
    for sites in (
        ((1, "Y"), (2, "X")),
        ((1, "X"), (2, "Y")),
        ((n - 1, "Y"), (n, "X")),
        ((n - 1, "X"), (n, "Y")),
    ):
        assert state.weight(sites) == 0.5
    # two transverse factors per string: coherence orders -2, 0 and 2
    assert {sum(letter in "XY" for _, letter in string) for _, string in state.terms} == {2}


def test_prepared_state_x_logical_is_rotated_y():
    n = 6
    state = prepare_state(n, "x_logical")
    rotated = prepare_state(n, "y_logical").rotated_z(math.pi / 4)
    assert state == rotated
    # collective pi/4 rotation turns (YX+XY)/2 into (YY-XX)/2 on each pair
    assert state.weight(((1, "X"), (2, "X"))) == pytest.approx(-0.5, abs=1e-15)
    assert state.weight(((1, "Y"), (2, "Y"))) == pytest.approx(0.5, abs=1e-15)
    assert state.weight(((1, "Y"), (2, "X"))) == pytest.approx(0.0, abs=1e-15)
    # the rotation leaves residues of about 1e-16 on the other strings, all pruned
    assert len(state.terms) == 4


def test_prepared_states_are_traceless():
    for kind in PREPARED_KINDS:
        assert all(string for _, string in prepare_state(6, kind).terms)


def test_prepare_state_validation():
    with pytest.raises(InvalidDimensionError):
        prepare_state(1, "z_ends")
    with pytest.raises(InvalidDimensionError):
        prepare_state(3, "y_logical")
    with pytest.raises(InvalidConfigurationError):
        prepare_state(5, "staggered")


def test_frozen_analytic_samples():
    z = mqc_analytic(5, 1.0, "z_ends", 0.8)
    assert z.intensity(0) == pytest.approx(0.478597016135475, abs=1e-12)
    assert z.intensity(2) == pytest.approx(0.260701491932262, abs=1e-12)
    y = mqc_analytic(5, 1.0, "y_logical", 0.8)
    assert y.intensity(0) == pytest.approx(-0.223969938139247, abs=1e-12)
    assert y.intensity(2) == pytest.approx(0.111984969069623, abs=1e-12)


def test_analytic_initial_values_and_symmetry():
    for n in (4, 7):
        z0 = mqc_analytic(n, 1.3, "z_ends", 0.0)
        assert z0.intensity(0) == pytest.approx(1.0, abs=1e-12)
        assert z0.intensity(2) == pytest.approx(0.0, abs=1e-14)
        y0 = mqc_analytic(n, 1.3, "y_logical", 0.0)
        assert y0.intensity(0) == pytest.approx(0.0, abs=1e-14)
        for t in (0.3, 1.7):
            for kind in ("z_ends", "y_logical"):
                spect = mqc_analytic(n, 1.3, kind, t)
                assert spect.intensity(2) == spect.intensity(-2)
            x = mqc_analytic(n, 1.3, "x_logical", t)
            assert x.intensities == (0.0, 0.0, 0.0)


def test_analytic_z_total_is_conserved():
    for t in (0.0, 0.4, 1.1, 2.9):
        spect = mqc_analytic(6, 1.0, "z_ends", t)
        assert sum(spect.intensities) == pytest.approx(1.0, abs=1e-12)
    # y-series intensities sum to zero instead: the state is orthogonal to Z
    for t in (0.4, 1.1):
        spect = mqc_analytic(6, 1.0, "y_logical", t)
        assert sum(spect.intensities) == pytest.approx(0.0, abs=1e-14)


def test_analytic_dispatch():
    # z_ends needs one end pair of sites, the logical kinds two
    assert mqc_analytic(2, 1.0, "z_ends", 0.8).orders == (-2, 0, 2)
    for kind in ("y_logical", "x_logical"):
        with pytest.raises(InvalidDimensionError):
            mqc_analytic(3, 1.0, kind, 0.8)
    with pytest.raises(InvalidConfigurationError):
        mqc_analytic(5, 1.0, "full_z", 0.8)


def test_cycled_matches_analytic_z_up_to_conserved_total():
    n, d, t = 5, 1.0, 0.8
    spec = homogeneous_couplings(n, d, model="dq")
    cycled = mqc_phase_cycled(spec, prepare_state(n, "z_ends"), t)
    analytic = mqc_analytic(n, d, "z_ends", t)
    # element 2 + q holds J_q; raw conserved total Tr[rho Z]/2^n = 2, analytic series
    # normalises to 1
    assert cycled.shape == (5,)
    assert sum(cycled) == pytest.approx(2.0, abs=1e-10)
    for q in (-2, 0, 2):
        assert cycled[2 + q] == pytest.approx(2.0 * analytic.intensity(q), abs=1e-10)
    assert cycled[2 + 1] == pytest.approx(0.0, abs=1e-12)


def test_cycled_x_logical_is_dark():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    for t in (0.5, 1.9):
        spect = mqc_phase_cycled(spec, prepare_state(n, "x_logical"), t)
        assert max(abs(v) for v in spect) <= 1e-10


def test_cycled_support_is_zero_and_two():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    spect = mqc_phase_cycled(
        spec, prepare_state(n, "z_ends"), 0.9, phase_steps=16, max_order=4
    )
    for q in (-4, -3, -1, 1, 3, 4):
        assert abs(spect[4 + q]) <= 1e-10
    assert spect[4 + 2] > 1e-3


def test_cycled_total_is_time_invariant():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    for kind, expected in (("z_ends", 2.0), ("full_z", float(n))):
        state = prepare_state(n, kind)
        totals = [
            sum(mqc_phase_cycled(spec, state, t, phase_steps=16, max_order=4))
            for t in (0.0, 0.7, 2.1)
        ]
        for total in totals:
            assert total == pytest.approx(expected, abs=1e-10)


def test_xx_evolution_stays_in_zero_order():
    # number-conserving dynamics never pumps double-quantum coherence
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="xx")
    spect = mqc_phase_cycled(spec, prepare_state(n, "z_ends"), 1.3)
    assert spect[2 + 0] == pytest.approx(2.0, abs=1e-10)
    assert abs(spect[2 + 2]) <= 1e-12
    assert abs(spect[2 - 2]) <= 1e-12


def test_cycled_parameter_validation():
    n = 4
    spec = homogeneous_couplings(n, 1.0, model="dq")
    state = prepare_state(n, "z_ends")
    with pytest.raises(AliasingError):
        mqc_phase_cycled(spec, state, 0.5, phase_steps=4, max_order=2)
    with pytest.raises(InvalidParameterError):
        mqc_phase_cycled(spec, state, 0.5, max_order=-1)
    with pytest.raises(InvalidDimensionError):
        mqc_phase_cycled(spec, prepare_state(5, "z_ends"), 0.5)
    for t in (math.nan, math.inf, -math.inf, "a"):
        with pytest.raises(InvalidParameterError):
            mqc_phase_cycled(spec, state, t)
    for bad in (8.0, True):
        with pytest.raises(InvalidParameterError):
            mqc_phase_cycled(spec, state, 0.5, phase_steps=bad)
    with pytest.raises(InvalidParameterError):
        mqc_phase_cycled(spec, state, 0.5, max_order=1.5)


OVERFLOWING_RATE_CALLS = {
    "single t=0": lambda spec, state: mqc_phase_cycled(spec, state, 0.0),
    "single t=0.5": lambda spec, state: mqc_phase_cycled(spec, state, 0.5),
    "grid": lambda spec, state: mqc_phase_cycled_grid(spec, state, [0.0, 0.5]),
    "empty grid": lambda spec, state: mqc_phase_cycled_grid(spec, state, []),
}


@pytest.mark.parametrize("call", sorted(OVERFLOWING_RATE_CALLS))
def test_dense_protocols_reject_a_rate_past_the_float_range_without_warning(call):
    # 2 sum |d| overflows; warnings are errors (pyproject.toml), so an overflow warning fails
    with pytest.raises(SpinwireError):
        OVERFLOWING_RATE_CALLS[call](ChainSpec(4, "dq", (1e308,) * 3), prepare_state(4, "z_ends"))


def test_spectrum_accessors():
    spect = MqcSpectrum(0.0, (-2, 0, 2), (0.25, 0.5, 0.25))
    assert spect.intensity(0) == 0.5
    with pytest.raises(InvalidParameterError):
        spect.intensity(4)


def test_long_chain_zero_order_revives_near_mirror_time():
    # frozen local maximum of J_0 for n = 21, within 10% of n/(2d)
    n, d = 21, 1.0
    t_peak, j_peak = 11.341013, 0.816657633
    assert abs(t_peak - n / (2 * d)) <= 0.1 * (n / (2 * d))
    assert mqc_analytic(n, d, "z_ends", t_peak).intensity(0) == pytest.approx(j_peak, abs=1e-9)
    for dt in (-0.05, 0.05):
        assert mqc_analytic(n, d, "z_ends", t_peak + dt).intensity(0) < j_peak


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("series", list(MQC_SERIES))
def test_analytic_series_reject_bad_coupling_scale(series, d):
    with pytest.raises(InvalidParameterError):
        mqc_analytic(8, d, MQC_SERIES[series], 0.7)


@given(
    st.sampled_from(("z_ends", "y_logical", "x_logical")),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-12.5, 12.5, allow_nan=False), max_size=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_propagator_engine_matches_phase_cycling(kind, seed, times, data):
    # 4|t| <= 50 stays inside the validated range of propagate_grid
    n = data.draw(st.integers(2 if kind == "z_ends" else 4, 8), label="n")
    couplings = np.random.default_rng(seed).uniform(-1.5, 1.5, n - 1)
    zeros = data.draw(st.lists(st.integers(0, n - 2), max_size=2), label="zero bonds")
    couplings[zeros] = 0.0
    spec = ChainSpec(n, "dq", tuple(couplings))
    got = mqc_propagator_grid(spec, kind, times)
    want = mqc_phase_cycled_grid(spec, prepare_state(n, kind), times)
    # columns J_-2 .. J_2: the oracle's J_+-1 must vanish as the propagator's do
    assert got.shape == want.shape == (len(times), 5)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


@pytest.mark.parametrize("n", [12, 21, 200])
@pytest.mark.parametrize("kind", ["z_ends", "y_logical", "x_logical"])
def test_propagator_engine_matches_closed_forms(n, kind):
    times = np.linspace(-2.0, 16.0, 37)
    # the closed z_ends series is normalised to the conserved total 2
    scale = 0.5 if kind == "z_ends" else 1.0
    intensities = mqc_propagator_grid(homogeneous_couplings(n, 0.8, "dq"), kind, times)
    assert intensities.shape == (len(times), 5)
    assert np.all(intensities[:, [1, 3]] == 0.0)
    for t, row in zip(times, intensities):
        want = mqc_analytic(n, 0.8, kind, t)
        assert np.max(np.abs(scale * row[[0, 2, 4]] - want.intensities)) <= 1e-12


def test_propagator_engine_exact_values():
    spec = homogeneous_couplings(9, 1.3, "dq")
    (start,) = mqc_propagator_grid(spec, "z_ends", [0.0])
    assert start.tolist() == [0.0, 0.0, 2.0, 0.0, 0.0]
    assert not np.any(mqc_propagator_grid(spec, "x_logical", np.linspace(-3.0, 7.0, 11)))


def test_propagator_engine_validation():
    dq = homogeneous_couplings(6, 1.0, "dq")
    with pytest.raises(UnsupportedModelError):
        mqc_propagator_grid(homogeneous_couplings(6, 1.0, "xx"), "z_ends", [])
    for kind in ("full_z", "z-ends", None):
        with pytest.raises(InvalidConfigurationError):
            mqc_propagator_grid(dq, kind, [])
    for n, kind in ((1, "z_ends"), (3, "y_logical"), (3, "x_logical")):
        with pytest.raises(InvalidDimensionError):
            mqc_propagator_grid(homogeneous_couplings(n, 1.0, "dq"), kind, [])
    assert mqc_propagator_grid(dq, "y_logical", []).shape == (0, 5)
