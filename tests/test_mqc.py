"""Multiple-quantum coherence protocol: prepared states, spectra, cycling."""

import math

import pytest

from spinwire.chain import homogeneous_couplings
from spinwire.errors import (
    AliasingError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
)
from spinwire.mqc import (
    PREPARED_KINDS,
    MqcSpectrum,
    mqc_analytic,
    mqc_phase_cycled,
    mqc_x_analytic,
    mqc_y_analytic,
    mqc_z_analytic,
    prepare_state,
)


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
    z = mqc_z_analytic(5, 1.0, 0.8)
    assert z.intensity(0) == pytest.approx(0.478597016135475, abs=1e-12)
    assert z.intensity(2) == pytest.approx(0.260701491932262, abs=1e-12)
    y = mqc_y_analytic(5, 1.0, 0.8)
    assert y.intensity(0) == pytest.approx(-0.223969938139247, abs=1e-12)
    assert y.intensity(2) == pytest.approx(0.111984969069623, abs=1e-12)


def test_analytic_initial_values_and_symmetry():
    for n in (4, 7):
        z0 = mqc_z_analytic(n, 1.3, 0.0)
        assert z0.intensity(0) == pytest.approx(1.0, abs=1e-12)
        assert z0.intensity(2) == pytest.approx(0.0, abs=1e-14)
        y0 = mqc_y_analytic(n, 1.3, 0.0)
        assert y0.intensity(0) == pytest.approx(0.0, abs=1e-14)
        for t in (0.3, 1.7):
            for series in (mqc_z_analytic, mqc_y_analytic):
                spect = series(n, 1.3, t)
                assert spect.intensity(2) == spect.intensity(-2)
            x = mqc_x_analytic(n, 1.3, t)
            assert x.intensities == (0.0, 0.0, 0.0)


def test_analytic_z_total_is_conserved():
    for t in (0.0, 0.4, 1.1, 2.9):
        spect = mqc_z_analytic(6, 1.0, t)
        assert spect.total() == pytest.approx(1.0, abs=1e-12)
    # y-series intensities sum to zero instead: the state is orthogonal to Z
    for t in (0.4, 1.1):
        assert mqc_y_analytic(6, 1.0, t).total() == pytest.approx(0.0, abs=1e-14)


def test_analytic_dispatch():
    spect = mqc_analytic(5, 1.0, "z_ends", 0.8)
    assert spect.intensity(0) == mqc_z_analytic(5, 1.0, 0.8).intensity(0)
    with pytest.raises(InvalidConfigurationError):
        mqc_analytic(5, 1.0, "full_z", 0.8)


def test_cycled_matches_analytic_z_up_to_conserved_total():
    n, d, t = 5, 1.0, 0.8
    spec = homogeneous_couplings(n, d, model="dq")
    cycled = mqc_phase_cycled(spec, prepare_state(n, "z_ends"), t)
    analytic = mqc_z_analytic(n, d, t)
    # raw conserved total Tr[rho Z]/2^n = 2, analytic series normalises to 1
    assert cycled.total() == pytest.approx(2.0, abs=1e-10)
    for q in (-2, 0, 2):
        assert cycled.intensity(q) == pytest.approx(2.0 * analytic.intensity(q), abs=1e-10)
    assert cycled.intensity(1) == pytest.approx(0.0, abs=1e-12)


def test_cycled_x_logical_is_dark():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    for t in (0.5, 1.9):
        spect = mqc_phase_cycled(spec, prepare_state(n, "x_logical"), t)
        assert max(abs(v) for v in spect.intensities) <= 1e-10


def test_cycled_support_is_zero_and_two():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    spect = mqc_phase_cycled(
        spec, prepare_state(n, "z_ends"), 0.9, phase_steps=16, max_order=4
    )
    for q in (-4, -3, -1, 1, 3, 4):
        assert abs(spect.intensity(q)) <= 1e-10
    assert spect.intensity(2) > 1e-3


def test_cycled_total_is_time_invariant():
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="dq")
    for kind, expected in (("z_ends", 2.0), ("full_z", float(n))):
        state = prepare_state(n, kind)
        totals = [
            mqc_phase_cycled(spec, state, t, phase_steps=16, max_order=4).total()
            for t in (0.0, 0.7, 2.1)
        ]
        for total in totals:
            assert total == pytest.approx(expected, abs=1e-10)


def test_xx_evolution_stays_in_zero_order():
    # number-conserving dynamics never pumps double-quantum coherence
    n = 5
    spec = homogeneous_couplings(n, 1.0, model="xx")
    spect = mqc_phase_cycled(spec, prepare_state(n, "z_ends"), 1.3)
    assert spect.intensity(0) == pytest.approx(2.0, abs=1e-10)
    assert abs(spect.intensity(2)) <= 1e-12
    assert abs(spect.intensity(-2)) <= 1e-12


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


def test_spectrum_accessors():
    spect = MqcSpectrum(0.0, (-2, 0, 2), (0.25, 0.5, 0.25))
    assert spect.intensity(0) == 0.5
    assert spect.total() == 1.0
    with pytest.raises(InvalidParameterError):
        spect.intensity(4)


def test_long_chain_zero_order_revives_near_mirror_time():
    # frozen local maximum of J_0 for n = 21, within 10% of n/(2d)
    n, d = 21, 1.0
    t_peak, j_peak = 11.341013, 0.816657633
    assert abs(t_peak - n / (2 * d)) <= 0.1 * (n / (2 * d))
    assert mqc_z_analytic(n, d, t_peak).intensity(0) == pytest.approx(j_peak, abs=1e-9)
    for dt in (-0.05, 0.05):
        assert mqc_z_analytic(n, d, t_peak + dt).intensity(0) < j_peak


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("series", [mqc_z_analytic, mqc_y_analytic, mqc_x_analytic])
def test_analytic_series_reject_bad_coupling_scale(series, d):
    with pytest.raises(InvalidParameterError):
        series(8, d, 0.7)
