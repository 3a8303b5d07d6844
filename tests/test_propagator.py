"""Single-excitation propagator, determinant amplitudes, observables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import (
    ChainSpec,
    engineered_couplings,
    homogeneous_couplings,
    random_couplings,
    transfer_timing,
)
from spinwire.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedModelError,
)
from spinwire.oracle import build_hamiltonian, evolve_deviation, trace_overlap
from spinwire.propagator import (
    chain_propagator,
    end_autocorrelation,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_correlation,
    propagate,
    slater_amplitude,
    spectral_decompose,
)

RNG = np.random.default_rng(20260814)


def test_spectral_decomposition_reconstructs_matrix():
    spec = ChainSpec(6, "xx", random_couplings(RNG, 6))
    dec = spectral_decompose(spec)
    m = spec.coupling_matrix()
    np.testing.assert_allclose((dec.modes * dec.frequencies) @ dec.modes.T, m, atol=1e-12)
    np.testing.assert_allclose(dec.modes.T @ dec.modes, np.eye(6), atol=1e-12)
    assert np.all(np.diff(dec.frequencies) >= 0)
    # deterministic sign fix: leading significant entry positive
    for k in range(6):
        col = dec.modes[:, k]
        lead = col[np.abs(col) > 1e-8][0]
        assert lead > 0


def test_homogeneous_three_site_spectrum():
    dec = spectral_decompose(homogeneous_couplings(3, 1.0))
    np.testing.assert_allclose(dec.frequencies, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_homogeneous_spectrum_closed_form():
    n, d = 9, 1.7
    dec = spectral_decompose(homogeneous_couplings(n, d))
    k = np.arange(n, 0, -1)
    np.testing.assert_allclose(dec.frequencies, 2 * d * np.cos(np.pi * k / (n + 1)), atol=1e-12)


def test_dipolar_spec_rejected():
    spec = ChainSpec(3, "dipolar", (1.0, 0.1, 1.0))
    with pytest.raises(UnsupportedModelError):
        spectral_decompose(spec)


def test_propagator_basics():
    spec = homogeneous_couplings(5, 1.0)
    dec = spectral_decompose(spec)
    np.testing.assert_allclose(propagate(dec, 0.0).amplitudes, np.eye(5), atol=1e-14)
    forward = propagate(dec, 1.3).amplitudes
    backward = propagate(dec, -1.3).amplitudes
    np.testing.assert_allclose(backward, forward.conj().T, atol=1e-14)


def test_two_site_amplitude():
    d, t = 1.4, 0.9
    assert homogeneous_amplitude(2, d, 1, 2, t) == pytest.approx(-1j * math.sin(d * t), abs=1e-14)
    assert homogeneous_amplitude(2, d, 1, 2, math.pi / (2 * d)) == pytest.approx(-1j, abs=1e-14)
    assert homogeneous_amplitude(7, d, 3, 3, 0.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(IndexOutOfRangeError):
        homogeneous_amplitude(4, d, 0, 2, t)


def test_end_to_end_probability_law():
    n, d = 9, 1.3
    for t in (0.3, 1.1, 2.9):
        tau = 2 * d * t / n
        p = chain_propagator(engineered_couplings(n, d), t).probability(1, n)
        assert p == pytest.approx(math.sin(tau) ** (2 * (n - 1)), abs=1e-12)


@given(st.integers(2, 9), st.floats(0.05, 4.0, allow_nan=False), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_unitarity_symmetry_group_properties(n, t, seed):
    rng = np.random.default_rng(seed)
    dec = spectral_decompose(ChainSpec(n, "xx", random_couplings(rng, n)))
    a = propagate(dec, t).amplitudes
    np.testing.assert_allclose(a @ a.conj().T, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(a, a.T, atol=0)  # symmetrised exactly
    b = propagate(dec, 0.7 * t).amplitudes
    ab = propagate(dec, 1.7 * t).amplitudes
    np.testing.assert_allclose(a @ b, ab, atol=1e-10)


def test_slater_amplitude_identity_and_errors():
    prop = chain_propagator(homogeneous_couplings(6, 1.0), 0.0)
    assert slater_amplitude(prop, (1, 3), (1, 3)) == pytest.approx(1.0)
    assert slater_amplitude(prop, (1, 3), (2, 4)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InvalidConfigurationError):
        slater_amplitude(prop, (1, 1), (2, 3))
    with pytest.raises(InvalidConfigurationError):
        slater_amplitude(prop, (3, 1), (2, 4))
    with pytest.raises(DimensionMismatchError):
        slater_amplitude(prop, (1, 2), (3,))
    with pytest.raises(IndexOutOfRangeError):
        slater_amplitude(prop, (1, 7), (2, 3))


def test_two_site_determinant_is_unimodular():
    for t in (0.0, 0.7, 2.4):
        prop = chain_propagator(homogeneous_couplings(2, 1.0), t)
        assert slater_amplitude(prop, (1, 2), (1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_full_filling_determinant_modulus_one():
    n = 5
    prop = chain_propagator(ChainSpec(n, "xx", random_couplings(RNG, n)), 1.1)
    det = slater_amplitude(prop, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    assert abs(det) == pytest.approx(1.0, abs=1e-10)


def test_mixed_state_overlap_reductions():
    n, t = 6, 0.8
    prop = chain_propagator(homogeneous_couplings(n, 1.0), t)
    # pure-state reduction: the overlap is the transfer probability
    a = {((1,), (1,)): 1.0}
    b = {((n,), (n,)): 1.0}
    assert mixed_state_overlap(prop, a, b).real == pytest.approx(prop.probability(1, n), abs=1e-12)
    # identity evolution gives the self-overlap
    at0 = chain_propagator(homogeneous_couplings(n, 1.0), 0.0)
    mixed = {((1,), (1,)): 0.5, ((2,), (2,)): 0.5, ((1,), (2,)): 0.25, ((2,), (1,)): 0.25}
    self_overlap = 0.5**2 + 0.5**2 + 2 * 0.25**2
    assert mixed_state_overlap(at0, mixed, mixed).real == pytest.approx(self_overlap, abs=1e-12)


def test_mixed_state_overlap_size_cap():
    prop = chain_propagator(homogeneous_couplings(15, 1.0), 0.1)
    with pytest.raises(InvalidDimensionError):
        mixed_state_overlap(prop, {((1,), (1,)): 1.0}, {((1,), (1,)): 1.0})


def test_polarization_correlation_values():
    spec = homogeneous_couplings(2, 1.2)
    for t in (0.0, 0.4, 1.7):
        assert polarization_correlation(spec, 1, 2, t) == pytest.approx(
            math.sin(1.2 * t) ** 2, abs=1e-12
        )
    assert polarization_correlation(homogeneous_couplings(5, 1.0), 3, 3, 0.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_dq_polarization_sign_alternation():
    n = 6
    spec = engineered_couplings(n, 1.0, model="dq")
    xx = engineered_couplings(n, 1.0, model="xx")
    t = 1.21
    for l in range(1, n + 1):
        c_dq = polarization_correlation(spec, 1, l, t)
        c_xx = polarization_correlation(xx, 1, l, t)
        assert c_dq == (-1) ** (1 - l) * c_xx  # shared backend: exact
    t_star = transfer_timing(engineered_couplings(n, 1.0)).t_star
    assert polarization_correlation(spec, 1, n, t_star) == pytest.approx(
        (-1) ** (n - 1), abs=1e-9
    )


def test_autocorrelation_normalisation_and_errors():
    for model in ("xx", "dq"):
        for kind in ("z_ends", "y_logical"):
            spec = homogeneous_couplings(6, 1.0, model=model)
            assert end_autocorrelation(spec, kind, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidConfigurationError):
        end_autocorrelation(homogeneous_couplings(6, 1.0), "x_ends", 0.1)
    with pytest.raises(InvalidDimensionError):
        end_autocorrelation(homogeneous_couplings(3, 1.0), "y_logical", 0.1)
    with pytest.raises(UnsupportedModelError):
        end_autocorrelation(ChainSpec(3, "dipolar", (1.0, 0.2, 1.0)), "z_ends", 0.1)


@pytest.mark.parametrize("model", ["xx", "dq"])
@pytest.mark.parametrize("kind", ["z_ends", "y_logical"])
def test_autocorrelation_matches_dense_oracle(model, kind):
    from spinwire.mqc import prepare_state
    from spinwire.oracle import deviation_to_dense

    n = 6
    spec = ChainSpec(n, model, random_couplings(RNG, n))
    h = build_hamiltonian(spec)
    rho0 = deviation_to_dense(prepare_state(n, kind))
    norm = trace_overlap(rho0, rho0).real
    for t in (0.35, 1.8):
        ref = trace_overlap(evolve_deviation(h, rho0, t), rho0).real / norm
        assert end_autocorrelation(spec, kind, t) == pytest.approx(ref, abs=1e-8)


def test_engineered_autocorrelation_revives_at_mirror_time():
    n = 7
    spec = engineered_couplings(n, 1.0, model="dq")
    t_star = transfer_timing(engineered_couplings(n, 1.0)).t_star
    assert end_autocorrelation(spec, "z_ends", t_star) == pytest.approx(1.0, abs=1e-9)
    assert end_autocorrelation(spec, "y_logical", t_star) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
def test_homogeneous_amplitude_rejects_bad_coupling_scale(d):
    with pytest.raises(InvalidParameterError):
        homogeneous_amplitude(6, d, 1, 6, 0.5)

