"""Logical pair encodings and end-to-end channel correlations."""

import math

import numpy as np
import pytest

from spinwire.chain import (
    ChainSpec,
    engineered_couplings,
    homogeneous_couplings,
    random_couplings,
    transfer_timing,
)
from spinwire.errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)
from spinwire.logical import (
    CHANNELS,
    channel_correlations,
    channel_fidelity,
    dq_parity_correction,
    entanglement_fidelity,
    logical_basis,
    logical_correlation_from_spec,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from spinwire.oracle import (
    build_hamiltonian,
    deviation_to_dense,
    evolve_deviation,
    pauli_string_to_dense,
    similarity_transform,
    trace_overlap,
)
from spinwire.propagator import propagate, spectral_decompose


def test_source_basis_terms_xx():
    obs = logical_basis("xx", 6, "source")
    assert obs["x"].weight(((1, "X"), (2, "X"))) == 0.5
    assert obs["x"].weight(((1, "Y"), (2, "Y"))) == 0.5
    assert obs["y"].weight(((1, "Y"), (2, "X"))) == 0.5
    assert obs["y"].weight(((1, "X"), (2, "Y"))) == -0.5
    assert obs["z"].weight(((1, "Z"),)) == 0.5
    assert obs["z"].weight(((2, "Z"),)) == -0.5
    assert obs["1"].weight(()) == 0.5
    assert obs["1"].weight(((1, "Z"), (2, "Z"))) == -0.5


def test_source_basis_terms_dq():
    obs = logical_basis("dq", 6, "source")
    assert obs["x"].weight(((1, "Y"), (2, "Y"))) == -0.5
    assert obs["y"].weight(((1, "X"), (2, "Y"))) == 0.5
    assert obs["z"].weight(((2, "Z"),)) == 0.5
    assert obs["1"].weight(((1, "Z"), (2, "Z"))) == 0.5


def test_target_basis_is_reflection():
    n = 6
    obs = logical_basis("xx", n, "target")
    assert obs["z"].weight(((n, "Z"),)) == 0.5
    assert obs["z"].weight(((n - 1, "Z"),)) == -0.5
    assert obs["x"].weight(((n - 1, "X"), (n, "X"))) == 0.5
    for name, state in logical_basis("xx", n, "source").items():
        assert state.reflected() == obs[name]


def test_basis_normalisation_and_trace():
    for model in ("xx", "dq"):
        obs = logical_basis(model, 4, "source")
        for name in CHANNELS:
            dense = deviation_to_dense(obs[name])
            norm = trace_overlap(dense, dense).real
            assert norm == pytest.approx(0.5, abs=1e-14)
            trace = np.trace(dense).real / len(dense)
            assert trace == (0.5 if name == "1" else 0.0)


def test_basis_validation():
    with pytest.raises(InvalidDimensionError):
        logical_basis("xx", 1)
    with pytest.raises(UnsupportedModelError):
        logical_basis("dipolar", 6)
    with pytest.raises(InvalidConfigurationError):
        logical_basis("xx", 6, "middle")


def test_gauge_links_the_two_encodings():
    # X on odd sites maps each xx observable onto its dq partner up to sign
    n = 4
    v = similarity_transform(n)
    for pair in ("source", "target"):
        xx = logical_basis("xx", n, pair)
        dq = logical_basis("dq", n, pair)
        for name in CHANNELS:
            conj = v @ deviation_to_dense(xx[name]) @ v
            target = deviation_to_dense(dq[name])
            dev = min(
                np.max(np.abs(conj - target)), np.max(np.abs(conj + target))
            )
            assert dev <= 1e-14


def test_parity_correction_predicate():
    assert dq_parity_correction(20) is True
    assert dq_parity_correction(21) is False
    with pytest.raises(InvalidDimensionError):
        dq_parity_correction(1)


@pytest.mark.parametrize("n", range(4, 8))
def test_corrected_dq_channels_match_dense_dq_dynamics(n):
    # the dq chain evolved densely and read through the target basis, pi-x
    # corrected on even n: independent of the readout's own sign table
    rng = np.random.default_rng(n)
    spec = ChainSpec(n, "dq", random_couplings(rng, n))
    h = build_hamiltonian(spec)
    source = logical_basis("dq", n, "source")
    target = {a: deviation_to_dense(op) for a, op in logical_basis("dq", n, "target").items()}
    if n % 2 == 0:
        # the pi-x correction: conjugate every target observable by X_{n-1} X_n
        flip = pauli_string_to_dense(n, ((n - 1, "X"), (n, "X")))
        target = {alpha: flip @ op @ flip for alpha, op in target.items()}
    dec = spectral_decompose(spec)
    for t in rng.uniform(0.3, 2.5, 3):
        got = channel_correlations(propagate(dec, t), "dq", corrected=True)
        for alpha in CHANNELS:
            rho_t = evolve_deviation(h, deviation_to_dense(source[alpha]), t)
            ref = 2.0 * trace_overlap(rho_t, target[alpha])
            assert abs(got[alpha] - ref.real) <= 1e-12


def test_initial_time_values():
    for family in ("homogeneous", "engineered"):
        assert entanglement_fidelity(8, 1.0, family, 0.0) == pytest.approx(0.125, abs=1e-12)
    at0 = propagate(spectral_decompose(homogeneous_couplings(8, 1.0)), 0.0)
    vals = channel_correlations(at0)
    assert vals["1"] == pytest.approx(0.5, abs=1e-12)
    for alpha in ("x", "y", "z"):
        assert vals[alpha] == pytest.approx(0.0, abs=1e-12)


def test_engineered_closed_forms_explicit():
    n, d, t = 7, 1.3, 0.9
    s, c = math.sin(2 * d * t / n), math.cos(2 * d * t / n)
    assert logical_transport_engineered(n, d, "x", t) == pytest.approx(
        s ** (2 * (n - 2)), abs=1e-12
    )
    assert logical_transport_engineered(n, d, "y", t) == pytest.approx(
        s ** (2 * (n - 2)) * (1 - 2 * (n - 1) * c**2), abs=1e-12
    )
    assert logical_transport_engineered(n, d, "1", t) == pytest.approx(
        0.5 * (1 + s ** (4 * (n - 2))), abs=1e-12
    )
    cz = 0.5 * (
        s ** (2 * (n - 3)) * ((n - 1) * c**2 - 1) ** 2
        + s ** (2 * (n - 1))
        - 2 * (n - 1) * c**2 * s ** (2 * (n - 2))
    )
    assert logical_transport_engineered(n, d, "z", t) == pytest.approx(cz, abs=1e-12)


def test_frozen_channel_samples():
    got = [logical_transport_homogeneous(6, 1.0, a, 2.7) for a in ("x", "y", "z", "1")]
    frozen = [0.233896694330509, -0.352100089982969, -0.171008235473989, 0.52735383180937]
    np.testing.assert_allclose(got, frozen, atol=1e-12)
    got = [logical_transport_engineered(6, 1.0, a, 2.0) for a in ("x", "y", "z", "1")]
    frozen = [0.0213789409518399, -0.110661414753853, 0.0599549260770046, 0.500228529558111]
    np.testing.assert_allclose(got, frozen, atol=1e-12)


def test_channel_bounds():
    dec = spectral_decompose(engineered_couplings(8, 1.0))
    for t in np.linspace(0.0, 8.0, 17):
        vals = channel_correlations(propagate(dec, float(t)))
        assert 0.5 - 1e-12 <= vals["1"] <= 1.0 + 1e-12
        for alpha in CHANNELS:
            assert -1.0 - 1e-12 <= vals[alpha] <= 1.0 + 1e-12


def test_homogeneous_peaks_are_later_and_lower():
    frozen = {
        10: (6.282437, 0.690930909),
        15: (8.975358, 0.551831131),
        20: (11.618146, 0.465577704),
    }
    for n, (t_peak, f_peak) in frozen.items():
        assert entanglement_fidelity(n, 1.0, "homogeneous", t_peak) == pytest.approx(
            f_peak, abs=1e-9
        )
        assert f_peak < 1.0
    times = [frozen[n][0] for n in (10, 15, 20)]
    peaks = [frozen[n][1] for n in (10, 15, 20)]
    assert times == sorted(times)
    assert peaks == sorted(peaks, reverse=True)


def test_uncorrected_dq_fidelity_collapses_at_mirror_time():
    n = 6  # even: correction required
    t_star = transfer_timing(engineered_couplings(n, 1.0)).t_star
    good = entanglement_fidelity(n, 1.0, "engineered", t_star, model="dq", corrected=True)
    bad = entanglement_fidelity(n, 1.0, "engineered", t_star, model="dq", corrected=False)
    assert good == pytest.approx(1.0, abs=1e-9)
    assert bad < 1.0 - 1e-6


def test_correlation_from_spec():
    spec = engineered_couplings(8, 1.0)
    t = 1.1
    vals = channel_correlations(propagate(spectral_decompose(spec), t))
    for alpha in CHANNELS:
        assert logical_correlation_from_spec(spec, alpha, t) == pytest.approx(
            vals[alpha], abs=1e-14
        )
    with pytest.raises(InvalidConfigurationError):
        logical_correlation_from_spec(spec, "w", t)


def test_error_paths():
    with pytest.raises(InvalidDimensionError):
        channel_correlations(propagate(spectral_decompose(homogeneous_couplings(3, 1.0)), 0.5))
    with pytest.raises(UnsupportedFamilyError):
        entanglement_fidelity(8, 1.0, "dipolar", 0.5)
    with pytest.raises(UnsupportedModelError):
        entanglement_fidelity(8, 1.0, "engineered", 0.5, model="ising")
    amp = propagate(spectral_decompose(homogeneous_couplings(6, 1.0)), 0.5)
    with pytest.raises(UnsupportedModelError):
        channel_correlations(amp, "ising")


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("closed", [logical_transport_homogeneous, logical_transport_engineered])
def test_closed_forms_reject_bad_coupling_scale(closed, d):
    for alpha in CHANNELS:
        with pytest.raises(InvalidParameterError):
            closed(8, d, alpha, 0.7)


def test_channel_correlations_broadcast_over_time():
    spec = homogeneous_couplings(10, 1.0, model="dq")  # even n: raw readout flips y, z
    times = (0.0, 0.4, 2.5)
    dec = spectral_decompose(spec)
    amps = [propagate(dec, t) for t in times]
    block = np.stack([amp[:2] for amp in amps])
    vals = channel_correlations(block, "dq", corrected=False)
    for k, amp in enumerate(amps):
        single = channel_correlations(amp, "dq", corrected=False)
        for alpha in CHANNELS:
            assert vals[alpha][k] == pytest.approx(single[alpha], abs=1e-15)
    assert channel_fidelity(vals).shape == (3,)
    with pytest.raises(InvalidDimensionError):
        channel_correlations(block[..., :3])


@pytest.mark.parametrize("shape", [(6,), (1, 6), (), (3, 1, 6), (2, 3)], ids=repr)
def test_channel_correlations_reject_blocks_without_two_rows_of_four_sites(shape):
    with pytest.raises(InvalidDimensionError):
        channel_correlations(np.zeros(shape, dtype=complex))


# a block of strings, one with a NaN entry and ones with an infinite real or imaginary part,
# each with the operand rule's message: the result rule alone would reject the NaN too
NON_FINITE_BLOCKS = {
    "strings": (np.full((2, 4), "a"), "numeric"),
    "nan": (np.where(np.eye(2, 4), np.nan, 0.0), "finite entries"),
    "inf": (np.full((2, 4), np.inf), "finite entries"),
    "inf imag": (np.full((3, 2, 4), 1j * np.inf), "finite entries"),
}


@pytest.mark.parametrize("block", list(NON_FINITE_BLOCKS))
def test_channel_correlations_reject_non_numeric_or_non_finite_blocks(block):
    amplitudes, message = NON_FINITE_BLOCKS[block]
    with pytest.raises(InvalidParameterError, match=message):
        channel_correlations(amplitudes)
