"""Logical pair encodings and end-to-end channel correlations."""

import math
import tracemalloc

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
    UnsupportedModelError,
)
from spinwire import propagator
from spinwire.logical import (
    CHANNELS,
    channel_correlations,
    channel_fidelity,
    dq_parity_correction,
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
from spinwire.propagator import propagate, propagate_grid, spectral_decompose


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
        got = channel_correlations(propagate(dec, t)[:2, -2:], n, "dq", corrected=True)
        for alpha in CHANNELS:
            rho_t = evolve_deviation(h, deviation_to_dense(source[alpha]), t)
            ref = 2.0 * trace_overlap(rho_t, target[alpha])
            assert abs(got[alpha] - ref.real) <= 1e-12


def test_initial_time_values():
    for closed in (logical_transport_homogeneous, logical_transport_engineered):
        assert channel_fidelity(closed(8, 1.0, [0.0])) == pytest.approx([0.125], abs=1e-12)
    at0 = propagate(spectral_decompose(homogeneous_couplings(8, 1.0)), 0.0)
    vals = channel_correlations(at0[:2, -2:], 8)
    assert vals["1"] == pytest.approx(0.5, abs=1e-12)
    for alpha in ("x", "y", "z"):
        assert vals[alpha] == pytest.approx(0.0, abs=1e-12)


def test_engineered_closed_forms_explicit():
    n, d, t = 7, 1.3, 0.9
    s, c = math.sin(2 * d * t / n), math.cos(2 * d * t / n)
    vals = logical_transport_engineered(n, d, [t])
    assert vals["x"] == pytest.approx([s ** (2 * (n - 2))], abs=1e-12)
    assert vals["y"] == pytest.approx([s ** (2 * (n - 2)) * (1 - 2 * (n - 1) * c**2)], abs=1e-12)
    assert vals["1"] == pytest.approx([0.5 * (1 + s ** (4 * (n - 2)))], abs=1e-12)
    cz = 0.5 * (
        s ** (2 * (n - 3)) * ((n - 1) * c**2 - 1) ** 2
        + s ** (2 * (n - 1))
        - 2 * (n - 1) * c**2 * s ** (2 * (n - 2))
    )
    assert vals["z"] == pytest.approx([cz], abs=1e-12)


def test_frozen_channel_samples():
    got = logical_transport_homogeneous(6, 1.0, [2.7])
    frozen = [0.233896694330509, -0.352100089982969, -0.171008235473989, 0.52735383180937]
    np.testing.assert_allclose([got[a][0] for a in ("x", "y", "z", "1")], frozen, atol=1e-12)
    got = logical_transport_engineered(6, 1.0, [2.0])
    frozen = [0.0213789409518399, -0.110661414753853, 0.0599549260770046, 0.500228529558111]
    np.testing.assert_allclose([got[a][0] for a in ("x", "y", "z", "1")], frozen, atol=1e-12)


def test_channel_bounds():
    dec = spectral_decompose(engineered_couplings(8, 1.0))
    for t in np.linspace(0.0, 8.0, 17):
        vals = channel_correlations(propagate(dec, float(t))[:2, -2:], 8)
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
        fidelity = channel_fidelity(logical_transport_homogeneous(n, 1.0, [t_peak]))
        assert fidelity == pytest.approx([f_peak], abs=1e-9)
        assert f_peak < 1.0
    times = [frozen[n][0] for n in (10, 15, 20)]
    peaks = [frozen[n][1] for n in (10, 15, 20)]
    assert times == sorted(times)
    assert peaks == sorted(peaks, reverse=True)


def test_uncorrected_dq_fidelity_collapses_at_mirror_time():
    n = 6  # even: correction required
    spec = engineered_couplings(n, 1.0, model="dq")
    t_star = transfer_timing(spec).t_star
    amp = propagate_grid(spectral_decompose(spec), [t_star], (1, 2), (n - 1, n))
    good = channel_fidelity(channel_correlations(amp, n, "dq", corrected=True))
    bad = channel_fidelity(channel_correlations(amp, n, "dq", corrected=False))
    assert good == pytest.approx([1.0], abs=1e-9)
    assert bad[0] < 1.0 - 1e-6


@pytest.mark.parametrize("n", range(4, 26))
@pytest.mark.parametrize("family", ["homogeneous", "engineered"])
def test_dq_readout_of_the_spectral_path_matches_the_closed_forms(family, n):
    # the one fidelity path: dq channels of a propagate_grid block, read
    # with and without the pi-x correction, against the xx closed forms
    if family == "homogeneous":
        spec = homogeneous_couplings(n, 0.8, model="dq")
        times = np.linspace(0.0, 1.5 * n, 9)
        closed = logical_transport_homogeneous(n, 0.8, times)
    else:
        spec = engineered_couplings(n, 1.0, model="dq")
        times = np.linspace(0.0, transfer_timing(spec).t_star, 9)
        closed = logical_transport_engineered(n, 1.0, times)
    amp = propagate_grid(spectral_decompose(spec), times, (1, 2), (n - 1, n))
    good = channel_correlations(amp, n, "dq", corrected=True)
    raw = channel_correlations(amp, n, "dq", corrected=False)
    sign = -1.0 if n % 2 == 0 else 1.0
    for alpha in CHANNELS:
        assert np.max(np.abs(good[alpha] - closed[alpha])) <= 1e-12, alpha
        flip = sign if alpha in ("y", "z") else 1.0
        np.testing.assert_array_equal(raw[alpha], flip * good[alpha])
    np.testing.assert_allclose(channel_fidelity(good), channel_fidelity(closed), atol=1e-12)
    if family == "engineered":
        # at the mirror time every corrected channel is 1; raw even-n y, z are -1
        assert channel_fidelity(good)[-1] == pytest.approx(1.0, abs=1e-9)
        assert channel_fidelity(raw)[-1] == pytest.approx(0.5 + 0.5 * sign, abs=1e-9)


def test_correlation_from_spec():
    spec = engineered_couplings(8, 1.0)
    t = 1.1
    vals = channel_correlations(propagate(spectral_decompose(spec), t)[:2, -2:], 8)
    for alpha in CHANNELS:
        assert logical_correlation_from_spec(spec, alpha, t) == pytest.approx(
            vals[alpha], abs=1e-14
        )
    with pytest.raises(InvalidConfigurationError):
        logical_correlation_from_spec(spec, "w", t)


@pytest.mark.parametrize("t", [math.nan, 1e308])
def test_correlation_from_spec_checks_the_time_before_decomposing(monkeypatch, t):
    def no_decomposition(couplings):
        raise AssertionError("decomposed before the time check")

    monkeypatch.setattr(propagator, "_eigh_tridiagonal", no_decomposition)
    with pytest.raises(InvalidParameterError):
        logical_correlation_from_spec(engineered_couplings(8, 1.0), "x", t)


def test_error_paths():
    amp = propagate(spectral_decompose(homogeneous_couplings(3, 1.0)), 0.5)
    with pytest.raises(InvalidDimensionError):
        channel_correlations(amp[:2, -2:], 3)
    amp = propagate(spectral_decompose(homogeneous_couplings(6, 1.0)), 0.5)
    with pytest.raises(UnsupportedModelError):
        channel_correlations(amp[:2, -2:], 6, "ising")


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("closed", [logical_transport_homogeneous, logical_transport_engineered])
def test_closed_forms_reject_bad_coupling_scale(closed, d):
    with pytest.raises(InvalidParameterError):
        closed(8, d, [0.7])


def test_channel_correlations_broadcast_over_time():
    spec = homogeneous_couplings(10, 1.0, model="dq")  # even n: raw readout flips y, z
    times = (0.0, 0.4, 2.5)
    dec = spectral_decompose(spec)
    amps = [propagate(dec, t) for t in times]
    block = np.stack([amp[:2, -2:] for amp in amps])
    vals = channel_correlations(block, 10, "dq", corrected=False)
    for k, amp in enumerate(amps):
        single = channel_correlations(amp[:2, -2:], 10, "dq", corrected=False)
        for alpha in CHANNELS:
            assert vals[alpha][k] == pytest.approx(single[alpha], abs=1e-15)
    assert channel_fidelity(vals).shape == (3,)
    with pytest.raises(InvalidDimensionError):
        channel_correlations(block[..., :1], 10)


def test_the_logical_table_path_holds_only_the_end_block():
    # the end block of 256 times is 16 KiB, and propagate_grid's per-block phases and
    # products about 6 MiB at n = 1000; rows 1, 2 over all n columns took the peak to 25 MiB
    n = 1000
    dec = spectral_decompose(engineered_couplings(n))
    times = np.linspace(0.0, 50.0, 256)
    tracemalloc.start()
    try:
        vals = channel_correlations(propagate_grid(dec, times, (1, 2), (n - 1, n)), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.shape for v in vals.values()] == [(256,)] * len(CHANNELS)
    assert peak < 12 * 2**20


# blocks whose last two axes are not (2, 2), whole rows of A among them, then an
# end block of a chain too short to hold two end pairs
@pytest.mark.parametrize(
    "shape, n", [((2,), 6), ((1, 2), 6), ((), 6), ((3, 2, 1), 6), ((2, 3), 6), ((2, 6), 6),
                 ((2, 2), 3)], ids=repr
)
def test_channel_correlations_reject_blocks_that_are_not_the_end_block(shape, n):
    with pytest.raises(InvalidDimensionError):
        channel_correlations(np.zeros(shape, dtype=complex), n)


# a block of strings, one with a NaN entry and ones with an infinite real or imaginary part,
# each with the operand rule's message: the result rule alone would reject the NaN too
NON_FINITE_BLOCKS = {
    "strings": (np.full((2, 2), "a"), "numeric"),
    "nan": (np.where(np.eye(2), np.nan, 0.0), "finite entries"),
    "inf": (np.full((2, 2), np.inf), "finite entries"),
    "inf imag": (np.full((3, 2, 2), 1j * np.inf), "finite entries"),
}


@pytest.mark.parametrize("block", list(NON_FINITE_BLOCKS))
def test_channel_correlations_reject_non_numeric_or_non_finite_blocks(block):
    amplitudes, message = NON_FINITE_BLOCKS[block]
    with pytest.raises(InvalidParameterError, match=message):
        channel_correlations(amplitudes, 6)
