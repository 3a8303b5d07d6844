"""Single-excitation propagator, determinant amplitudes, observables."""

import importlib.machinery
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from spinwire import mqc, propagator
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
)
from spinwire.mqc import mqc_propagator_grid, prepare_state
from spinwire.oracle import build_hamiltonian, evolve_deviation, trace_overlap
from spinwire.propagator import (
    SpectralDecomposition,
    _eigh_tridiagonal,
    _lapack_stevd,
    end_autocorrelation_grid,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    slater_amplitude,
    spectral_decompose,
)

RNG = np.random.default_rng(20260814)


# ordinary bonds, exact zeros (decoupled blocks) and tiny bonds whose modes
# hold entries many orders of magnitude apart
BONDS = st.one_of(
    st.floats(-1.5, 1.5, allow_nan=False),
    st.just(0.0),
    st.sampled_from([1e-13, -1e-12, 1e-11, 5e-324]),
    st.floats(1e-14, 1e-10),
)


def test_single_site_decomposition_is_one_zero_mode():
    # eigh_tridiagonal's answer for the empty bond list of n = 1, which dstevd rejects
    dec = spectral_decompose(ChainSpec(1, "xx", ()))
    assert dec.frequencies.tolist() == [0.0]
    assert dec.modes.tolist() == [[1.0]]
    assert propagate(dec, 0.7).tolist() == [[1.0 + 0j]]


def test_spectral_decomposition_reconstructs_matrix():
    spec = ChainSpec(6, "xx", random_couplings(RNG, 6))
    dec = spectral_decompose(spec)
    m = spec.coupling_matrix()
    np.testing.assert_allclose((dec.modes * dec.frequencies) @ dec.modes.T, m, atol=1e-12)
    np.testing.assert_allclose(dec.modes.T @ dec.modes, np.eye(6), atol=1e-12)
    assert np.all(np.diff(dec.frequencies) >= 0)


@given(st.integers(4, 40), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_a_mode_sign_changes_no_bit_of_any_result(n, seed, data):
    # each result reads a mode only through products of its own entries, where
    # the sign cancels exactly, so the decomposition leaves every sign free
    spec = ChainSpec(n, "dq", random_couplings(np.random.default_rng(seed), n))
    dec = spectral_decompose(spec)
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="flips")
    flipped = SpectralDecomposition(n, dec.frequencies, np.where(flips, -dec.modes, dec.modes))
    times = data.draw(st.lists(st.floats(-50, 50, allow_nan=False), max_size=4), label="times")
    rows = data.draw(st.lists(st.integers(1, n), max_size=4), label="rows")
    cols = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="cols")
    assert np.array_equal(
        propagate_grid(flipped, times, rows, cols), propagate_grid(dec, times, rows, cols)
    )
    state = prepare_state(n, data.draw(st.sampled_from(("z_ends", "full_z", "y_logical")),
                                       label="state"))
    want = mqc_propagator_grid(spec, state, times)
    with mock.patch.object(mqc, "spectral_decompose", lambda _: flipped):
        assert np.array_equal(mqc_propagator_grid(spec, state, times), want)


@pytest.mark.parametrize("make", [homogeneous_couplings, engineered_couplings])
def test_sign_fix_adds_no_n_squared_array_to_the_decomposition(make):
    # dstevd holds the modes and an n^2 workspace, 16 n^2 bytes, and the decomposition
    # adds no n^2 array of its own: under 16 MiB more at n = 3000
    n = 3000
    spec = make(n)
    spectral_decompose(homogeneous_couplings(3))  # load dstevd outside the trace
    tracemalloc.start()
    try:
        spectral_decompose(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n**2 + 16 * 2**20


def test_propagate_grid_makes_no_complex_copy_of_the_modes():
    # rows (1, 2) of A at 256 times and all 1000 columns are 7.8 MiB; the real
    # products read v[c].T once (7.6 MiB), and a complex cast of it per time
    # block took the peak to 40.5 MiB
    dec = spectral_decompose(engineered_couplings(1000))
    times = np.linspace(0.0, 50.0, 256)
    tracemalloc.start()
    try:
        amp = propagate_grid(dec, times, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amp.shape == (256, 2, 1000)
    assert peak < 30 * 2**20


def test_homogeneous_three_site_spectrum():
    dec = spectral_decompose(homogeneous_couplings(3, 1.0))
    np.testing.assert_allclose(dec.frequencies, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_homogeneous_spectrum_closed_form():
    n, d = 9, 1.7
    dec = spectral_decompose(homogeneous_couplings(n, d))
    k = np.arange(n, 0, -1)
    np.testing.assert_allclose(dec.frequencies, 2 * d * np.cos(np.pi * k / (n + 1)), atol=1e-12)


def test_decomposition_size_cap_raises_before_any_work(monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("eigensolver called above the cap")

    monkeypatch.setattr("spinwire.propagator._eigh_tridiagonal", no_solve)
    monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", no_solve)
    with pytest.raises(InvalidDimensionError, match="n <= 10000"):
        spectral_decompose(homogeneous_couplings(10_001))


@pytest.fixture()
def reload_stevd():
    """Let the decompositions after this test look for dstevd again."""
    yield
    _lapack_stevd.cache_clear()


@given(st.integers(1, 80).flatmap(lambda n: st.lists(BONDS, min_size=n - 1, max_size=n - 1)))
@example(bonds=list(homogeneous_couplings(500).couplings))
@example(bonds=list(engineered_couplings(500).couplings))
@example(bonds=list(homogeneous_couplings(3000).couplings))
@example(bonds=list(engineered_couplings(3000).couplings))
@settings(max_examples=150, deadline=None)
def test_dstevd_gives_the_bits_of_eigh_tridiagonal(bonds):
    assert _lapack_stevd() is not None
    bonds = np.array(bonds)
    got = _eigh_tridiagonal(bonds)
    want = eigh_tridiagonal(np.zeros(len(bonds) + 1), bonds)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "extension",
    [
        "scipy.linalg._no_such_extension",
        "no_such_package._flapack",
        "scipy.linalg._fblas",
        "broken_lapack._flapack",
    ],
    ids=["not-found", "no-package", "no-dstevd", "not-loadable"],
)
def test_decomposition_falls_back_to_eigh_tridiagonal(
    monkeypatch, tmp_path, reload_stevd, extension
):
    # a package whose _flapack is found but is no shared library
    broken = tmp_path / "broken_lapack"
    broken.mkdir()
    (broken / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"no ELF")
    monkeypatch.syspath_prepend(tmp_path)
    spec = engineered_couplings(40)
    direct = spectral_decompose(spec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh_tridiagonal(*args, **kwargs)

    _lapack_stevd.cache_clear()
    monkeypatch.setattr(propagator, "_FLAPACK", extension)
    monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", counted)
    fallback = spectral_decompose(spec)
    assert _lapack_stevd() is None
    assert len(calls) == 1
    assert np.array_equal(fallback.frequencies, direct.frequencies)
    assert np.array_equal(fallback.modes, direct.modes)


def test_lapack_failure_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(propagator, "_lapack_stevd", lambda: lambda d, e, compute_v: (d, None, 3))
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        spectral_decompose(homogeneous_couplings(4))


def test_propagator_basics():
    spec = homogeneous_couplings(5, 1.0)
    dec = spectral_decompose(spec)
    np.testing.assert_allclose(propagate(dec, 0.0), np.eye(5), atol=1e-14)
    forward = propagate(dec, 1.3)
    backward = propagate(dec, -1.3)
    np.testing.assert_allclose(backward, forward.conj().T, atol=1e-14)


def test_two_site_amplitude():
    d, t = 1.4, 0.9
    amp = homogeneous_amplitude(2, d, [t, math.pi / (2 * d)], (1,), (2,))
    assert amp[:, 0, 0] == pytest.approx([-1j * math.sin(d * t), -1j], abs=1e-14)
    assert homogeneous_amplitude(7, d, [0.0], (3,), (3,))[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(IndexOutOfRangeError):
        homogeneous_amplitude(4, d, [t], (0,), (2,))


def test_end_to_end_probability_law():
    n, d = 9, 1.3
    dec = spectral_decompose(engineered_couplings(n, d))
    for t in (0.3, 1.1, 2.9):
        tau = 2 * d * t / n
        p = abs(propagate(dec, t)[0, n - 1]) ** 2
        assert p == pytest.approx(math.sin(tau) ** (2 * (n - 1)), abs=1e-12)


@given(st.integers(2, 9), st.floats(0.05, 4.0, allow_nan=False), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_unitarity_symmetry_group_properties(n, t, seed):
    rng = np.random.default_rng(seed)
    dec = spectral_decompose(ChainSpec(n, "xx", random_couplings(rng, n)))
    a = propagate(dec, t)
    np.testing.assert_allclose(a @ a.conj().T, np.eye(n), atol=1e-10)
    assert np.max(np.abs(a - a.T)) <= 1e-14  # symmetric to rounding, not symmetrised
    b = propagate(dec, 0.7 * t)
    ab = propagate(dec, 1.7 * t)
    np.testing.assert_allclose(a @ b, ab, atol=1e-10)


def test_slater_amplitude_identity_and_errors():
    amp = propagate(spectral_decompose(homogeneous_couplings(6, 1.0)), 0.0)
    assert slater_amplitude(amp, (1, 3), (1, 3)) == pytest.approx(1.0)
    assert slater_amplitude(amp, (1, 3), (2, 4)) == pytest.approx(0.0, abs=1e-14)
    assert slater_amplitude(amp, (), ()) == 1  # the empty configuration
    with pytest.raises(InvalidConfigurationError):
        slater_amplitude(amp, (1, 1), (2, 3))
    with pytest.raises(InvalidConfigurationError):
        slater_amplitude(amp, (3, 1), (2, 4))
    with pytest.raises(DimensionMismatchError):
        slater_amplitude(amp, (1, 2), (3,))
    with pytest.raises(IndexOutOfRangeError):
        slater_amplitude(amp, (1, 7), (2, 3))


def test_two_site_determinant_is_unimodular():
    for t in (0.0, 0.7, 2.4):
        amp = propagate(spectral_decompose(homogeneous_couplings(2, 1.0)), t)
        assert slater_amplitude(amp, (1, 2), (1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_full_filling_determinant_modulus_one():
    n = 5
    dec = spectral_decompose(ChainSpec(n, "xx", random_couplings(RNG, n)))
    amp = propagate(dec, 1.1)
    det = slater_amplitude(amp, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    assert abs(det) == pytest.approx(1.0, abs=1e-10)


def test_mixed_state_overlap_reductions():
    n, t = 6, 0.8
    amp = propagate(spectral_decompose(homogeneous_couplings(n, 1.0)), t)
    # pure-state reduction: the overlap is the transfer probability
    a = {((1,), (1,)): 1.0}
    b = {((n,), (n,)): 1.0}
    assert mixed_state_overlap(amp, a, b).real == pytest.approx(abs(amp[0, n - 1]) ** 2, abs=1e-12)
    # identity evolution gives the self-overlap
    at0 = propagate(spectral_decompose(homogeneous_couplings(n, 1.0)), 0.0)
    mixed = {((1,), (1,)): 0.5, ((2,), (2,)): 0.5, ((1,), (2,)): 0.25, ((2,), (1,)): 0.25}
    self_overlap = 0.5**2 + 0.5**2 + 2 * 0.25**2
    assert mixed_state_overlap(at0, mixed, mixed).real == pytest.approx(self_overlap, abs=1e-12)


def test_mixed_state_overlap_on_a_long_chain():
    n = 20
    couplings = random_couplings(np.random.default_rng(20), n)
    amp = propagate(spectral_decompose(ChainSpec(n, "xx", couplings)), 2.3)
    for j, l in ((1, n), (3, 3), (7, 12)):
        got = mixed_state_overlap(amp, {((j,), (j,)): 1.0}, {((l,), (l,)): 1.0})
        assert got.real == pytest.approx(abs(amp[j - 1, l - 1]) ** 2, abs=1e-12)
        assert abs(got.imag) <= 1e-12
    pair, image = (1, 2), (n - 1, n)
    got = mixed_state_overlap(amp, {(pair, pair): 1.0}, {(image, image): 1.0})
    assert got.real == pytest.approx(abs(slater_amplitude(amp, pair, image)) ** 2, abs=1e-12)


def test_polarization_correlation_values():
    dec = spectral_decompose(homogeneous_couplings(2, 1.2))
    for t in (0.0, 0.4, 1.7):
        assert polarization_from_propagator(propagate(dec, t), 1, 2) == pytest.approx(
            math.sin(1.2 * t) ** 2, abs=1e-12
        )
    at0 = propagate(spectral_decompose(homogeneous_couplings(5, 1.0)), 0.0)
    assert polarization_from_propagator(at0, 3, 3) == pytest.approx(1.0, abs=1e-12)


def test_dq_polarization_sign_alternation():
    n = 6
    spec = engineered_couplings(n, 1.0, model="dq")
    xx = engineered_couplings(n, 1.0, model="xx")
    t = 1.21
    amp_dq, amp_xx = (propagate(spectral_decompose(s), t) for s in (spec, xx))
    for l in range(1, n + 1):
        c_dq = polarization_from_propagator(amp_dq, 1, l, "dq")
        c_xx = polarization_from_propagator(amp_xx, 1, l, "xx")
        assert c_dq == (-1) ** (1 - l) * c_xx  # shared backend: exact
    t_star = transfer_timing(engineered_couplings(n, 1.0)).t_star
    at_star = propagate(spectral_decompose(spec), t_star)
    assert polarization_from_propagator(at_star, 1, n, "dq") == pytest.approx(
        (-1) ** (n - 1), abs=1e-9
    )


def test_autocorrelation_normalisation_and_errors():
    for model in ("xx", "dq"):
        for kind in ("z_ends", "y_logical"):
            spec = homogeneous_couplings(6, 1.0, model=model)
            assert end_autocorrelation_grid(spec, kind, [0.0])[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidConfigurationError):
        end_autocorrelation_grid(homogeneous_couplings(6, 1.0), "x_ends", [0.1])
    with pytest.raises(InvalidDimensionError):
        end_autocorrelation_grid(homogeneous_couplings(3, 1.0), "y_logical", [0.1])


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
        assert end_autocorrelation_grid(spec, kind, [t])[0] == pytest.approx(ref, abs=1e-8)


def test_engineered_autocorrelation_revives_at_mirror_time():
    n = 7
    spec = engineered_couplings(n, 1.0, model="dq")
    t_star = transfer_timing(engineered_couplings(n, 1.0)).t_star
    for kind in ("z_ends", "y_logical"):
        assert end_autocorrelation_grid(spec, kind, [t_star])[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
def test_homogeneous_amplitude_rejects_bad_coupling_scale(d):
    with pytest.raises(InvalidParameterError):
        homogeneous_amplitude(6, d, [0.5], (1,), (6,))
