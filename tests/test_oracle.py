"""Dense reference engine: operators, Hamiltonians, budget policy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import ChainSpec, homogeneous_couplings, random_couplings
from spinwire.errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    OracleSizeError,
)
from spinwire.oracle import (
    HARD_CAP,
    basis_index,
    build_hamiltonian,
    collective_rotation_diag,
    deviation_to_dense,
    evolve_deviation,
    evolve_unitary,
    excitation_operator,
    oracle_budget,
    pauli_string_to_dense,
    require_within_budget,
    similarity_residual,
    similarity_transform,
    total_z,
    trace_overlap,
)
from spinwire.pauli import DeviationState

RNG = np.random.default_rng(7)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_pauli_string_site_ordering():
    # site 1 is the leftmost tensor factor, so Z_1 on two sites is Z (x) 1
    np.testing.assert_array_equal(
        pauli_string_to_dense(2, ((1, "Z"),)), np.diag([1, 1, -1, -1]).astype(complex)
    )
    np.testing.assert_array_equal(
        pauli_string_to_dense(2, ((2, "Z"),)), np.diag([1, -1, 1, -1]).astype(complex)
    )
    np.testing.assert_array_equal(pauli_string_to_dense(3, ()), np.eye(8, dtype=complex))
    np.testing.assert_array_equal(
        pauli_string_to_dense(2, "XY"), np.kron(X, Y)
    )


def test_pauli_string_validation():
    with pytest.raises(InvalidConfigurationError):
        pauli_string_to_dense(3, "XY")  # label length mismatch
    with pytest.raises(InvalidConfigurationError):
        pauli_string_to_dense(2, ((1, "Q"),))
    with pytest.raises(IndexOutOfRangeError):
        pauli_string_to_dense(2, ((3, "X"),))
    # sparse strings go through the same validator as DeviationState
    for bad in (((1, "X"), (1, "Z")), ((2, "Z"), (1, "X")), ((1, "I"),), ((1.0, "X"),)):
        with pytest.raises(InvalidConfigurationError):
            pauli_string_to_dense(2, bad)


def test_basis_index_bit_layout():
    assert basis_index(4, ()) == 0
    assert basis_index(4, (1,)) == 0b1000
    assert basis_index(4, (4,)) == 0b0001
    assert basis_index(4, (2, 4)) == 0b0101
    with pytest.raises(InvalidConfigurationError):
        basis_index(4, (2, 2))
    with pytest.raises(IndexOutOfRangeError):
        basis_index(4, (5,))


def test_excitation_operator_blocks():
    op = excitation_operator(2, {((1,), (2,)): 0.5 - 0.5j})
    expected = np.zeros((4, 4), dtype=complex)
    expected[basis_index(2, (1,)), basis_index(2, (2,))] = 0.5 - 0.5j
    np.testing.assert_array_equal(op, expected)


def test_excitation_operator_checks_blocks_before_allocating():
    # site 11 is outside the 10 sites: rejected before the 16 MiB dense matrix exists
    tracemalloc.start()
    try:
        with pytest.raises(IndexOutOfRangeError):
            excitation_operator(10, {((1,), (11,)): 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_deviation_to_dense():
    state = DeviationState(2, ((1.0, ((1, "Z"),)), (-0.5, ((1, "X"), (2, "X")))))
    np.testing.assert_allclose(
        deviation_to_dense(state), np.kron(Z, I2) - 0.5 * np.kron(X, X), atol=0
    )


def test_two_site_spectra():
    for model in ("xx", "dq"):
        h = build_hamiltonian(ChainSpec(2, model, (1.0,)))
        np.testing.assert_allclose(h, h.conj().T, atol=0)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_hamiltonian_terms_explicit():
    d = 0.7
    h_xx = build_hamiltonian(ChainSpec(2, "xx", (d,)))
    np.testing.assert_allclose(h_xx, d / 2 * (np.kron(X, X) + np.kron(Y, Y)), atol=0)
    h_dq = build_hamiltonian(ChainSpec(2, "dq", (d,)))
    np.testing.assert_allclose(h_dq, d / 2 * (np.kron(X, X) - np.kron(Y, Y)), atol=0)


def test_excitation_sector_block_structure():
    n = 4
    h = build_hamiltonian(ChainSpec(n, "xx", random_couplings(RNG, n)))
    pop = np.array([bin(x).count("1") for x in range(2**n)])
    off_block = h[pop[:, None] != pop[None, :]]
    assert np.max(np.abs(off_block)) <= 1e-14


def test_conserved_charges_commute():
    # the commutators themselves are the registry's commutation_and_gauge check;
    # the dq model does NOT conserve total polarisation
    n = 5
    h_dq = build_hamiltonian(ChainSpec(n, "dq", random_couplings(RNG, n)))
    z = total_z(n)
    assert np.max(np.abs(h_dq @ z - z @ h_dq)) > 0.1


def test_evolution_contracts():
    n = 3
    h = build_hamiltonian(ChainSpec(n, "xx", random_couplings(RNG, n)))
    np.testing.assert_allclose(evolve_unitary(h, 0.0), np.eye(2**n), atol=1e-14)
    u = evolve_unitary(h, 1.3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2**n), atol=1e-12)
    rho = pauli_string_to_dense(n, ((1, "Z"),))
    rho_t = evolve_deviation(h, rho, 1.3)
    # free evolution preserves the purity Tr[rho^2]
    assert trace_overlap(rho_t, rho_t).real == pytest.approx(
        trace_overlap(rho, rho).real, abs=1e-12
    )
    # energy conservation
    assert trace_overlap(evolve_deviation(h, h, 2.1), h) == pytest.approx(
        trace_overlap(h, h), abs=1e-10
    )


@pytest.mark.parametrize("t", ["a", None, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("evolve", [
    lambda t: evolve_unitary(np.eye(4), t),
    lambda t: evolve_deviation(np.eye(4), np.eye(4), t),
], ids=["evolve_unitary", "evolve_deviation"])
def test_evolution_rejects_a_bad_time_before_diagonalising(monkeypatch, evolve, t):
    def no_eigh(h):
        raise AssertionError("diagonalised before the time check")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(InvalidParameterError):
        evolve(t)


def test_two_site_polarisation_transfer():
    d, t = 0.9, 1.7
    h = build_hamiltonian(ChainSpec(2, "xx", (d,)))
    z1 = pauli_string_to_dense(2, ((1, "Z"),))
    z2 = pauli_string_to_dense(2, ((2, "Z"),))
    got = trace_overlap(evolve_deviation(h, z1, t), z2).real
    assert got == pytest.approx(math.sin(d * t) ** 2, abs=1e-12)


def test_trace_overlap_orthonormal_strings():
    for label_a in ("XI", "YZ", "ZZ", "IX"):
        for label_b in ("XI", "YZ", "ZZ", "IX"):
            got = trace_overlap(
                pauli_string_to_dense(2, label_a), pauli_string_to_dense(2, label_b)
            )
            assert got == pytest.approx(1.0 if label_a == label_b else 0.0, abs=1e-14)
    with pytest.raises(InvalidDimensionError):
        trace_overlap(np.eye(2), np.eye(4))


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(-100, 100),
       st.integers(-100, 100))
@settings(max_examples=60, deadline=None)
def test_trace_overlap_matches_the_matrix_product_trace(dim, seed, scale_a, scale_b):
    rng = np.random.default_rng(seed)
    a, b = (10.0**scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            for scale in (scale_a, scale_b))
    bound = 1e-13 * np.abs(a).max() * np.abs(b).max() * dim
    assert abs(trace_overlap(a, b) - np.trace(a @ b) / dim) <= bound


def test_collective_rotation_phases():
    n, phi = 3, 0.8
    diag = collective_rotation_diag(n, phi)
    ref = np.exp(-0.5j * phi * np.diag(total_z(n)).real)
    np.testing.assert_allclose(diag, ref, atol=1e-14)


def test_similarity_transform_is_odd_site_flip():
    n = 4
    v = similarity_transform(n)
    np.testing.assert_allclose(v, pauli_string_to_dense(n, ((1, "X"), (3, "X"))), atol=0)
    np.testing.assert_allclose(v @ v, np.eye(2**n), atol=0)


def test_similarity_residual_vanishes():
    for n in (2, 3, 6):
        couplings = random_couplings(RNG, n)
        h_xx, h_dq = (build_hamiltonian(ChainSpec(n, m, couplings)) for m in ("xx", "dq"))
        assert similarity_residual(h_xx, h_dq) <= 1e-12


@pytest.mark.parametrize(
    "h_xx, h_dq",
    [(np.eye(4), np.eye(8)), (np.eye(4), np.eye(4)[:2]), (np.eye(6), np.eye(6)),
     (np.eye(1), np.eye(1)), (np.ones(4), np.ones(4)), (1.0, 1.0)],
    ids=["unequal", "not-square", "not-2^n", "n=0", "vector", "scalar"],
)
def test_similarity_residual_rejects_mismatched_shapes(h_xx, h_dq):
    with pytest.raises(InvalidDimensionError):
        similarity_residual(h_xx, h_dq)


def test_gauge_maps_end_polarisations_with_staggered_sign():
    n, t = 5, 1.1
    cpl = random_couplings(RNG, n)
    h_xx = build_hamiltonian(ChainSpec(n, "xx", cpl))
    h_dq = build_hamiltonian(ChainSpec(n, "dq", cpl))
    z1 = pauli_string_to_dense(n, ((1, "Z"),))
    for l in range(1, n + 1):
        zl = pauli_string_to_dense(n, ((l, "Z"),))
        c_xx = trace_overlap(evolve_deviation(h_xx, z1, t), zl).real / trace_overlap(z1, z1).real
        c_dq = trace_overlap(evolve_deviation(h_dq, z1, t), zl).real / trace_overlap(z1, z1).real
        assert c_dq == pytest.approx((-1) ** (1 - l) * c_xx, abs=1e-12)


def test_budget_default_and_env(monkeypatch):
    monkeypatch.delenv("SPINWIRE_ORACLE_MAX_N", raising=False)
    assert oracle_budget() == 10
    assert require_within_budget(10) == 10
    with pytest.raises(OracleSizeError):
        require_within_budget(11)
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "12")
    assert require_within_budget(12) == 12
    with pytest.raises(OracleSizeError):
        require_within_budget(13)
    # values above the hard cap are clamped, not honoured
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "40")
    assert oracle_budget() == HARD_CAP == 12
    with pytest.raises(OracleSizeError):
        require_within_budget(13)
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "6")
    with pytest.raises(OracleSizeError):
        build_hamiltonian(homogeneous_couplings(7, 1.0))


def test_budget_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "eleven")
    with pytest.raises(InvalidConfigurationError):
        oracle_budget()
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "1")
    with pytest.raises(InvalidConfigurationError):
        oracle_budget()
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "8.0")
    with pytest.raises(InvalidConfigurationError):
        oracle_budget()
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "4")
    for bad in (0, 8.0, True):
        with pytest.raises(InvalidDimensionError):
            require_within_budget(bad)


@pytest.mark.parametrize("value", [np.int64(8), np.int32(8), np.uint8(8)])
def test_budget_accepts_numpy_integers(value, monkeypatch):
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "8")
    n = require_within_budget(value)
    assert n == 8 and type(n) is int
    with pytest.raises(OracleSizeError):
        require_within_budget(value + 1)
