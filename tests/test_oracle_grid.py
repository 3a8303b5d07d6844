"""Sector-blocked oracle MQC engine on a time grid.

``mqc_phase_cycled_grid`` is checked against the literal single-time
protocol ``mqc_phase_cycled`` (its reference); the signed-permutation operators
of ``spinwire.oracle`` (``build_hamiltonian``, ``pauli_string_to_dense``,
``deviation_to_dense``, ``staggered_z``) against Kronecker products
written out here; and ``conserved_sectors`` against the block structure of H.
"""

import functools
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinwire.chain import ChainSpec
from spinwire.cli import main
from spinwire.errors import (
    AliasingError,
    InvalidDimensionError,
    InvalidParameterError,
    OracleSizeError,
)
from spinwire.mqc import PREPARED_KINDS, mqc_phase_cycled, mqc_phase_cycled_grid, prepare_state
from spinwire.oracle import (
    build_hamiltonian,
    conserved_sectors,
    deviation_to_dense,
    pauli_string_to_dense,
    staggered_z,
)
from spinwire.pauli import DeviationState, parse_string_label

MODELS = ("xx", "dq", "dipolar")
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def n_couplings(n: int, model: str) -> int:
    return n * (n - 1) // 2 if model == "dipolar" else n - 1


def random_spec(n: int, model: str, seed: int) -> ChainSpec:
    rng = np.random.default_rng(seed)
    return ChainSpec(n, model, tuple(rng.uniform(-1.5, 1.5, n_couplings(n, model))))


def kron_string(n: int, sparse) -> np.ndarray:
    """Kronecker product of a sparse Pauli string's (site, letter) pairs, identity elsewhere."""
    letters = dict(sparse)
    return functools.reduce(np.kron, (PAULI[letters.get(site, "I")] for site in range(1, n + 1)))


def kron_pair(n: int, a: int, b: int, letter: str) -> np.ndarray:
    """Pauli ``letter`` on sites a and b (1-based), identity elsewhere."""
    return kron_string(n, ((a, letter), (b, letter)))


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The chain Hamiltonian as a sum of Kronecker products of Pauli matrices."""
    n = spec.n
    h = np.zeros((2**n, 2**n), dtype=complex)
    if spec.model in ("xx", "dq"):
        sign = 1.0 if spec.model == "xx" else -1.0
        for j, d in enumerate(spec.couplings, start=1):
            h += d / 2.0 * (kron_pair(n, j, j + 1, "X") + sign * kron_pair(n, j, j + 1, "Y"))
        return h
    mat = spec.coupling_matrix()
    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            d = mat[j - 1, l - 1]
            if d == 0.0:
                continue
            h += d * (
                kron_pair(n, j, l, "Z")
                - 0.5 * (kron_pair(n, j, l, "X") + kron_pair(n, j, l, "Y"))
            )
    return h


@given(st.integers(1, 8), st.sampled_from(MODELS), st.data())
@settings(max_examples=60, deadline=None)
def test_bit_built_hamiltonian_equals_kron_sum(n, model, data):
    couplings = data.draw(
        st.lists(st.floats(-1e3, 1e3), min_size=n_couplings(n, model),
                 max_size=n_couplings(n, model)),
        label="couplings",
    )
    spec = ChainSpec(n, model, tuple(couplings))
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))


@pytest.mark.parametrize("model", MODELS)
def test_bit_built_hamiltonian_equals_kron_sum_at_subnormal_coupling(model):
    # the smallest subnormal loses X X + Y Y unless the phases are added first
    n = 4
    spec = ChainSpec(n, model, (5e-324,) * n_couplings(n, model))
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))


WEIGHTS = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_signed_permutations_equal_kron_products(n, data):
    labels = st.text("IXYZ", min_size=n, max_size=n)
    label = data.draw(labels, label="label")
    sparse = parse_string_label(label)
    ref = kron_string(n, sparse)
    assert np.array_equal(pauli_string_to_dense(n, label), ref)
    assert np.array_equal(pauli_string_to_dense(n, sparse), ref)
    strings = data.draw(st.lists(labels, max_size=4, unique=True), label="strings")
    terms = tuple((data.draw(WEIGHTS, label="weight"), parse_string_label(x)) for x in strings)
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for weight, string in terms:
        ref += weight * kron_string(n, string)
    assert np.array_equal(deviation_to_dense(DeviationState(n, terms)), ref)
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n + 1):
        ref += (-1) ** (j + 1) * kron_string(n, ((j, "Z"),))
    assert np.array_equal(staggered_z(n), ref)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(1, 9))
def test_hamiltonian_vanishes_outside_sectors(n, model):
    spec = random_spec(n, model, seed=n)
    h = build_hamiltonian(spec)
    sectors = conserved_sectors(spec)
    assert [len(s) for s in sectors] == [math.comb(n, k) for k in range(n + 1)]
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(2**n))
    outside = h.copy()
    for labels in sectors:
        outside[np.ix_(labels, labels)] = 0.0
    assert not np.any(outside)


TIMES = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=3)


@given(
    st.integers(2, 8),
    st.sampled_from(MODELS),
    st.sampled_from(PREPARED_KINDS),
    st.integers(0, 2**32 - 1),
    TIMES,
    st.integers(5, 32),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_grid_matches_literal_cycle(n, model, kind, seed, times, phase_steps, max_order):
    assume(kind in ("z_ends", "full_z") or n >= 4)
    assume(phase_steps > 2 * max_order)
    spec = random_spec(n, model, seed)
    state = prepare_state(n, kind)
    spectra = mqc_phase_cycled_grid(spec, state, times, phase_steps, max_order)
    assert len(spectra) == len(times)
    for spectrum, t in zip(spectra, times):
        ref = mqc_phase_cycled(spec, state, t, phase_steps, max_order)
        assert spectrum.time == ref.time
        assert spectrum.orders == ref.orders
        assert np.max(np.abs(np.subtract(spectrum.intensities, ref.intensities))) <= 1e-12


@pytest.mark.parametrize("kind", ["z_ends", "full_z", "y_logical"])
@pytest.mark.parametrize("phase_steps, max_order", [(1, 0), (2, 0), (3, 1)])
def test_grid_keeps_the_cycles_aliasing(kind, phase_steps, max_order):
    # dq populates orders 0 and +-2; with these cycles order 2 folds onto a
    # reported order (2 = 0 mod 1 and mod 2, 2 = -1 mod 3), and the grid must
    # fold it exactly as the literal cycle does
    n, times = 6, (0.7, -3.1)
    spec = random_spec(n, "dq", seed=3)
    state = prepare_state(n, kind)
    aliased = mqc_phase_cycled_grid(spec, state, times, phase_steps, max_order)
    resolved = mqc_phase_cycled_grid(spec, state, times, 16, max_order)
    moved = 0.0
    for spectrum, clean, t in zip(aliased, resolved, times):
        ref = mqc_phase_cycled(spec, state, t, phase_steps, max_order)
        assert np.max(np.abs(np.subtract(spectrum.intensities, ref.intensities))) <= 1e-12
        moved = max(moved, np.max(np.abs(np.subtract(spectrum.intensities, clean.intensities))))
    assert moved > 1e-6


def test_empty_grid_gives_empty_result():
    spec = random_spec(5, "dq", seed=0)
    assert mqc_phase_cycled_grid(spec, prepare_state(5, "z_ends"), []) == ()


@pytest.mark.parametrize("times", [[], [0.5]])
def test_grid_validates_before_any_work(times, monkeypatch):
    spec = random_spec(5, "dq", seed=0)
    state = prepare_state(5, "z_ends")
    with monkeypatch.context() as env:
        env.setenv("SPINWIRE_ORACLE_MAX_N", "4")
        with pytest.raises(OracleSizeError):
            mqc_phase_cycled_grid(spec, state, times)
    with pytest.raises(InvalidDimensionError):
        mqc_phase_cycled_grid(spec, prepare_state(4, "z_ends"), times)
    with pytest.raises(AliasingError):
        mqc_phase_cycled_grid(spec, state, times, phase_steps=4, max_order=2)
    with pytest.raises(InvalidParameterError):
        mqc_phase_cycled_grid(spec, state, times, max_order=-1)
    for bad in (8.0, True, "8"):
        with pytest.raises(InvalidParameterError):
            mqc_phase_cycled_grid(spec, state, times, phase_steps=bad)


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.inf], [[0.5]], ["a"], 0.5])
def test_grid_rejects_bad_times(times):
    spec = random_spec(4, "dq", seed=0)
    with pytest.raises(InvalidParameterError):
        mqc_phase_cycled_grid(spec, prepare_state(4, "z_ends"), times)


@pytest.mark.parametrize(
    "argv",
    [
        ["mqc", "--n", "13", "--engine", "oracle", "--grid", "0:1:0"],
        ["mqc", "--n", "6", "--engine", "oracle", "--phase-steps", "2", "--grid", "0:1:0"],
    ],
)
def test_cli_oracle_rejects_bad_request_on_empty_grid(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert "error:" in result.output
