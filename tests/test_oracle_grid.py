"""Sector-blocked oracle MQC engine on a time grid.

``mqc_phase_cycled_grid`` is checked against the literal single-time
protocol ``mqc_phase_cycled`` (its reference); the signed-permutation operators
of ``spinwire.oracle`` (``build_hamiltonian``, ``pauli_string_to_dense``,
``deviation_to_dense``, ``staggered_z``) against the Kronecker products
of ``reference``; their blocks on sorted labels against slices of the
dense operators; ``popcount`` against the per-bit loop it replaced;
``conserved_sectors`` against the block structure of H and the spin-flip
mirror between sectors k and n - k, which the grid engine uses to build
one block per mirror pair; and the split of every sector into an even and
an odd half under its mirror: the site reversal R on a palindrome, or
G = F R under dq at even n, where R maps sector k onto n - k, and the
identity otherwise, whose one half folds to the whole sector bit for bit.
R and the identity keep popcount and G complements it, and one routine
bins every sector: sector by sector, its moments from the mirror's halves
equal those of the identity's one half, and the literal cycle checks the
whole table on palindromic chains, for every prepared state and for
states with parts of both G parities. A tracemalloc bound holds the time
batches in check.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinwire import mqc
from spinwire.chain import MODELS, ChainSpec, engineered_couplings, homogeneous_couplings
from spinwire.cli import main
from spinwire.errors import (
    AliasingError,
    InvalidDimensionError,
    InvalidParameterError,
    OracleSizeError,
    UnsupportedModelError,
)
from spinwire.mqc import PREPARED_KINDS, mqc_phase_cycled, mqc_phase_cycled_grid, prepare_state
from spinwire.oracle import (
    build_hamiltonian,
    conserved_sectors,
    deviation_to_dense,
    pauli_string_to_dense,
    popcount,
    staggered_z,
)
from spinwire.pauli import DeviationState, parse_string_label

from reference import kron_hamiltonian, kron_string


def random_spec(n: int, model: str, seed: int) -> ChainSpec:
    rng = np.random.default_rng(seed)
    return ChainSpec(n, model, tuple(rng.uniform(-1.5, 1.5, n - 1)))


@given(st.integers(1, 8), st.sampled_from(MODELS), st.data())
@settings(max_examples=60, deadline=None)
def test_bit_built_hamiltonian_equals_kron_sum(n, model, data):
    couplings = data.draw(
        st.lists(st.floats(-1e3, 1e3), min_size=n - 1, max_size=n - 1),
        label="couplings",
    )
    spec = ChainSpec(n, model, tuple(couplings))
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))


@pytest.mark.parametrize("model", MODELS)
def test_bit_built_hamiltonian_equals_kron_sum_at_subnormal_coupling(model):
    # the smallest subnormal loses X X + Y Y unless the phases are added first
    n = 4
    spec = ChainSpec(n, model, (5e-324,) * (n - 1))
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


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(1, 11))
def test_sector_blocks_equal_slices_of_the_dense_operators(n, model):
    spec = random_spec(n, model, seed=100 + n)
    h = build_hamiltonian(spec)
    states = [prepare_state(n, kind) for kind in PREPARED_KINDS
              if n >= (2 if kind in ("z_ends", "full_z") else 4)]
    rhos = [deviation_to_dense(state) for state in states]
    for labels in conserved_sectors(spec):
        block = build_hamiltonian(spec, labels)
        assert np.array_equal(block, h[np.ix_(labels, labels)])
        assert not np.any(block.imag)
        for state, rho in zip(states, rhos):
            assert np.array_equal(deviation_to_dense(state, labels), rho[np.ix_(labels, labels)])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(1, 11))
def test_spin_flip_mirrors_sector_k_onto_sector_n_minus_k(n, model):
    # X^n complements every label and commutes with H: sector n - k is sector k flipped
    # and reversed, and so is its block, exactly
    spec = random_spec(n, model, seed=200 + n)
    sectors = conserved_sectors(spec)
    for k in range(n + 1):
        assert np.array_equal(sectors[n - k], (2**n - 1 - sectors[k])[::-1])
        assert np.array_equal(build_hamiltonian(spec, sectors[n - k]),
                              build_hamiltonian(spec, sectors[k])[::-1, ::-1])


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.<name>`` so each call is counted; return the one-entry count list."""
    count, inner = [0], getattr(owner, name)

    def counter(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counter)
    return count


@pytest.mark.parametrize("kind", ["z_ends", "mixed"])
@pytest.mark.parametrize("n", [5, 8, 10])
def test_grid_engine_builds_and_diagonalises_one_block_per_mirror_pair(n, kind, monkeypatch):
    # n // 2 + 1 pairs, not n + 1 sectors, whatever the state's flip parity
    state = prepare_state(n, "z_ends") if kind == "z_ends" else MIXED_STATES[0](n)
    builds = _counting(monkeypatch, mqc, "build_hamiltonian")
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    mqc_phase_cycled_grid(random_spec(n, "dq", seed=n), state, [0.4, 1.3])
    assert builds == eighs == [n // 2 + 1]


@given(st.integers(1, 6), st.sampled_from(MODELS), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_blocks_on_any_sorted_labels_equal_slices(n, model, seed, data):
    # labels that are not a sector: every entry whose target leaves the block is dropped
    labels = np.array(sorted(data.draw(st.sets(st.integers(0, 2**n - 1)), label="labels")),
                      dtype=np.int64)
    spec = random_spec(n, model, seed)
    assert np.array_equal(build_hamiltonian(spec, labels),
                          build_hamiltonian(spec)[np.ix_(labels, labels)])
    strings = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=4,
                                 unique=True), label="strings")
    terms = tuple((data.draw(WEIGHTS, label="weight"), parse_string_label(x)) for x in strings)
    state = DeviationState(n, terms)
    assert np.array_equal(deviation_to_dense(state, labels),
                          deviation_to_dense(state)[np.ix_(labels, labels)])


def test_grid_engine_refuses_a_hamiltonian_block_that_is_not_real(monkeypatch):
    # the real eigh would drop an imaginary part, however small, without a word
    def complex_block(spec, labels):
        return build_hamiltonian(spec, labels) + 5e-324j

    monkeypatch.setattr(mqc, "build_hamiltonian", complex_block)
    with pytest.raises(UnsupportedModelError):
        mqc_phase_cycled_grid(random_spec(4, "dq", seed=0), prepare_state(4, "z_ends"), [0.5])


MIRRORED = {"homogeneous": homogeneous_couplings, "engineered": engineered_couplings}


def reversal_permutation(n: int) -> np.ndarray:
    """Basis label of each label's mirror image, site j -> n + 1 - j, by a string reversal."""
    return np.array([int(format(x, f"0{n}b")[::-1] or "0", 2) for x in range(2**n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_bit_reversal_equals_the_string_reversal(n):
    labels = np.arange(2**n)
    assert np.array_equal(mqc._bit_reversal(labels, n), reversal_permutation(n))


def half_sizes(spec: ChainSpec) -> list[list[int]]:
    return [[orbits[0].size for orbits, _ in halves] for _, halves, *_ in mqc._mirror_pairs(spec)]


@pytest.mark.parametrize(
    "n, model, sizes",
    [
        (10, "dq", [[1], [5, 5], [25, 20], [60, 60], [110, 100], [126, 126]]),
        (8, "dq", [[1], [4, 4], [16, 12], [28, 28], [38, 32]]),
        (9, "dq", [[1], [5, 4], [20, 16], [44, 40], [66, 60]]),
        (9, "xx", [[1], [5, 4], [20, 16], [44, 40], [66, 60]]),
        (10, "xx", [[1], [5, 5], [25, 20], [60, 60], [110, 100], [126, 126]]),
    ],
)
@pytest.mark.parametrize("family", MIRRORED)
def test_mirror_invariant_sectors_split_into_two_halves(n, model, sizes, family):
    # dq at even n: R complements the odd-site gauge, and G = F R splits every sector
    assert half_sizes(MIRRORED[family](n, model=model)) == sizes


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_every_sector_of_an_even_dq_palindrome_splits_by_g(n):
    # G fixes only labels of popcount n/2; sector 0 of dq at even n is one of them
    spec = engineered_couplings(n, model="dq")
    sectors = conserved_sectors(spec)
    pairs = list(mqc._mirror_pairs(spec))
    assert len(pairs) == n // 2 + 1
    for (labels, halves, mirrored), k in zip(pairs, range(n // 2 + 1)):
        assert np.array_equal(labels, sectors[k])
        assert mirrored == (2 * k != n)
        assert sum(orbits[0].size for orbits, _ in halves) == labels.size
        assert len(halves) == (2 if labels.size >= 2 else 1)
        image = mqc._mirror_image(spec, labels)
        assert np.array_equal(image, (2**n - 1) ^ reversal_permutation(n)[labels])
        assert np.array_equal(popcount(image, n), n - popcount(labels, n))


@pytest.mark.parametrize("model", MODELS)
def test_a_chain_that_is_not_a_palindrome_keeps_whole_sectors(model):
    n = 10
    sizes = [[math.comb(n, k)] for k in range(n // 2 + 1)]
    assert half_sizes(random_spec(n, model, seed=5)) == sizes
    # one bond off its mirror by one ulp is enough
    couplings = list(homogeneous_couplings(n).couplings)
    couplings[0] = np.nextafter(1.0, 2.0)
    assert half_sizes(ChainSpec(n, model, tuple(couplings))) == sizes


def orbit_basis(labels: np.ndarray, orbits: tuple) -> np.ndarray:
    """The orbit vectors of one half as the columns of a len(labels) x len(half) matrix."""
    first, second, sign = orbits
    q = np.zeros((labels.size, first.size))
    cols = np.arange(first.size)
    single = first == second
    q[first, cols] = np.where(single, 1.0, np.sqrt(0.5))
    q[second[~single], cols[~single]] = sign * np.sqrt(0.5)
    return q


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(2, 9))
def test_halves_are_the_blocks_of_the_orbit_basis(n, model):
    # the orbit vectors are orthonormal, H has no entry between the halves, each fold is
    # the block of its two halves in that basis, and Z has no entry within a half under G
    # (it flips popcount) and none between the halves under R (it keeps it)
    spec = engineered_couplings(n, model=model)
    ends = DeviationState(n, ((1.0, ((1, "Z"),)), (0.5, ((n, "X"),))))
    state = MIXED_STATES[0](n) if n >= 3 else ends
    flips = model == "dq" and n % 2 == 0
    for labels in conserved_sectors(spec):
        h = build_hamiltonian(spec, labels).real
        rho = deviation_to_dense(state, labels)
        z = np.diag(n - 2.0 * popcount(labels, n))
        halves = mqc._reflection_halves(labels, mqc._mirror_image(spec, labels))
        bases = [orbit_basis(labels, orbits) for orbits in halves]
        for rows, left in zip(halves, bases):
            for cols, right in zip(halves, bases):
                for x in (h, rho, z):
                    np.testing.assert_allclose(mqc._fold(x, rows, cols), left.T @ x @ right,
                                               atol=1e-15)
        q = np.hstack(bases)
        np.testing.assert_allclose(q.T @ q, np.eye(labels.size), atol=1e-15)
        if len(bases) == 2:
            even, odd = bases
            assert np.max(np.abs(even.T @ h @ odd)) <= 1e-15
            for left, right in ((even, even), (odd, odd)) if flips else ((even, odd),):
                assert np.max(np.abs(left.T @ z @ right)) <= 1e-15


def test_a_sector_that_is_one_half_is_its_own_block():
    # the identity mirror: every label is fixed, and (x + x) / 2 folds to x bit for bit
    spec = random_spec(6, "dq", seed=1)
    labels = conserved_sectors(spec)[3]
    assert np.array_equal(mqc._mirror_image(spec, labels), labels)
    [half] = mqc._reflection_halves(labels, labels)
    h = build_hamiltonian(spec, labels).real
    folded = mqc._fold(h, half, half)
    assert np.array_equal(folded, h)
    for got, want in zip(np.linalg.eigh(folded), np.linalg.eigh(h)):
        assert np.array_equal(got, want)


@given(
    st.integers(2, 9),
    st.sampled_from(MODELS),
    st.sampled_from(sorted(MIRRORED)),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=2),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_grid_matches_literal_cycle_on_mirror_symmetric_chains(n, model, family, times, data):
    # strings, their mirror images with other weights, and Z_1 and X_1: terms of both R
    # parities and both flip parities, so every half sees an R-odd part it must drop
    strings = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=3,
                                 unique=True), label="strings")
    terms = [(data.draw(WEIGHTS, label="weight"), parse_string_label(x)) for x in strings]
    mirrored = DeviationState.from_terms(n, terms).reflected().terms if terms else ()
    terms += [(data.draw(WEIGHTS, label="mirror weight"), string) for _, string in mirrored]
    terms += [(1.0, ((1, "Z"),)), (0.5, ((1, "X"),))]
    state = DeviationState.from_terms(n, terms)
    rho = deviation_to_dense(state)
    reverse = reversal_permutation(n)
    rho_r = rho[np.ix_(reverse, reverse)]
    assume(np.any(rho_r != rho) and np.any(rho_r != -rho))
    assume(len(mqc._flip_parts(state)) == 2)
    spec = MIRRORED[family](n, model=model)
    intensities = mqc_phase_cycled_grid(spec, state, times, 7, 3)
    scale = max(1.0, max(abs(w) for w, _ in state.terms))
    for row, t in zip(intensities, times):
        ref = mqc_phase_cycled(spec, state, t, 7, 3)
        assert np.max(np.abs(row - ref)) <= 1e-12 * scale


def loop_popcount(labels: np.ndarray, n: int) -> np.ndarray:
    """The per-bit loop that ``popcount`` replaced."""
    count = np.zeros(labels.shape, dtype=np.int64)
    for bit in range(n):
        count += (labels >> bit) & 1
    return count


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20), st.integers(0, 64))
@example([-1, -(2**63), 2**63 - 1], 64)  # every bit, the sign bit alone, all but the sign bit
@example([-1, -(2**63), 2**63 - 1], 63)
@settings(max_examples=200, deadline=None)
def test_popcount_equals_the_per_bit_loop(labels, n):
    labels = np.array(labels, dtype=np.int64)
    got = popcount(labels, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop_popcount(labels, n))


def test_grid_engine_holds_no_dense_operator():
    # one 2^10 x 2^10 complex matrix is 16 MiB; the sectors of n = 10 are at most 252 wide
    n, dense_bytes = 10, 16 * 4**10
    spec = homogeneous_couplings(n, model="dq")
    state = prepare_state(n, "z_ends")
    tracemalloc.start()
    try:
        mqc_phase_cycled_grid(spec, state, np.linspace(0.0, 5.0, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


TIMES = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=3)


def test_grid_engine_batches_its_times_within_a_bound():
    # one batch of all 256 times would stack 256 copies of a 126 x 126 complex half,
    # 62 MiB per array; the batches keep the whole call under half a dense matrix
    n, dense_bytes = 10, 16 * 4**10
    spec = homogeneous_couplings(n, model="dq")
    state = prepare_state(n, "z_ends")
    tracemalloc.start()
    try:
        mqc_phase_cycled_grid(spec, state, np.linspace(0.0, 5.0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes // 2


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
    intensities = mqc_phase_cycled_grid(spec, state, times, phase_steps, max_order)
    assert intensities.shape == (len(times), 2 * max_order + 1)
    for row, t in zip(intensities, times):
        ref = mqc_phase_cycled(spec, state, t, phase_steps, max_order)
        assert ref.shape == (2 * max_order + 1,)
        assert np.max(np.abs(row - ref)) <= 1e-12


# states whose terms have both flip signs (F P F = (-1)^(#Y + #Z) P for F = X^n), so
# sector k is evolved once per sign
MIXED_STATES = [
    lambda n: DeviationState(n, ((1.0, ((1, "Z"),)), (0.7, ((2, "X"),)),
                                 (0.3, ((1, "X"), (3, "Y"))))),
    lambda n: DeviationState(n, ((1.0, ((2, "Y"),)), (-0.4j, ((1, "X"), (n, "X"))),
                                 (0.2, ((n, "Z"),)))),
]
MIXED_IDS = ["z1-x2-x1y3", "y2-x1xn-zn"]


@pytest.mark.parametrize(
    "state, signs",
    [(prepare_state(6, kind), {1} if kind == "x_logical" else {-1}) for kind in PREPARED_KINDS]
    + [(make(6), {-1, 1}) for make in MIXED_STATES],
    ids=[*PREPARED_KINDS, *MIXED_IDS],
)
def test_flip_parts_split_the_state_by_its_parity_under_x_on_every_site(state, signs):
    n = state.n
    flip = pauli_string_to_dense(n, "X" * n)
    parts = mqc._flip_parts(state)
    assert set(parts) == signs
    for sign, part in parts.items():
        rho = deviation_to_dense(part)
        assert np.any(rho)
        assert np.array_equal(flip @ rho @ flip, sign * rho)
    by_string = sorted((term for part in parts.values() for term in part.terms),
                       key=lambda term: term[1])
    assert by_string == sorted(state.terms, key=lambda term: term[1])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("make", MIXED_STATES, ids=MIXED_IDS)
def test_grid_matches_literal_cycle_for_states_of_mixed_flip_parity(make, n, model):
    # even n has a self-mirrored middle sector, odd n has none
    spec = random_spec(n, model, seed=n)
    state = make(n)
    assert len(mqc._flip_parts(state)) == 2
    times = (0.0, 0.9, -2.3)
    intensities = mqc_phase_cycled_grid(spec, state, times, 9, 4)
    for row, t in zip(intensities, times):
        ref = mqc_phase_cycled(spec, state, t, 9, 4)
        assert np.max(np.abs(row - ref)) <= 1e-12


# every prepared kind, and Hermitian states beyond them: Z_1 + 0.7 X_2 has a G-even and
# a G-odd part, X_1 Y_2 - Y_{n-1} X_n is G-even like x_logical, and the last one is G-odd
# like the other prepared kinds but has terms of both flip parities
PALINDROME_STATES = {
    **{kind: partial(prepare_state, kind=kind) for kind in PREPARED_KINDS},
    "z1+0.7x2": lambda n: DeviationState(n, ((1.0, ((1, "Z"),)), (0.7, ((2, "X"),)))),
    "x1y2-y(n-1)xn": lambda n: DeviationState(
        n, ((1.0, ((1, "X"), (2, "Y"))), (-1.0, ((n - 1, "Y"), (n, "X"))))),
    "z1+zn+0.3(x1-xn)": lambda n: DeviationState(
        n, ((1.0, ((1, "Z"),)), (1.0, ((n, "Z"),)), (0.3, ((1, "X"),)), (-0.3, ((n, "X"),)))),
}


@given(
    st.sampled_from([4, 6, 8]),
    st.sampled_from(sorted(PALINDROME_STATES)),
    TIMES,
    st.integers(5, 32),
    st.integers(0, 4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_grid_matches_literal_cycle_on_palindromic_even_dq_chains(
    n, name, times, phase_steps, max_order, data
):
    # n / 2 drawn bonds mirrored into n - 1 couplings: every sector splits by G = F R
    assume(phase_steps > 2 * max_order)
    bonds = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n // 2, max_size=n // 2),
                      label="bonds")
    spec = ChainSpec(n, "dq", tuple(bonds + bonds[-2::-1]))
    state = PALINDROME_STATES[name](n)
    intensities = mqc_phase_cycled_grid(spec, state, times, phase_steps, max_order)
    for row, t in zip(intensities, times):
        ref = mqc_phase_cycled(spec, state, t, phase_steps, max_order)
        assert np.max(np.abs(row - ref)) <= 1e-12


@pytest.mark.parametrize(
    "name, parity",
    [("z_ends", -1), ("y_logical", -1), ("x_logical", 1), ("full_z", -1),
     ("z1+0.7x2", 0), ("x1y2-y(n-1)xn", 1), ("z1+zn+0.3(x1-xn)", -1)],
)
def test_g_parity_matches_the_dense_mirror(name, parity):
    # G = F R as a permutation of the labels, x -> (2^n - 1) ^ bitreverse(x), no phases
    n = 6
    state = PALINDROME_STATES[name](n)
    assert mqc._g_parity(state) == parity
    g = (2**n - 1) ^ reversal_permutation(n)
    rho = deviation_to_dense(state)
    mirrored = rho[np.ix_(g, g)]
    for sign in (1, -1):
        assert np.array_equal(mirrored, sign * rho) == (parity == sign)


def sector_halves(spec: ChainSpec, labels: np.ndarray, image: np.ndarray) -> list[tuple]:
    """The halves of one sector under the mirror with ``image``, as ``_mirror_pairs`` gives them."""
    h = build_hamiltonian(spec, labels).real
    return [(orbits, np.linalg.eigh(mqc._fold(h, orbits, orbits)))
            for orbits in mqc._reflection_halves(labels, image)]


@given(st.sampled_from(["xx", "dq"]), st.integers(2, 9), TIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_mirror_halves_give_the_moments_of_the_whole_sector(model, n, times, data):
    # n // 2 drawn bonds mirrored into n - 1 couplings: R splits xx and odd-n dq, G even-n
    # dq. Strings, their mirror images with other weights, and Z_1 and X_1 give terms of
    # both flip, R and G parities; the state is also taken with real weights, and split
    # into its G-even and G-odd parts (G P G = (-1)^(#Y + #Z) R(P)). Each sector's moments
    # from its halves must equal those of the identity mirror's one half, the whole
    # sector, in the units of J (the engine divides the moments by 2^n)
    bonds = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n // 2, max_size=n // 2),
                      label="bonds")
    spec = ChainSpec(n, model, tuple(bonds + bonds[::-1][1 - n % 2:]))
    strings = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=3,
                                 unique=True), label="strings")
    terms = [(data.draw(WEIGHTS, label="weight"), parse_string_label(x)) for x in strings]
    mirrored = DeviationState.from_terms(n, terms).reflected().terms if terms else ()
    terms += [(data.draw(WEIGHTS, label="mirror weight"), string) for _, string in mirrored]
    terms += [(1.0, ((1, "Z"),)), (0.5, ((1, "X"),))]
    state = DeviationState.from_terms(n, terms)
    image = [((-1) ** sum(letter != "X" for _, letter in string) * weight, string)
             for weight, string in state.reflected().terms]
    states = [state, DeviationState.from_terms(n, [(w.real, x) for w, x in state.terms])]
    states += [DeviationState.from_terms(n, [*state.terms, *((g * w, x) for w, x in image)])
               for g in (1, -1)]
    assert [mqc._g_parity(part) for part in states[2:]] == [1, -1]
    scale = max(abs(w) for part in states for w, _ in part.terms)
    for labels in conserved_sectors(spec):
        halves = sector_halves(spec, labels, mqc._mirror_image(spec, labels))
        split = mqc._sector_moments(n, labels, halves, states, np.array(times))
        whole = mqc._sector_moments(n, labels, sector_halves(spec, labels, labels), states,
                                    np.array(times))
        assert np.max(np.abs(split - whole)) / 2**n <= 1e-12 * scale


@given(
    st.integers(5, 8),
    st.sampled_from(MODELS),
    st.integers(0, 2**32 - 1),
    TIMES,
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_grid_matches_literal_cycle_for_random_states(n, model, seed, times, data):
    # either flip parity or a mix of both: one part or two
    strings = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1,
                                 max_size=4, unique=True), label="strings")
    terms = tuple((data.draw(WEIGHTS, label="weight"), parse_string_label(x)) for x in strings)
    spec = random_spec(n, model, seed)
    state = DeviationState(n, terms)
    intensities = mqc_phase_cycled_grid(spec, state, times, 7, 3)
    # weights reach 1e3 in size; the bound scales with them
    scale = max(1.0, max(abs(w) for w, _ in terms))
    for row, t in zip(intensities, times):
        ref = mqc_phase_cycled(spec, state, t, 7, 3)
        assert np.max(np.abs(row - ref)) <= 1e-12 * scale


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
    for row, t in zip(aliased, times):
        ref = mqc_phase_cycled(spec, state, t, phase_steps, max_order)
        assert np.max(np.abs(row - ref)) <= 1e-12
    assert np.max(np.abs(aliased - resolved)) > 1e-6


def test_empty_grid_gives_empty_result(monkeypatch):
    spec = random_spec(5, "dq", seed=0)
    # an empty grid does no sector work
    monkeypatch.setattr(mqc, "_mirror_pairs", None)
    monkeypatch.setattr(mqc, "_sector_moments", None)
    for max_order in (0, 2):
        got = mqc_phase_cycled_grid(spec, prepare_state(5, "z_ends"), [], 8, max_order)
        assert got.shape == (0, 2 * max_order + 1)


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
