"""Batched time-grid engine, block CSV writer and the input contract.

``propagate_grid`` is the one evaluation path behind every CLI table, so
its validated range (n = 2..60, |t| <= 50, random couplings and row
subsets) is pinned here against the single-time ``propagate`` and
against ``scipy.linalg.expm``. The closed forms stay as independent
references for the channel correlations it feeds.

The entry-point tables at the end hold every public function that takes
a chain length, a site, a time, a real, an integer or a named choice to
the one rule of that input kind in ``spinwire.chain``; a last test reads
the signatures in every module's ``__all__``, ``spinwire.oracle``
included, and fails if a function is missing from the table of one of
its arguments.
"""

import ast
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinwire
from spinwire import chain, errors, logical, mqc, oracle, pauli, propagator, verify
from spinwire.chain import (
    ChainSpec,
    dipolar_couplings,
    engineered_couplings,
    homogeneous_couplings,
    implant_spacings,
    normalized_time,
    perturb_couplings,
    random_couplings,
)
from spinwire.cli import _csv_blocks
from spinwire.errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    SpinwireError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)
from spinwire.logical import (
    CHANNELS,
    channel_correlations,
    dq_parity_correction,
    entanglement_fidelity,
    logical_basis,
    logical_correlation_from_spec,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from spinwire.mqc import (
    mqc_analytic,
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_propagator_grid,
    prepare_state,
)
from spinwire.oracle import (
    basis_index,
    build_hamiltonian,
    collective_rotation_diag,
    deviation_to_dense,
    evolve_deviation,
    evolve_unitary,
    excitation_operator,
    pauli_string_to_dense,
    popcount,
    require_within_budget,
    similarity_residual,
    similarity_transform,
    staggered_z,
    total_z,
    trace_overlap,
)
from spinwire.pauli import DeviationState
from spinwire.propagator import (
    _TIME_BLOCK,
    end_autocorrelation_grid,
    engineered_frequencies,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    slater_amplitude,
    spectral_decompose,
)
from spinwire.verify import run_verification
from support import MQC_SERIES

TIMES = st.lists(st.floats(-50, 50, allow_nan=False), max_size=4)


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), TIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_grid_matches_single_time_propagator(n, seed, times, data):
    couplings = random_couplings(np.random.default_rng(seed), n)
    dec = spectral_decompose(ChainSpec(n, "xx", couplings))
    rows = data.draw(st.lists(st.integers(1, n), max_size=4), label="rows")
    cols = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="cols")
    block = propagate_grid(dec, times, rows, cols)
    assert block.shape == (len(times), len(rows), len(cols))
    full = propagate_grid(dec, times)
    m = np.diag(couplings, 1) + np.diag(couplings, -1)
    r, c = np.array(rows, dtype=int) - 1, np.array(cols) - 1
    for k, t in enumerate(times):
        single = propagate(dec, t)
        assert np.max(np.abs(block[k] - single[np.ix_(r, c)]), initial=0.0) <= 1e-13
        assert np.max(np.abs(full[k] - expm(-1j * m * t))) <= 1e-12


@pytest.mark.parametrize("rows", [None, (1,), (3, 1, 3)])
def test_empty_grid_has_zero_leading_axis(rows):
    dec = spectral_decompose(engineered_couplings(5))
    block = propagate_grid(dec, [], rows)
    width = 5 if rows is None else len(rows)
    assert block.shape == (0, width, 5)


def test_grid_longer_than_one_time_block_matches_single_times():
    dec = spectral_decompose(ChainSpec(9, "xx", random_couplings(np.random.default_rng(5), 9)))
    times = np.linspace(-40.0, 40.0, 2 * _TIME_BLOCK + 3)
    block = propagate_grid(dec, times, (1, 9), (2, 9))
    single = [propagate_grid(dec, [t], (1, 9), (2, 9))[0] for t in times]
    assert np.array_equal(block, single)


def test_grid_is_exact_at_time_zero():
    dec = spectral_decompose(homogeneous_couplings(30))
    assert np.array_equal(propagate_grid(dec, [0.0])[0], np.eye(30))


@pytest.mark.parametrize(
    "times, rows",
    [
        ([0.0, np.nan], None),
        ([np.inf], None),
        ([-np.inf, 1.0], (1,)),
        ([[0.0, 1.0]], None),
        (["soon"], None),
        ([1.0], (0,)),
        ([1.0], (1, 7)),
        ([1.0], (1.5,)),
        ([], (9,)),
        (np.zeros((1, 2)), None),
        (np.array(0.5), None),
    ],
)
def test_grid_rejects_bad_times_and_rows(times, rows):
    dec = spectral_decompose(engineered_couplings(6))
    with pytest.raises(SpinwireError):
        propagate_grid(dec, times, rows)


@pytest.mark.parametrize("n", [20, 21, 200])
def test_engineered_grid_channels_match_closed_forms(n):
    times = np.linspace(0.0, n * np.pi / 2, 41)
    vals = channel_correlations(
        propagate_grid(spectral_decompose(engineered_couplings(n)), times, (1, 2))
    )
    for alpha in CHANNELS:
        want = [logical_transport_engineered(n, 1.0, alpha, t) for t in times]
        assert np.max(np.abs(vals[alpha] - want)) <= 1e-12, alpha


@pytest.mark.parametrize("n", [10, 200])
def test_homogeneous_grid_channels_match_closed_forms(n):
    times = np.linspace(0.0, 16.0, 41)
    vals = channel_correlations(
        propagate_grid(spectral_decompose(homogeneous_couplings(n, 0.8)), times, (1, 2))
    )
    for alpha in CHANNELS:
        want = [logical_transport_homogeneous(n, 0.8, alpha, t) for t in times]
        assert np.max(np.abs(vals[alpha] - want)) <= 1e-12, alpha


def _per_cell_csv(header, rows):
    """The writer the block writer replaced: one ``format`` call per cell."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(x) + 0.0, ".15g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -3.0]),
    st.integers(-(2**60), 2**60).map(float),
)


@given(st.integers(1, 5), st.lists(FINITE, max_size=60), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_block_writer_matches_per_cell_format(width, values, block_rows):
    header = [f"c{k}" for k in range(width)]
    rows = np.array(values[: len(values) // width * width]).reshape(-1, width)
    text = "".join(_csv_blocks(header, rows[:, :1], rows[:, 1:], block_rows=block_rows))
    assert text == _per_cell_csv(header, rows)


@given(st.integers(0, 5), st.integers(1, 5), st.integers(1, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_site_keyed_writer_matches_per_cell_format(steps, width, block_rows, data):
    def draw(size, label):
        return np.array(data.draw(st.lists(FINITE, min_size=size, max_size=size), label=label))

    keys = draw(2 * steps, "t, tau").reshape(steps, 2)
    sites = draw(width, "sites")
    values = draw(steps * width, "values").reshape(steps, width)
    header = ["t", "tau", "site", "correlation"]
    rows = np.column_stack([
        np.repeat(keys[:, 0], width),
        np.repeat(keys[:, 1], width),
        np.tile(sites, steps),
        values.ravel(),
    ])
    text = "".join(_csv_blocks(header, keys, values, sites, block_rows))
    assert text == _per_cell_csv(header, rows)


@given(
    st.sampled_from(("z_ends", "y_logical")),
    st.sampled_from(("xx", "dq")),
    st.integers(0, 2**32 - 1),
    TIMES,
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_autocorrelation_grid_equals_single_time_calls(kind, model, seed, times, data):
    n = data.draw(st.integers(2 if kind == "z_ends" else 4, 30), label="n")
    couplings = tuple(np.random.default_rng(seed).uniform(-1.5, 1.5, n - 1))
    spec = ChainSpec(n, model, couplings)
    curve = end_autocorrelation_grid(spec, kind, times)
    single = [end_autocorrelation_grid(spec, kind, [t])[0] for t in times]
    assert curve.shape == (len(times),)
    assert np.array_equal(curve, single)


# 1e308 is finite, but its phases w t lie far past 2^32 rad or overflow;
# the x_logical series forms no phase, and holds times to the y_logical range
BAD_TIMES = ("a", None, float("nan"), float("inf"), 1e308, "0.5", True, 10**400,
             np.complex128(1 + 1j))
TIME_ENTRY_POINTS = {
    "propagate": lambda t: propagate(spectral_decompose(homogeneous_couplings(4)), t),
    "logical_correlation_from_spec": lambda t: logical_correlation_from_spec(
        homogeneous_couplings(6), "x", t
    ),
    "entanglement_fidelity": lambda t: entanglement_fidelity(6, 1.0, "homogeneous", t),
    "propagate_grid": lambda t: propagate_grid(spectral_decompose(homogeneous_couplings(4)), [t]),
    "end_autocorrelation_grid": lambda t: end_autocorrelation_grid(
        homogeneous_couplings(4), "z_ends", [0.0, t]
    ),
    "homogeneous_amplitude": lambda t: homogeneous_amplitude(4, 1.0, 1, 4, t),
    **{label: lambda t, kind=kind: mqc_analytic(4, 1.0, kind, t)
       for label, kind in MQC_SERIES.items()},
    "mqc_analytic": lambda t: mqc_analytic(4, 1.0, "z_ends", t),
    "mqc_phase_cycled": lambda t: mqc_phase_cycled(
        homogeneous_couplings(4, model="dq"), prepare_state(4, "z_ends"), t
    ),
    "mqc_phase_cycled_grid": lambda t: mqc_phase_cycled_grid(
        homogeneous_couplings(4, model="dq"), prepare_state(4, "z_ends"), [t]
    ),
    "mqc_propagator_grid": lambda t: mqc_propagator_grid(
        homogeneous_couplings(4, model="dq"), "z_ends", [0.0, t]
    ),
    "normalized_time": lambda t: normalized_time(4, 1.0, t),
    "normalized_time[grid]": lambda t: normalized_time(4, 1.0, [0.0, t]),
    "logical_transport_homogeneous": lambda t: logical_transport_homogeneous(6, 1.0, "x", t),
    "logical_transport_engineered": lambda t: logical_transport_engineered(6, 1.0, "x", t),
    "evolve_unitary": lambda t: evolve_unitary(np.eye(2), t),
    "evolve_deviation": lambda t: evolve_deviation(np.eye(2), np.eye(2), t),
}


@pytest.mark.parametrize("t", BAD_TIMES, ids=repr)
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_entry_points_reject_bad_times(entry, t):
    # warnings are errors (pyproject.toml), so a phase that warns fails here too
    with pytest.raises(InvalidParameterError):
        TIME_ENTRY_POINTS[entry](t)


def test_phase_bound_is_two_to_the_32_rad():
    # normalized_time holds t to the rate 2 d = 1: a phase of 2^32 rad runs, the next float not
    assert normalized_time(4, 0.5, 2.0**32) == 2.0**30
    with pytest.raises(InvalidParameterError, match="time out of range"):
        normalized_time(4, 0.5, np.nextafter(2.0**32, np.inf))


# a float, a bool, a missing value, a string, and a numpy float of a valid size
BAD_LENGTHS = (2.5, 4.5, True, None, "a", np.float64(6.0))
LENGTH_ENTRY_POINTS = {
    "ChainSpec": lambda n: ChainSpec(n, "xx", ()),
    "homogeneous_couplings": homogeneous_couplings,
    "engineered_couplings": engineered_couplings,
    "implant_spacings": implant_spacings,
    "random_couplings": lambda n: random_couplings(np.random.default_rng(0), n),
    "normalized_time": lambda n: normalized_time(n, 1.0, 0.5),
    "homogeneous_amplitude": lambda n: homogeneous_amplitude(n, 1.0, 1, 1, 0.5),
    "engineered_frequencies": lambda n: engineered_frequencies(n, 1.0),
    "logical_basis": lambda n: logical_basis("xx", n),
    "dq_parity_correction": dq_parity_correction,
    "logical_transport_homogeneous": lambda n: logical_transport_homogeneous(n, 1.0, "x", 0.5),
    "logical_transport_engineered": lambda n: logical_transport_engineered(n, 1.0, "x", 0.5),
    "entanglement_fidelity": lambda n: entanglement_fidelity(n, 1.0, "engineered", 0.5),
    "prepare_state": lambda n: prepare_state(n, "z_ends"),
    **{label: lambda n, kind=kind: mqc_analytic(n, 1.0, kind, 0.5)
       for label, kind in MQC_SERIES.items()},
    "mqc_analytic": lambda n: mqc_analytic(n, 1.0, "z_ends", 0.5),
    "require_within_budget": require_within_budget,
    "pauli_string_to_dense": lambda n: pauli_string_to_dense(n, ()),
    "excitation_operator": lambda n: excitation_operator(n, {}),
    "basis_index": lambda n: basis_index(n, ()),
    "total_z": total_z,
    "staggered_z": staggered_z,
    "collective_rotation_diag": lambda n: collective_rotation_diag(n, 0.5),
    "similarity_transform": similarity_transform,
    "popcount": lambda n: popcount(np.arange(8), n),
    "DeviationState": lambda n: DeviationState(n, ()),
    "DeviationState.from_terms": lambda n: DeviationState.from_terms(n, ()),
    "run_verification": lambda n: run_verification(max_n=n),
}


@pytest.mark.parametrize("n", BAD_LENGTHS, ids=repr)
@pytest.mark.parametrize("entry", sorted(LENGTH_ENTRY_POINTS))
def test_length_entry_points_reject_non_integer_lengths(entry, n):
    with pytest.raises(InvalidDimensionError):
        LENGTH_ENTRY_POINTS[entry](n)


# strings, bools, complex, missing, non-finite, non-positive and past the float range
BAD_SCALES = ("1", "abc", True, np.True_, None, 1 + 0j, float("nan"), float("inf"), 0.0, -1.0,
              10**400)
SCALE_ENTRY_POINTS = {
    "homogeneous_couplings": lambda d: homogeneous_couplings(4, d),
    "engineered_couplings": lambda d: engineered_couplings(4, d),
    "normalized_time": lambda d: normalized_time(4, d, 0.5),
    "homogeneous_amplitude": lambda d: homogeneous_amplitude(4, d, 1, 4, 0.5),
    "engineered_frequencies": lambda d: engineered_frequencies(4, d),
    "logical_transport_homogeneous": lambda d: logical_transport_homogeneous(6, d, "x", 0.5),
    "logical_transport_engineered": lambda d: logical_transport_engineered(6, d, "x", 0.5),
    "entanglement_fidelity": lambda d: entanglement_fidelity(6, d, "engineered", 0.5),
    **{label: lambda d, kind=kind: mqc_analytic(4, d, kind, 0.5)
       for label, kind in MQC_SERIES.items()},
    "mqc_analytic": lambda d: mqc_analytic(4, d, "z_ends", 0.5),
}


@pytest.mark.parametrize("d", BAD_SCALES, ids=repr)
@pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
def test_scale_entry_points_reject_non_real_scales(entry, d):
    with pytest.raises(InvalidParameterError):
        SCALE_ENTRY_POINTS[entry](d)


@pytest.mark.parametrize("d", (np.float64(0.8), np.float32(0.5), np.int64(2), 2), ids=repr)
@pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
def test_scale_entry_points_accept_real_numbers(entry, d):
    got, want = SCALE_ENTRY_POINTS[entry](d), SCALE_ENTRY_POINTS[entry](float(d))
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


SITE_N = 4
SITE_DEC = spectral_decompose(homogeneous_couplings(SITE_N))
SITE_PROP = propagate(SITE_DEC, 0.7)
SITE_ENTRY_POINTS = {
    "homogeneous_amplitude": lambda j: homogeneous_amplitude(SITE_N, 1.0, 1, j, 0.7),
    "polarization_from_propagator": lambda j: polarization_from_propagator(SITE_PROP, 1, j, "dq"),
    "from_propagator[j]": lambda j: polarization_from_propagator(SITE_PROP, j, 1),
    "propagate_grid[rows]": lambda j: propagate_grid(SITE_DEC, [0.7], (j,)),
    "propagate_grid[cols]": lambda j: propagate_grid(SITE_DEC, [0.7], None, (1, j)),
    "slater_amplitude": lambda j: slater_amplitude(SITE_PROP, (1,), (j,)),
    "mixed_state_overlap": lambda j: mixed_state_overlap(SITE_PROP, {((j,), (1,)): 1.0}, {}),
    "basis_index": lambda j: basis_index(SITE_N, (j,)),
    "excitation_operator": lambda j: excitation_operator(SITE_N, {((1,), (j,)): 1.0}),
    "DeviationState": lambda j: DeviationState(SITE_N, ((1.0, ((j, "Z"),)),)),
    "pauli_string_to_dense": lambda j: pauli_string_to_dense(SITE_N, ((j, "X"),)),
}


@pytest.mark.parametrize("entry", sorted(SITE_ENTRY_POINTS))
def test_site_entry_points_accept_numpy_integers(entry):
    got, want = SITE_ENTRY_POINTS[entry](np.int64(2)), SITE_ENTRY_POINTS[entry](2)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


@pytest.mark.parametrize("j", (1.5, True, "a"), ids=repr)
@pytest.mark.parametrize("entry", sorted(SITE_ENTRY_POINTS))
def test_site_entry_points_reject_non_integer_sites(entry, j):
    with pytest.raises(InvalidConfigurationError):
        SITE_ENTRY_POINTS[entry](j)


@pytest.mark.parametrize("j", (0, SITE_N + 1))
@pytest.mark.parametrize("entry", sorted(SITE_ENTRY_POINTS))
def test_site_entry_points_reject_sites_outside_the_chain(entry, j):
    with pytest.raises(IndexOutOfRangeError):
        SITE_ENTRY_POINTS[entry](j)


# sites that are not a sequence at all
SITE_TUPLE_ENTRY_POINTS = {
    "slater_amplitude[sources]": lambda sites: slater_amplitude(SITE_PROP, sites, (1,)),
    "slater_amplitude[targets]": lambda sites: slater_amplitude(SITE_PROP, (1,), sites),
    "mixed_state_overlap": lambda sites: mixed_state_overlap(SITE_PROP, {(sites, (1,)): 1.0}, {}),
    "mixed_state_overlap[key]": lambda sites: mixed_state_overlap(SITE_PROP, {}, {sites: 1.0}),
    "DeviationState.from_terms": lambda sites: DeviationState.from_terms(SITE_N, [(1.0, sites)]),
    "basis_index": lambda sites: basis_index(SITE_N, sites),
    "excitation_operator": lambda sites: excitation_operator(SITE_N, {((1,), sites): 1.0}),
    "propagate_grid[rows]": lambda sites: propagate_grid(SITE_DEC, [0.7], sites),
    "propagate_grid[cols]": lambda sites: propagate_grid(SITE_DEC, [0.7], None, sites),
    "pauli_string_to_dense": lambda sites: pauli_string_to_dense(SITE_N, sites),
}


@pytest.mark.parametrize("sites", (1, np.int64(2), 1.5), ids=repr)
@pytest.mark.parametrize("entry", sorted(SITE_TUPLE_ENTRY_POINTS))
def test_site_tuple_entry_points_reject_non_sequences(entry, sites):
    with pytest.raises(InvalidConfigurationError):
        SITE_TUPLE_ENTRY_POINTS[entry](sites)


# strings, bools, missing, complex, non-finite and past the float range
BAD_REALS = ("1", True, np.True_, None, 1 + 0j, float("nan"), float("inf"), 10**400)
REAL_SPEC = homogeneous_couplings(4)
REAL_ENTRY_POINTS = {
    "ChainSpec": lambda x: ChainSpec(3, "xx", (1.0, x)),
    "dipolar_couplings[positions]": lambda x: dipolar_couplings([0.0, 1.0, x]),
    "dipolar_couplings[prefactor]": lambda x: dipolar_couplings([0.0, 1.0, 3.0], prefactor=x),
    "implant_spacings": lambda x: implant_spacings(4, x),
    "perturb_couplings": lambda x: perturb_couplings(REAL_SPEC, x, 0),
    "run_verification": lambda x: run_verification(4, tolerance=x),
    "collective_rotation_diag": lambda x: collective_rotation_diag(4, x),
}


# tolerance=None is run_verification's default, no override
@pytest.mark.parametrize(
    "entry, x",
    [(e, x) for e in sorted(REAL_ENTRY_POINTS) for x in BAD_REALS
     if not (e == "run_verification" and x is None)],
    ids=repr,
)
def test_real_entry_points_reject_non_reals(entry, x):
    with pytest.raises(InvalidParameterError):
        REAL_ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("x", (2, np.int64(2), np.float64(2.5), np.float32(2.5)), ids=repr)
@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_real_entry_points_accept_real_numbers(entry, x):
    got, want = REAL_ENTRY_POINTS[entry](x), REAL_ENTRY_POINTS[entry](float(x))
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


# a float, bools, missing, a string, a numpy float of a valid size, and below the minimum
BAD_INTS = (1.5, True, np.True_, None, "7", np.float64(7.0), -1)
INT_SPEC = homogeneous_couplings(4, model="dq")
INT_STATE = prepare_state(4, "z_ends")
INT_ENTRY_POINTS = {
    "perturb_couplings": lambda k: perturb_couplings(REAL_SPEC, 0.1, k),
    "run_verification": lambda k: run_verification(4, seed=k),
    "mqc_phase_cycled[phase_steps]": lambda k: mqc_phase_cycled(INT_SPEC, INT_STATE, 0.5, k),
    "mqc_phase_cycled[max_order]": lambda k: mqc_phase_cycled(INT_SPEC, INT_STATE, 0.5, 16, k),
    "mqc_phase_cycled_grid[phase_steps]": lambda k: mqc_phase_cycled_grid(
        INT_SPEC, INT_STATE, [0.5], k
    ),
    "mqc_phase_cycled_grid[max_order]": lambda k: mqc_phase_cycled_grid(
        INT_SPEC, INT_STATE, [0.5], 16, k
    ),
}


@pytest.mark.parametrize("k", BAD_INTS, ids=repr)
@pytest.mark.parametrize("entry", sorted(INT_ENTRY_POINTS))
def test_int_entry_points_reject_non_integers(entry, k):
    # a negative phase_steps cannot resolve order 0: AliasingError, an InvalidParameterError
    with pytest.raises(InvalidParameterError):
        INT_ENTRY_POINTS[entry](k)


@pytest.mark.parametrize("k", (np.int64(7), np.int32(7), np.uint8(7)), ids=repr)
@pytest.mark.parametrize("entry", sorted(INT_ENTRY_POINTS))
def test_int_entry_points_accept_numpy_integers(entry, k):
    assert np.array_equal(INT_ENTRY_POINTS[entry](k), INT_ENTRY_POINTS[entry](7))


# "dipolar" names a coupling family, not a chain model
BAD_CHOICES = ("bogus", "", None, 1, ["xx"], b"xx", "dipolar")
CHOICE_PROP = propagate(SITE_DEC, 0.7)
CHOICE_ENTRY_POINTS = {
    "ChainSpec": (lambda c: ChainSpec(3, c, (1.0, 1.0)), UnsupportedModelError),
    "homogeneous_couplings": (lambda c: homogeneous_couplings(4, 1.0, c), UnsupportedModelError),
    "engineered_couplings": (lambda c: engineered_couplings(4, 1.0, c), UnsupportedModelError),
    "dipolar_couplings": (lambda c: dipolar_couplings([0.0, 1.0, 2.0], model=c),
                          UnsupportedModelError),
    "polarization_from_propagator": (
        lambda c: polarization_from_propagator(CHOICE_PROP, 1, 2, c), UnsupportedModelError
    ),
    "logical_basis[model]": (lambda c: logical_basis(c, 4), UnsupportedModelError),
    "logical_basis[pair]": (lambda c: logical_basis("xx", 4, c), InvalidConfigurationError),
    "channel_correlations": (
        lambda c: channel_correlations(CHOICE_PROP, c), UnsupportedModelError
    ),
    "entanglement_fidelity[family]": (
        lambda c: entanglement_fidelity(6, 1.0, c, 0.5), UnsupportedFamilyError
    ),
    "entanglement_fidelity[model]": (
        lambda c: entanglement_fidelity(6, 1.0, "engineered", 0.5, c), UnsupportedModelError
    ),
    "logical_correlation_from_spec": (
        lambda c: logical_correlation_from_spec(homogeneous_couplings(6), c, 0.5),
        InvalidConfigurationError,
    ),
    "logical_transport_homogeneous": (
        lambda c: logical_transport_homogeneous(6, 1.0, c, 0.5), InvalidConfigurationError
    ),
    "logical_transport_engineered": (
        lambda c: logical_transport_engineered(6, 1.0, c, 0.5), InvalidConfigurationError
    ),
    "end_autocorrelation_grid": (
        lambda c: end_autocorrelation_grid(homogeneous_couplings(4), c, [0.5]),
        InvalidConfigurationError,
    ),
    "prepare_state": (lambda c: prepare_state(4, c), InvalidConfigurationError),
    "mqc_analytic": (lambda c: mqc_analytic(4, 1.0, c, 0.5), InvalidConfigurationError),
    "mqc_propagator_grid": (
        lambda c: mqc_propagator_grid(INT_SPEC, c, [0.5]), InvalidConfigurationError
    ),
}


@pytest.mark.parametrize("c", BAD_CHOICES, ids=repr)
@pytest.mark.parametrize("entry", sorted(CHOICE_ENTRY_POINTS))
def test_choice_entry_points_reject_unknown_names(entry, c):
    call, error = CHOICE_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(c)


# floats, bools, strings, missing, ragged, mixed and too wide for 64 bits
BAD_LABELS = ([1.5], np.array([1.5]), np.array([True]), "a", None, [[1], [1, 2]], [1, "a"],
              [2**64])
LABEL_N = 3
LABEL_SPEC = homogeneous_couplings(LABEL_N)
LABEL_STATE = prepare_state(LABEL_N, "z_ends")
LABEL_ENTRY_POINTS = {
    "popcount": lambda labels: popcount(labels, LABEL_N),
    "build_hamiltonian": lambda labels: build_hamiltonian(LABEL_SPEC, labels),
    "deviation_to_dense": lambda labels: deviation_to_dense(LABEL_STATE, labels),
}
BLOCK_ENTRY_POINTS = ("build_hamiltonian", "deviation_to_dense")


# labels=None is the block builders' default, the whole operator
@pytest.mark.parametrize(
    "entry, labels",
    [(e, x) for e in sorted(LABEL_ENTRY_POINTS) for x in BAD_LABELS
     if not (e in BLOCK_ENTRY_POINTS and x is None)],
    ids=repr,
)
def test_label_entry_points_reject_non_integer_labels(entry, labels):
    with pytest.raises(InvalidConfigurationError):
        LABEL_ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
def test_label_entry_points_accept_integer_sequences(entry):
    want = LABEL_ENTRY_POINTS[entry](np.array([1, 4], dtype=np.int64))
    for labels in ([1, 4], (1, 4), np.array([1, 4], dtype=np.uint8)):
        assert np.array_equal(LABEL_ENTRY_POINTS[entry](labels), want)


# unsorted, repeated and not one-dimensional block labels
@pytest.mark.parametrize("labels", ([2, 1], [1, 1], [[0, 1]], np.array(0)), ids=repr)
@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_block_entry_points_reject_unsorted_labels(entry, labels):
    with pytest.raises(InvalidConfigurationError):
        LABEL_ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("labels", ([-1, 0], [0, 2**LABEL_N]), ids=repr)
@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_block_entry_points_reject_labels_outside_the_basis(entry, labels):
    with pytest.raises(IndexOutOfRangeError):
        LABEL_ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("n", (65, 70))
def test_popcount_rejects_more_bits_than_a_label_holds(n):
    with pytest.raises(InvalidDimensionError):
        popcount(np.array([-1]), n)


# operands that are lists, vectors, scalars, missing, empty, not square or three-dimensional,
# then 2 x 2 ones of strings, with an infinite entry and of NaN; these ndarray arguments sit
# outside the completeness test below, so each is listed here with the error it raises
BAD_OPERANDS = (
    *((op, InvalidDimensionError) for op in (
        [[1.0]], np.ones(3), 1.0, None, np.ones((0, 0)), np.ones((2, 3)), np.ones((2, 2, 2))
    )),
    *((op, InvalidParameterError) for op in (
        np.full((2, 2), "a"), np.diag([np.inf, 0.0]), np.full((2, 2), np.nan)
    )),
)
OPERAND_ENTRY_POINTS = {
    "trace_overlap[a]": lambda op: trace_overlap(op, np.eye(2)),
    "trace_overlap[b]": lambda op: trace_overlap(np.eye(2), op),
    "trace_overlap": lambda op: trace_overlap(op, op),
    "evolve_unitary": lambda op: evolve_unitary(op, 0.1),
    "evolve_deviation[h]": lambda op: evolve_deviation(op, np.eye(2), 0.1),
    "evolve_deviation[rho]": lambda op: evolve_deviation(np.eye(2), op, 0.1),
    "similarity_residual[h_xx]": lambda op: similarity_residual(op, np.eye(2)),
    "similarity_residual[h_dq]": lambda op: similarity_residual(np.eye(2), op),
    "slater_amplitude": lambda op: slater_amplitude(op, (1,), (1,)),
    "mixed_state_overlap": lambda op: mixed_state_overlap(
        op, {((1,), (1,)): 1.0}, {((2,), (2,)): 1.0}
    ),
    "polarization_from_propagator": lambda op: polarization_from_propagator(op, 1, 1),
}


@pytest.mark.parametrize("op, error", BAD_OPERANDS, ids=[repr(op) for op, _ in BAD_OPERANDS])
@pytest.mark.parametrize("entry", sorted(OPERAND_ENTRY_POINTS))
def test_operand_entry_points_reject_non_matrices(entry, op, error):
    with pytest.raises(error):
        OPERAND_ENTRY_POINTS[entry](op)


@pytest.mark.parametrize("entry", sorted(e for e in OPERAND_ENTRY_POINTS if "[" in e))
def test_operand_entry_points_reject_unequal_shapes(entry):
    # np.eye(3) against the table's np.eye(2), as in evolve_deviation(np.eye(2), np.eye(3), t)
    with pytest.raises(InvalidDimensionError):
        OPERAND_ENTRY_POINTS[entry](np.eye(3))


@pytest.mark.parametrize("entry", ("mixed_state_overlap", "polarization_from_propagator",
                                   "slater_amplitude"))
def test_amplitude_entry_points_take_a_slice_of_the_grid(entry):
    # the A(t) observables read a propagate_grid slice as they read propagate's symmetrised array
    got = OPERAND_ENTRY_POINTS[entry](propagate_grid(SITE_DEC, [0.7])[0])
    assert got == pytest.approx(OPERAND_ENTRY_POINTS[entry](SITE_PROP), abs=1e-15)


# finite operands whose result overflows, one row per entry point; the finite-result rule
# turns each into an InvalidParameterError, and the suite's warnings-as-errors filter fails a
# row that warns on the way
HUGE = np.full((2, 2), 1e308)
HUGE_MIXED = {((1,), (1,)): 1e308}
# a determinant of 1e400, and a square |A_11|^2 of 1e400 in Python float arithmetic
HUGE_UPPER = np.eye(3) * 1e200
HUGE_UPPER[0, 1] = 1e200
OVERFLOWING_OPERANDS = {
    "trace_overlap": lambda: trace_overlap(np.array([[1e308]]), np.array([[1e308]])),
    "similarity_residual": lambda: similarity_residual(HUGE, -HUGE),
    # exp(-i Y pi/4) turns the all-ones rho onto |1><1| with twice its weight
    "evolve_deviation": lambda: evolve_deviation(np.array([[0, -1j], [1j, 0]]), HUGE, np.pi / 4),
    "mixed_state_overlap": lambda: mixed_state_overlap(SITE_PROP, HUGE_MIXED, HUGE_MIXED),
    "slater_amplitude": lambda: slater_amplitude(HUGE_UPPER, (1, 2), (1, 2)),
    "polarization_from_propagator": lambda: polarization_from_propagator(
        np.eye(3) * 1e200, 1, 1
    ),
    "channel_correlations": lambda: channel_correlations(np.full((2, 4), 1e300)),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOWING_OPERANDS))
def test_overflowing_results_raise_without_warning(entry):
    with pytest.raises(InvalidParameterError, match="overflows the float range"):
        OVERFLOWING_OPERANDS[entry]()


# the table that holds each public argument, by parameter name
ROLE_TABLES = {
    **dict.fromkeys(("n", "max_n"), LENGTH_ENTRY_POINTS),
    "d": SCALE_ENTRY_POINTS,
    **dict.fromkeys(("t", "times"), TIME_ENTRY_POINTS),
    **dict.fromkeys(("j", "l", "terms"), SITE_ENTRY_POINTS),
    **dict.fromkeys(
        ("sources", "targets", "rows", "cols", "a", "b", "string", "blocks", "sites"),
        SITE_TUPLE_ENTRY_POINTS,
    ),
    **dict.fromkeys(
        ("couplings", "positions", "prefactor", "r_min", "sigma", "tolerance", "phi"),
        REAL_ENTRY_POINTS,
    ),
    **dict.fromkeys(("seed", "phase_steps", "max_order"), INT_ENTRY_POINTS),
    **dict.fromkeys(("model", "kind", "initial", "family", "alpha", "pair"), CHOICE_ENTRY_POINTS),
    "labels": LABEL_ENTRY_POINTS,
}
# objects and flags, outside the value rules (object arguments are not checked by type);
# so is any argument annotated as an ndarray operand or a prepared DeviationState
OBJECT_ARGUMENTS = ("spec", "decomposition", "amplitudes", "vals", "corrected")
OBJECT_ANNOTATIONS = ("np.ndarray", "DeviationState")
MODULES = (chain, errors, pauli, propagator, logical, mqc, verify, oracle)
RESULT_TYPES = (
    "TransferTiming", "SpectralDecomposition", "MqcSpectrum", "CheckResult",
    "VerificationReport",
)


def test_every_public_argument_is_in_the_table_of_its_role():
    missing = []
    for name, obj in ((name, getattr(m, name)) for m in MODULES for name in m.__all__):
        if not callable(obj) or name in RESULT_TYPES or (
            isinstance(obj, type) and issubclass(obj, Exception)
        ):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.name in OBJECT_ARGUMENTS or param.annotation in OBJECT_ANNOTATIONS:
                continue
            assert param.name in ROLE_TABLES, f"{name}: no role for argument {param.name!r}"
            if not any(key.split("[")[0] == name for key in ROLE_TABLES[param.name]):
                missing.append(f"{name}({param.name})")
    assert not missing


def test_package_exports_each_module_list_once():
    reexported = [m for m in MODULES if m is not oracle]
    assert spinwire.__all__ == ["__version__", *(name for m in reexported for name in m.__all__)]
    assert len(set(spinwire.__all__)) == len(spinwire.__all__)
    for m in reexported:
        for name in m.__all__:
            assert getattr(spinwire, name) is getattr(m, name), name
    # the dense oracle keeps its own namespace
    assert not set(oracle.__all__) & set(spinwire.__all__)


# public names whose only callers are the tests: dense references for the grid engines
TEST_REFERENCES = ("evolve_deviation", "mqc_phase_cycled")
# public methods whose only callers are the tests: the tests read prepared states through it
TEST_METHOD_REFERENCES = ("DeviationState.weight",)
ROOT = Path(__file__).resolve().parents[1]


def _annotated_class(node) -> str | None:
    """The class an annotation names as a bare name or a string, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _attribute_reads(tree, classes, returns):
    """(attribute node, receiver class or None) for every attribute read in ``tree``.

    The receiver's class is read where the code names it: a class named
    directly (``ChainSpec.from_json``), the first parameter of a method of
    that class, a call of the class or of a function whose return annotation
    names it, a parameter annotated with it, and a name bound in the
    enclosing functions to one of these. Anything else, such as a loop
    variable or a comprehension target, is None: without a type checker its
    class is not written in the code.
    """
    def resolve(node, bound):
        if isinstance(node, ast.Name):
            return node.id if node.id in classes else bound.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            return name if name in classes else returns.get(name)
        return None

    def visit(node, bound, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            bound = dict(bound)
            for i, arg in enumerate(args):
                bound[arg.arg] = _annotated_class(arg.annotation)
                if i == 0 and owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
                ):
                    bound[arg.arg] = owner
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AnnAssign)) and inner.value is not None:
                    targets = inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            cls = resolve(inner.value, bound)
                            # a name bound twice to different things has no one class
                            bound[target.id] = cls if bound.get(target.id, cls) == cls else None
            owner = None
        elif isinstance(node, ast.Attribute):
            yield node, resolve(node.value, bound)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bound, owner)

    yield from visit(tree, {}, None)


def test_every_public_name_has_a_program_caller():
    # each name in a module's __all__, and each public non-dunder method of an exported class,
    # must be read under src/ or perfbench/ outside its own definition; neither the __all__
    # string nor the def statement counts as a read, and a method is read as an attribute.
    # A method read counts for its owning class: for the class of the receiver where the code
    # names it (``_attribute_reads``), and otherwise only when no other exported class has a
    # method or field of that name. So ChainSpec.to_json and VerificationReport.to_json, or
    # VerificationReport.passed and the CheckResult field ``passed``, never count each other's
    # reads, and a read whose receiver is not named counts for neither.
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    tops = {
        path: [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for path, tree in trees.items()
    }
    exported = {
        (path, cls.name): cls
        for module in MODULES
        for path in [Path(module.__file__).resolve()]
        for cls in tops[path] if isinstance(cls, ast.ClassDef) and cls.name in module.__all__
    }
    owners = defaultdict(set)  # member name -> exported classes with a method or field of it
    for (_, name), cls in exported.items():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                owners[node.name].add(name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                owners[node.target.id].add(name)
    annotated = defaultdict(set)  # function name -> classes its return annotations name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotated[node.name].add(_annotated_class(node.returns))
    classes = {name for _, name in exported}
    returns = {
        name: cls for name, found in annotated.items()
        if len(found) == 1 for cls in found if cls in classes
    }
    reads = defaultdict(list)  # name -> (path, node id) of each read
    method_reads = defaultdict(list)  # (class, method) -> (path, node id) of each read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((path, id(node)))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((path, id(node)))
        for node, cls in _attribute_reads(tree, classes, returns):
            if cls is None and len(owners[node.attr]) == 1:
                cls = next(iter(owners[node.attr]))
            method_reads[cls, node.attr].append((path, id(node)))
    unused = []
    for module in MODULES:
        path = Path(module.__file__).resolve()
        own = {node.name: {(path, id(inner)) for inner in ast.walk(node)} for node in tops[path]}
        unused += [
            f"{module.__name__}.{name}" for name in module.__all__
            if name not in TEST_REFERENCES and set(reads[name]) <= own.get(name, set())
        ]
        methods = [
            (cls.name, node)
            for cls in tops[path] if (path, cls.name) in exported
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        unused += [
            f"{module.__name__}.{owner}.{node.name}" for owner, node in methods
            if f"{owner}.{node.name}" not in TEST_METHOD_REFERENCES
            and set(method_reads[owner, node.name])
            <= {(path, id(inner)) for inner in ast.walk(node)}
        ]
    assert not unused
