"""Batched time-grid engine, block CSV writer and the input contract.

``propagate_grid`` is the one evaluation path behind every CLI table, so
its validated range (n = 2..60, |t| <= 50, random couplings and row
subsets) is pinned here against the single-time ``propagate`` and
against ``scipy.linalg.expm``. The closed forms stay as independent
references for the channel correlations it feeds.

The entry-point tables at the end hold every public function that takes
a chain length, a site, a time, a real, an integer or a named choice to
the one rule of that input kind in ``spinwire.chain``; a last test reads
the signatures in ``spinwire.__all__`` and fails if a function is missing
from the table of one of its arguments.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinwire
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
    logical_correlations,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from spinwire.mqc import (
    mqc_analytic,
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_propagator_grid,
    mqc_x_analytic,
    mqc_y_analytic,
    mqc_z_analytic,
    prepare_state,
)
from spinwire.oracle import (
    basis_index,
    collective_rotation_diag,
    excitation_operator,
    pauli_string_to_dense,
    popcount,
    require_within_budget,
    similarity_transform,
    staggered_z,
    total_z,
)
from spinwire.pauli import DeviationState
from spinwire.propagator import (
    _TIME_BLOCK,
    chain_propagator,
    end_autocorrelation,
    end_autocorrelation_grid,
    engineered_frequencies,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_correlation,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    slater_amplitude,
    spectral_decompose,
)
from spinwire.verify import run_verification

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
        single = propagate(dec, t).amplitudes
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
    single = [end_autocorrelation(spec, kind, t) for t in times]
    assert curve.shape == (len(times),)
    assert np.array_equal(curve, single)


# 1e308 is finite, but its phases w t lie far past 2^52 rad or overflow;
# mqc_x_analytic forms no phase, and holds times to mqc_y_analytic's range
BAD_TIMES = ("a", None, float("nan"), float("inf"), 1e308, "0.5", True, 10**400,
             np.complex128(1 + 1j))
TIME_ENTRY_POINTS = {
    "chain_propagator": lambda t: chain_propagator(homogeneous_couplings(4), t),
    "propagate": lambda t: propagate(spectral_decompose(homogeneous_couplings(4)), t),
    "polarization_correlation": lambda t: polarization_correlation(
        homogeneous_couplings(4), 1, 4, t
    ),
    "logical_correlation_from_spec": lambda t: logical_correlation_from_spec(
        homogeneous_couplings(6), "x", t
    ),
    "entanglement_fidelity": lambda t: entanglement_fidelity(6, 1.0, "homogeneous", t),
    "propagate_grid": lambda t: propagate_grid(spectral_decompose(homogeneous_couplings(4)), [t]),
    "end_autocorrelation": lambda t: end_autocorrelation(homogeneous_couplings(4), "z_ends", t),
    "end_autocorrelation_grid": lambda t: end_autocorrelation_grid(
        homogeneous_couplings(4), "z_ends", [0.0, t]
    ),
    "homogeneous_amplitude": lambda t: homogeneous_amplitude(4, 1.0, 1, 4, t),
    "mqc_z_analytic": lambda t: mqc_z_analytic(4, 1.0, t),
    "mqc_y_analytic": lambda t: mqc_y_analytic(4, 1.0, t),
    "mqc_x_analytic": lambda t: mqc_x_analytic(4, 1.0, t),
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
}


@pytest.mark.parametrize("t", BAD_TIMES, ids=repr)
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_entry_points_reject_bad_times(entry, t):
    # warnings are errors (pyproject.toml), so a phase that warns fails here too
    with pytest.raises(InvalidParameterError):
        TIME_ENTRY_POINTS[entry](t)


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
    "mqc_z_analytic": lambda n: mqc_z_analytic(n, 1.0, 0.5),
    "mqc_y_analytic": lambda n: mqc_y_analytic(n, 1.0, 0.5),
    "mqc_x_analytic": lambda n: mqc_x_analytic(n, 1.0, 0.5),
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
    "mqc_z_analytic": lambda d: mqc_z_analytic(4, d, 0.5),
    "mqc_y_analytic": lambda d: mqc_y_analytic(4, d, 0.5),
    "mqc_x_analytic": lambda d: mqc_x_analytic(4, d, 0.5),
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
    "Propagator.amplitude[j]": lambda j: SITE_PROP.amplitude(j, 1),
    "Propagator.amplitude[l]": lambda j: SITE_PROP.amplitude(1, j),
    "homogeneous_amplitude": lambda j: homogeneous_amplitude(SITE_N, 1.0, 1, j, 0.7),
    "polarization_correlation": lambda j: polarization_correlation(
        homogeneous_couplings(SITE_N), j, 1, 0.7
    ),
    "polarization_from_propagator": lambda j: polarization_from_propagator(SITE_PROP, 1, j, "dq"),
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
    assert INT_ENTRY_POINTS[entry](k) == INT_ENTRY_POINTS[entry](7)


BAD_CHOICES = ("bogus", "", None, 1, ["xx"], b"xx")
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
    "logical_correlations": (lambda c: logical_correlations(CHOICE_PROP, c), UnsupportedModelError),
    "channel_correlations": (
        lambda c: channel_correlations(CHOICE_PROP.amplitudes, c), UnsupportedModelError
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
    "end_autocorrelation": (
        lambda c: end_autocorrelation(homogeneous_couplings(4), c, 0.5), InvalidConfigurationError
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


# the table that holds each public argument, by parameter name
ROLE_TABLES = {
    **dict.fromkeys(("n", "max_n"), LENGTH_ENTRY_POINTS),
    "d": SCALE_ENTRY_POINTS,
    **dict.fromkeys(("t", "times"), TIME_ENTRY_POINTS),
    **dict.fromkeys(("j", "l", "terms"), SITE_ENTRY_POINTS),
    **dict.fromkeys(("sources", "targets", "rows", "cols", "a", "b"), SITE_TUPLE_ENTRY_POINTS),
    **dict.fromkeys(
        ("couplings", "positions", "prefactor", "r_min", "sigma", "tolerance"), REAL_ENTRY_POINTS
    ),
    **dict.fromkeys(("seed", "phase_steps", "max_order"), INT_ENTRY_POINTS),
    **dict.fromkeys(("model", "kind", "initial", "family", "alpha", "pair"), CHOICE_ENTRY_POINTS),
}
# objects and flags, outside the value rules (object arguments are not checked by type)
OBJECT_ARGUMENTS = ("spec", "decomposition", "prop", "basis", "amplitudes", "vals", "corrected")
RESULT_TYPES = (
    "TransferTiming", "SpectralDecomposition", "Propagator", "LogicalBasis", "MqcSpectrum",
    "CheckResult", "VerificationReport",
)


def test_every_public_argument_is_in_the_table_of_its_role():
    missing = []
    for name in spinwire.__all__:
        obj = getattr(spinwire, name)
        if not callable(obj) or name in RESULT_TYPES or (
            isinstance(obj, type) and issubclass(obj, Exception)
        ):
            continue
        for param in inspect.signature(obj).parameters.values():
            # the dense protocols take a prepared DeviationState as ``initial``
            if param.name in OBJECT_ARGUMENTS or param.annotation == "DeviationState":
                continue
            assert param.name in ROLE_TABLES, f"{name}: no role for argument {param.name!r}"
            if not any(key.split("[")[0] == name for key in ROLE_TABLES[param.name]):
                missing.append(f"{name}({param.name})")
    assert not missing
